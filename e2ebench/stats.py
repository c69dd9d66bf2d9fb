"""Pure statistics for the benchmark: percentiles, spreads, fidelity."""

from __future__ import annotations

import math

__all__ = [
    "TAIL_SAMPLES",
    "percentile",
    "rank_flips",
    "speedup_err_pct",
    "supported_percentile",
    "union_length",
]

#: A percentile is reported only with at least this many samples above it.
TAIL_SAMPLES = 10

_CANDIDATES = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)


def supported_percentile(n: int, candidates=_CANDIDATES) -> float | None:
    """The highest candidate percentile with ``TAIL_SAMPLES`` samples
    beyond it among ``n`` samples, or None when even the lowest has
    too few (p90 needs n >= 100, p99 needs n >= 1000)."""
    for p in sorted(candidates, reverse=True):
        if n * (100.0 - p) / 100.0 >= TAIL_SAMPLES - 1e-9:
            return p
    return None


def percentile(values, p: float) -> float:
    """Linearly interpolated percentile (numpy's default rule)."""
    data = sorted(values)
    if not data:
        raise ValueError("percentile of no samples")
    if len(data) == 1:
        return float(data[0])
    rank = (len(data) - 1) * p / 100.0
    low = math.floor(rank)
    high = min(low + 1, len(data) - 1)
    return float(data[low] + (data[high] - data[low]) * (rank - low))


def _order(a: float, b: float, rel_tol: float) -> int:
    if math.isclose(a, b, rel_tol=rel_tol, abs_tol=0.0):
        return 0
    return 1 if a > b else -1


def rank_flips(
    default: dict[str, dict[str, float]],
    reference: dict[str, dict[str, float]],
    rel_tol: float = 1e-9,
) -> int:
    """System pairs ordered differently by two speedup tables.

    Both tables map input -> system -> speedup.  For every input and
    every pair of systems present in both tables, the pair counts once
    when its order differs: a tie (within ``rel_tol``) in one table and
    a strict order in the other is a different order.
    """
    flips = 0
    for name, ours in default.items():
        theirs = reference.get(name)
        if theirs is None:
            continue
        systems = sorted(set(ours) & set(theirs))
        for i, first in enumerate(systems):
            for second in systems[i + 1:]:
                if _order(ours[first], ours[second], rel_tol) != _order(
                    theirs[first], theirs[second], rel_tol
                ):
                    flips += 1
    return flips


def speedup_err_pct(
    default: dict[str, dict[str, float]],
    reference: dict[str, dict[str, float]],
    baseline: str,
) -> float:
    """Mean |ln(default speedup / reference speedup)| over cells, in %.

    The baseline system's cells are 1.0 in both tables by definition and
    are left out, so they cannot dilute the error.
    """
    errors = [
        abs(math.log(ours[system] / reference[name][system]))
        for name, ours in default.items()
        for system in ours
        if system != baseline and system in reference.get(name, {})
    ]
    if not errors:
        raise ValueError("no comparable cells")
    return 100.0 * sum(errors) / len(errors)


def union_length(intervals) -> float:
    """Total length covered by (start, end) intervals, overlaps once."""
    total = 0.0
    current_start = current_end = None
    for start, end in sorted(intervals):
        if current_end is None or start > current_end:
            if current_end is not None:
                total += current_end - current_start
            current_start, current_end = start, end
        else:
            current_end = max(current_end, end)
    if current_end is not None:
        total += current_end - current_start
    return total
