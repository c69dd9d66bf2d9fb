"""One mergeable ledger base: merge laws and dict form from field declarations.

A ledger is a dataclass of run counters that folds across jobs, tenants
and campaign legs and round-trips through a JSON dict.  Each field
declares its merge kind with :func:`ledger_field` — ``"sum"`` (default:
ints, floats, per-channel numpy arrays), ``"max"``, ``"concat"``
(journals, in order), ``"latest"`` (right operand unless ``None``) or
``"left"`` (``match=True`` raises ``ValueError`` on a mismatch) — and
:class:`Ledger` derives ``empty``, ``merge``, ``__add__``, ``to_dict``
and ``from_dict`` (DESIGN.md §19).  Subclass keywords: ``derived``
names properties or no-argument methods appended to ``to_dict``;
``strict=True`` makes ``from_dict`` raise ``KeyError`` on a missing
field instead of taking the field default.  Unknown keys are ignored.
"""

from __future__ import annotations

import dataclasses
import typing

import numpy as np

__all__ = ["Ledger", "ledger_field"]

_MERGE = {
    "sum": lambda a, b: a + b,
    "max": max,
    "concat": lambda a, b: list(a) + list(b),
    "latest": lambda a, b: a if b is None else b,
    "left": lambda a, b: a,
}
_SUM = {"kind": "sum", "dtype": None, "length": None, "match": False}


def ledger_field(kind="sum", *, dtype=None, length=None, match=False, **kw):
    """A field merging by ``kind``; an array field declares its ``dtype``
    and the field holding its ``length``.  ``kw`` go to ``field``."""
    meta = {"kind": kind, "dtype": dtype, "length": length, "match": match}
    return dataclasses.field(metadata={"ledger": meta}, **kw)


def _loader(meta: dict, hint):
    """How :meth:`Ledger.from_dict` rebuilds a value of one field."""
    if meta["dtype"] is not None:
        return lambda value: np.asarray(value, dtype=meta["dtype"])
    if meta["kind"] == "concat":
        return lambda value: [dict(entry) for entry in value]
    inner = [a for a in typing.get_args(hint) if a is not type(None)]
    if len(inner) == 1:  # ``X | None``
        return lambda value: None if value is None else inner[0](value)
    return hint


def _spec(f: dataclasses.Field, hint) -> tuple:
    """``(name, meta, load, required)`` of one constructor field."""
    meta = f.metadata.get("ledger", _SUM)
    required = f.default is f.default_factory is dataclasses.MISSING
    return f.name, meta, _loader(meta, hint), required


class Ledger:
    """Mixin deriving the merge laws and dict form of a dataclass."""

    def __init_subclass__(cls, strict=False, derived=(), **kwargs):
        super().__init_subclass__(**kwargs)
        cls._ledger_strict = strict
        cls._ledger_derived = derived

    @classmethod
    def _ledger_fields(cls) -> tuple:
        """:func:`_spec` of every constructor field, cached per class."""
        spec = cls.__dict__.get("_ledger_spec")
        if spec is None:
            hints = typing.get_type_hints(cls)
            fields = [f for f in dataclasses.fields(cls) if f.init]
            spec = cls._ledger_spec = tuple(
                _spec(f, hints[f.name]) for f in fields
            )
        return spec

    @classmethod
    def empty(cls, *args):
        """The merge identity: ``args`` fill the ``"left"`` fields in order,
        fields without a default start at zero and the rest at default."""
        spec = cls._ledger_fields()
        left = [name for name, meta, _, _ in spec if meta["kind"] == "left"]
        kwargs = dict(zip(left, args))
        for name, meta, load, required in spec:
            if required and name not in kwargs:
                kwargs[name] = (
                    load()
                    if meta["dtype"] is None
                    else np.zeros(kwargs[meta["length"]], meta["dtype"])
                )
        return cls(**kwargs)

    def merge(self, other):
        """Combine two ledgers field by field under their merge kinds."""
        values = {}
        for name, meta, _, _ in self._ledger_fields():
            a, b = getattr(self, name), getattr(other, name)
            if meta["match"] and a != b:
                raise ValueError(
                    f"cannot merge {type(self).__name__} with different "
                    f"{name}: {a} != {b}"
                )
            values[name] = _MERGE[meta["kind"]](a, b)
        return type(self)(**values)

    def __add__(self, other):
        if not isinstance(other, type(self)):
            return NotImplemented
        return self.merge(other)

    def to_dict(self) -> dict:
        """A JSON-serialisable form; :meth:`from_dict` round-trips it."""
        data = {}
        for name, meta, load, _ in self._ledger_fields():
            value = getattr(self, name)
            if meta["dtype"] is not None:
                value = load(value).tolist()
            elif meta["kind"] == "concat" or isinstance(value, dict):
                value = load(value)
            data[name] = value
        for name in self._ledger_derived:
            value = getattr(self, name)
            data[name] = value() if callable(value) else value
        return data

    @classmethod
    def from_dict(cls, data: dict):
        """Rebuild a ledger written by :meth:`to_dict`."""
        return cls(**{
            name: load(data[name])
            for name, _, load, _ in cls._ledger_fields()
            if cls._ledger_strict or name in data
        })
