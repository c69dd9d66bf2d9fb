"""Tenant admission: quotas carved from the global mapping budget.

The CMT supports 256 concurrent mappings globally (Section 5.3), and
the multi-tenant service must hand every admitted tenant a slice it can
rely on.  :class:`TenantRegistry` is the control plane for that budget.
``admit`` carves a :class:`~repro.core.cmt.MappingNamespace` out of the
remaining slots (first-fit over released ranges — kept sorted and
coalesced so churn cannot fragment the table — then a bump allocator),
builds the tenant's :class:`~repro.service.tenant.TenantContext` over
the deployment's shared artifacts, and ``evict`` returns the slice for
reuse.

Beyond first-fit, admission is an *admission controller*:

* **Priority classes** — every :class:`TenantSpec` carries a priority
  (``"guaranteed"`` > ``"standard"`` > ``"best-effort"``) that decides
  who gives way under pressure.
* **Quota borrowing with reclaim** — a spec with ``min_quota < quota``
  holds its slots above ``min_quota`` on loan: they are granted while
  the table has room and *reclaimed* (the namespace shrinks back to the
  floor, the tail returns to the free pool, the context is rebuilt)
  when a later admission cannot fit.  Reclaim visits lower-priority
  borrowers first.
* **Preemption** — when reclaim is not enough, an above-best-effort
  admission may evict ``best-effort`` tenants (newest first); the
  optional ``preempt_hook`` lets the serving front-end tear down the
  victim's lane and account its queued jobs before the slice is freed.

Every action is recorded in the attached
:class:`~repro.service.health.ServiceHealth` journal, so degraded
admissions are visible, never silent.  When nothing helps, admission
fails with :class:`~repro.errors.CMTError` — the same error quota
exhaustion raises at intern time — so overcommit stays impossible by
construction.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

from repro.core.cmt import MappingNamespace
from repro.errors import CMTError, ConfigError
from repro.service.health import ServiceHealth
from repro.service.tenant import SharedArtifacts, TenantContext
from repro.system.config import SystemConfig, system_by_key

__all__ = ["PRIORITIES", "TenantRegistry", "TenantSpec"]

#: Default mapping-slot quota for a tenant that doesn't ask for one:
#: enough for the paper's 4-cluster configurations.
DEFAULT_QUOTA = 4

#: Admission priority classes, weakest first.  ``best-effort`` tenants
#: may be preempted; ``guaranteed`` tenants never lend borrowed slots.
PRIORITIES = ("best-effort", "standard", "guaranteed")


@dataclass(frozen=True)
class TenantSpec:
    """What a tenant asks for at admission time.

    ``quota`` is the desired mapping-slot count; ``min_quota`` (when
    given) is the guaranteed floor — the slots in between are borrowed
    and may be reclaimed under pressure.  ``priority`` picks the
    admission class (see :data:`PRIORITIES`).
    """

    name: str
    system: SystemConfig | str = "sdm_bsm_ml4"
    quota: int = DEFAULT_QUOTA
    seed: int = 0
    engine: str = "cpu"
    cores: int = 4
    backend: str | None = None
    backend_options: dict | None = None
    chunk_accesses: int | None = None
    chunk_colours: int = 8
    guard: bool = False
    guard_sample: float | None = None
    guard_mode: str = "demote"
    backend_faults: object | None = None
    priority: str = "standard"
    min_quota: int | None = None

    def resolved_system(self) -> SystemConfig:
        """The system configuration, looked up when given as a key."""
        if isinstance(self.system, SystemConfig):
            return self.system
        return system_by_key(self.system)

    @property
    def floor(self) -> int:
        """The guaranteed slot count (``quota`` when not borrowing)."""
        return self.quota if self.min_quota is None else self.min_quota

    @property
    def rank(self) -> int:
        """Numeric priority (higher outranks lower)."""
        return PRIORITIES.index(self.priority)


@dataclass
class _FreeRange:
    """A released slice of the budget, reusable by later admissions."""

    base: int
    capacity: int = field(default=0)

    @property
    def end(self) -> int:
        return self.base + self.capacity


class TenantRegistry:
    """Admission control over one deployment's shared artifacts."""

    def __init__(
        self,
        shared: SharedArtifacts | None = None,
        max_mappings: int = 256,
        health: ServiceHealth | None = None,
    ):
        if max_mappings < 2:
            raise ConfigError(
                "service needs at least two mapping slots "
                "(identity + one tenant slot)"
            )
        self.shared = shared or SharedArtifacts.create()
        self.max_mappings = max_mappings
        #: Degradation journal admissions record into; the serving
        #: front-end shares its own instance with the registry.
        self.health = health if health is not None else ServiceHealth()
        #: Called with the victim's name just before a preemption evicts
        #: it, so a front-end can stop the lane and account its jobs.
        self.preempt_hook: Callable[[str], None] | None = None
        self._tenants: dict[str, TenantContext] = {}
        self._specs: dict[str, TenantSpec] = {}
        self._free: list[_FreeRange] = []  # sorted by base, coalesced
        self._next_base = 1  # slot 0: the shared boot identity

    # -- budget bookkeeping --------------------------------------------------
    @property
    def remaining_slots(self) -> int:
        """Mapping slots still carvable (free ranges + untouched tail)."""
        freed = sum(r.capacity for r in self._free)
        return self.max_mappings - self._next_base + freed

    def _release(self, base: int, capacity: int) -> None:
        """Return a slice to the free pool, coalescing neighbours.

        Coalescing matters under churn: hundreds of admit/evict cycles
        must not fragment the table into unusable single-slot slivers.
        A free range that reaches the bump frontier folds back into it.
        """
        if capacity < 1:
            return
        self._free.append(_FreeRange(base=base, capacity=capacity))
        self._free.sort(key=lambda r: r.base)
        merged: list[_FreeRange] = []
        for rng in self._free:
            if merged and merged[-1].end == rng.base:
                merged[-1].capacity += rng.capacity
            else:
                merged.append(rng)
        while merged and merged[-1].end == self._next_base:
            self._next_base = merged.pop().base
        self._free = merged

    def _carve(self, tenant: str, quota: int) -> MappingNamespace:
        for position, free in enumerate(self._free):
            if free.capacity >= quota:
                namespace = MappingNamespace(tenant, free.base, quota)
                if free.capacity == quota:
                    del self._free[position]
                else:
                    free.base += quota
                    free.capacity -= quota
                return namespace
        if self._next_base + quota > self.max_mappings:
            raise CMTError(
                f"mapping budget exhausted: tenant {tenant!r} needs {quota} "
                f"slots but only {self.remaining_slots} remain "
                f"(of {self.max_mappings}, slot 0 reserved)"
            )
        namespace = MappingNamespace(tenant, self._next_base, quota)
        self._next_base += quota
        return namespace

    def _try_carve(self, tenant: str, quota: int) -> MappingNamespace | None:
        try:
            return self._carve(tenant, quota)
        except CMTError:
            return None

    # -- admission pressure valves -------------------------------------------
    def _borrowers(self, below_rank: int) -> list[str]:
        """Tenants lending reclaimable slots, weakest and newest first."""
        candidates = [
            name
            for name, spec in self._specs.items()
            if spec.rank < below_rank
            and self._tenants[name].namespace is not None
            and self._tenants[name].namespace.capacity > spec.floor
        ]
        return sorted(
            candidates,
            key=lambda name: (
                self._specs[name].rank,
                -list(self._specs).index(name),
            ),
        )

    def _reclaim_from(self, name: str, for_tenant: str) -> int:
        """Shrink one borrower to its floor; returns slots reclaimed.

        The borrower's namespace is replaced by a same-base, floor-sized
        one and its context rebuilt around it; the tail returns to the
        free pool.  In-flight work holding the old context finishes
        under the old namespace — the new one takes effect at the
        tenant's next job.
        """
        spec = self._specs[name]
        namespace = self._tenants[name].namespace
        reclaimed = namespace.capacity - spec.floor
        if reclaimed <= 0:
            return 0
        shrunk = MappingNamespace(name, namespace.base, spec.floor)
        self._tenants[name] = self._build_context(spec, shrunk)
        self._release(namespace.base + spec.floor, reclaimed)
        self.health.record(
            "quota-reclaimed",
            name,
            f"lent {reclaimed} slot(s) to {for_tenant!r}",
            slots=reclaimed,
            remaining=spec.floor,
        )
        return reclaimed

    def _preemptable(self) -> list[str]:
        """Best-effort tenants, newest first."""
        return [
            name
            for name in reversed(list(self._specs))
            if self._specs[name].priority == "best-effort"
        ]

    def _preempt(self, name: str, for_tenant: str) -> None:
        """Evict a best-effort tenant to make room for a higher class."""
        if self.preempt_hook is not None:
            self.preempt_hook(name)
        self.evict(name)
        self.health.record(
            "tenant-preempted", name, f"preempted for {for_tenant!r}"
        )

    # -- admission -----------------------------------------------------------
    def _build_context(
        self, spec: TenantSpec, namespace: MappingNamespace | None
    ) -> TenantContext:
        return TenantContext(
            name=spec.name,
            system=spec.resolved_system(),
            shared=self.shared,
            engine=spec.engine,
            cores=spec.cores,
            backend=spec.backend,
            backend_options=spec.backend_options,
            chunk_accesses=spec.chunk_accesses,
            seed=spec.seed,
            chunk_colours=spec.chunk_colours,
            guard=spec.guard,
            guard_sample=spec.guard_sample,
            guard_mode=spec.guard_mode,
            backend_faults=spec.backend_faults,
            namespace=namespace,
        )

    def _admit_namespace(self, spec: TenantSpec) -> MappingNamespace:
        """Find a slice for ``spec``, escalating through the valves."""
        namespace = self._try_carve(spec.name, spec.quota)
        if namespace is not None:
            return namespace
        # Valve 1: reclaim borrowed slots from weaker borrowers.
        for victim in self._borrowers(below_rank=spec.rank + 1):
            if victim == spec.name:
                continue
            self._reclaim_from(victim, spec.name)
            namespace = self._try_carve(spec.name, spec.quota)
            if namespace is not None:
                return namespace
        # Valve 2: trim the request toward its own floor.
        for quota in range(spec.quota - 1, spec.floor - 1, -1):
            namespace = self._try_carve(spec.name, quota)
            if namespace is not None:
                self.health.record(
                    "admission-trimmed",
                    spec.name,
                    f"granted {quota} of {spec.quota} requested slot(s)",
                    granted=quota,
                    requested=spec.quota,
                )
                return namespace
        # Valve 3: preempt best-effort tenants for a higher class.
        if spec.rank > 0:
            for victim in self._preemptable():
                self._preempt(victim, spec.name)
                namespace = self._try_carve(spec.name, spec.quota)
                if namespace is None:
                    for quota in range(spec.quota - 1, spec.floor - 1, -1):
                        namespace = self._try_carve(spec.name, quota)
                        if namespace is not None:
                            break
                if namespace is not None:
                    if namespace.capacity < spec.quota:
                        self.health.record(
                            "admission-trimmed",
                            spec.name,
                            f"granted {namespace.capacity} of "
                            f"{spec.quota} requested slot(s)",
                            granted=namespace.capacity,
                            requested=spec.quota,
                        )
                    return namespace
        raise CMTError(
            f"mapping budget exhausted: tenant {spec.name!r} needs "
            f"{spec.floor}..{spec.quota} slots but only "
            f"{self.remaining_slots} remain "
            f"(of {self.max_mappings}, slot 0 reserved) and no borrowed "
            "or preemptable slots cover the request"
        )

    def admit(self, spec: TenantSpec) -> TenantContext:
        """Admit a tenant: carve its namespace, build its context."""
        if spec.name in self._tenants:
            raise ConfigError(f"tenant {spec.name!r} is already admitted")
        if spec.quota < 1:
            raise ConfigError(f"tenant {spec.name!r} quota must be >= 1")
        if spec.min_quota is not None and not (
            1 <= spec.min_quota <= spec.quota
        ):
            raise ConfigError(
                f"tenant {spec.name!r} min_quota must be in [1, quota]"
            )
        if spec.priority not in PRIORITIES:
            raise ConfigError(
                f"unknown priority {spec.priority!r}; "
                f"expected one of {PRIORITIES}"
            )
        # Validate the spec, backend options included, before any
        # pressure valve reclaims or preempts on its behalf.
        self._build_context(spec, None).check_backend()
        namespace = self._admit_namespace(spec)
        context = self._build_context(spec, namespace)
        self._tenants[spec.name] = context
        self._specs[spec.name] = spec
        return context

    def evict(self, name: str) -> None:
        """Remove a tenant, returning its slice to the free pool."""
        context = self._tenants.pop(name, None)
        if context is None:
            raise ConfigError(f"tenant {name!r} is not admitted")
        self._specs.pop(name, None)
        namespace = context.namespace
        if namespace is not None:
            self._release(namespace.base, namespace.capacity)

    def rebuild(self, name: str) -> TenantContext:
        """Rebuild a tenant's context in place (supervised lane restart).

        The namespace is kept — the budget partition does not move — so
        the rebuilt context is the "last good" one: same spec, same
        slice, fresh mutable state.
        """
        spec = self._specs.get(name)
        if spec is None:
            raise ConfigError(f"tenant {name!r} is not admitted")
        context = self._build_context(spec, self._tenants[name].namespace)
        self._tenants[name] = context
        return context

    # -- lookups -------------------------------------------------------------
    def get(self, name: str) -> TenantContext:
        """The admitted tenant's context."""
        context = self._tenants.get(name)
        if context is None:
            raise ConfigError(f"tenant {name!r} is not admitted")
        return context

    def spec(self, name: str) -> TenantSpec:
        """The spec the tenant was admitted with."""
        spec = self._specs.get(name)
        if spec is None:
            raise ConfigError(f"tenant {name!r} is not admitted")
        return spec

    def __contains__(self, name: str) -> bool:
        return name in self._tenants

    def __len__(self) -> int:
        return len(self._tenants)

    @property
    def names(self) -> list[str]:
        """Admitted tenant names, in admission order."""
        return list(self._tenants)

    def contexts(self) -> list[TenantContext]:
        """Admitted tenant contexts, in admission order."""
        return list(self._tenants.values())

    # -- invariants ----------------------------------------------------------
    def check_invariants(self) -> list[str]:
        """The budget laws, checkable after any churn sequence.

        Returns human-readable violations (empty when healthy): every
        namespace inside ``[1, max_mappings)``, pairwise disjoint, and
        the carved + free slots exactly accounting for the region below
        the bump frontier.
        """
        problems: list[str] = []
        spaces = [
            context.namespace
            for context in self._tenants.values()
            if context.namespace is not None
        ]
        for ns in spaces:
            if ns.base < 1 or ns.end > self.max_mappings:
                problems.append(
                    f"namespace {ns.tenant!r} [{ns.base}, {ns.end}) outside "
                    f"[1, {self.max_mappings})"
                )
        ordered = sorted(spaces, key=lambda ns: ns.base)
        for left, right in zip(ordered, ordered[1:]):
            if left.overlaps(right):
                problems.append(
                    f"namespaces {left.tenant!r} and {right.tenant!r} overlap"
                )
        carved = sum(ns.capacity for ns in spaces)
        freed = sum(r.capacity for r in self._free)
        if carved + freed != self._next_base - 1:
            problems.append(
                f"budget accounting broken: {carved} carved + {freed} free "
                f"!= {self._next_base - 1} below the bump frontier"
            )
        for left, right in zip(self._free, self._free[1:]):
            if left.end > right.base:
                problems.append("free ranges overlap")
            elif left.end == right.base:
                problems.append("free ranges not coalesced")
        return problems

    def report(self) -> dict:
        """A JSON-serialisable view of the budget partition."""
        return {
            "max_mappings": self.max_mappings,
            "remaining_slots": self.remaining_slots,
            "tenants": {
                name: context.namespace.to_dict()
                for name, context in self._tenants.items()
                if context.namespace is not None
            },
            "priorities": {
                name: spec.priority for name, spec in self._specs.items()
            },
        }
