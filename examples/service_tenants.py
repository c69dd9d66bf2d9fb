"""Two isolated tenants on one mapping service.

The minimal serving setup: one deployment's immutable artifacts
(device model, geometry, shared plan cache), two tenants admitted with
their own mapping-budget namespaces, each served on its own lane.  Each
tenant's fingerprint depends only on its own spec, workload and
namespace — rerun either tenant alone and its fingerprint is
bit-identical (the property ``repro serve --selftest`` proves at
scale).

Run:  python examples/service_tenants.py
"""

import json

from repro.service import ServiceFrontend, SharedArtifacts, TenantSpec
from repro.workloads import MixedStrideWorkload, StridedCopyWorkload


def main() -> None:
    with ServiceFrontend(
        shared=SharedArtifacts.create(backend="fast")
    ) as service:
        service.admit(
            TenantSpec("alice", system="sdm_bsm_ml4", quota=4, seed=1)
        )
        service.admit(TenantSpec("bob", system="sdm_bsm", quota=4, seed=2))

        service.submit(
            "alice",
            StridedCopyWorkload(stride_lines=16, accesses_per_thread=4000),
        )
        service.submit(
            "bob",
            MixedStrideWorkload(strides=(1, 8), accesses_per_stride=2000),
        )

        report = service.drain()

    for name, result in report.tenants.items():
        namespace = result.namespace
        stats = result.stats
        print(
            f"{name}: slots [{namespace.base}, {namespace.end}), "
            f"{stats.requests} requests, "
            f"{stats.throughput_gbps:.1f} GB/s"
        )
    cache = report.plan_cache
    print(
        f"shared plan cache: {cache['hits']} hits / "
        f"{cache['misses']} misses across both tenants"
    )

    fingerprints = report.fingerprints()
    assert fingerprints["alice"] != fingerprints["bob"]
    print("\nper-tenant fingerprints (distinct, deterministic):")
    for name, fingerprint in fingerprints.items():
        digest = json.dumps(fingerprint, sort_keys=True)
        print(f"  {name}: {len(digest)} bytes, namespace "
              f"{fingerprint['namespace']}")


if __name__ == "__main__":
    main()
