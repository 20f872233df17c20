"""Host-parallel sweep runner: fan a config grid across worker processes.

A sweep is a list of :class:`SweepPoint` descriptions — each one names a
workload (by registry name, so points are picklable) and the system knobs it
runs under.  :func:`run_sweep` executes every point, either inline
(``workers=1``, the sequential baseline) or in supervised worker processes,
and merges the per-point report digests into one sweep digest.

Determinism rules (the part that makes host parallelism safe):

* every point's RNG seed is derived *from the point itself*
  (:func:`point_seed` hashes the point name with :func:`zlib.crc32` — never
  Python's salted ``hash``) — worker identity, scheduling order and worker
  count cannot influence any simulated statistic;
* each point builds its whole system inside the worker, so no simulator
  state crosses process boundaries — only the input :class:`SweepPoint` and
  the output digest dict travel (both plain data);
* results are merged by job index in submission order, whatever order the
  workers finished in, so the merged digest is byte-identical no matter
  how many workers ran it or how they were scheduled.

``tests/test_fast_engine.py`` and the perf smoke gate assert the
workers=1 vs workers=N digests are identical.

Execution is delegated to the fault-tolerant experiment service
(:mod:`repro.experiments.service`), which supervises every multi-worker
run (bounded retries, backoff, quarantine); run through
:func:`repro.experiments.service.run_resilient_sweep` the same grid also
gains content-addressed result caching and journaled kill-and-resume.
"""

from __future__ import annotations

import os
import time
import zlib
from dataclasses import asdict, dataclass, field, replace
from typing import Dict, List, Optional, Sequence

from repro.common.addresses import MB
from repro.common.config import PageTableConfig, SystemConfig, scaled_system_config


@dataclass
class SweepPoint:
    """One configuration in a sweep grid.

    ``workload`` is a :mod:`repro.workloads.registry` name (or, when
    ``processes > 1``, a :data:`repro.workloads.multiproc
    .MULTIPROCESS_SCENARIOS` name), so the point is picklable and the
    workload objects are constructed inside the worker.
    """

    name: str
    workload: str
    workload_kwargs: Dict[str, object] = field(default_factory=dict)
    physical_memory_bytes: int = 256 * MB
    page_table_kind: str = "radix"
    thp_policy: str = "linux"
    os_mode: str = "imitation"
    #: Simulated cores (>1 selects the multi-core orchestrator).
    cores: int = 1
    #: Co-running processes (used with ``cores``; needs a scenario name).
    processes: int = 1
    max_instructions: Optional[int] = None
    #: Explicit system seed; None derives one from the point name.
    seed: Optional[int] = None


def validate_points(points: Sequence[SweepPoint]) -> None:
    """Fail fast on malformed grids, naming the offending point.

    Checks run *before* any worker is spawned: unknown workload/scenario
    names and unknown page-table kinds would otherwise
    surface as a deep traceback inside a worker process; duplicate point
    names are outright dangerous — they silently collide in
    :func:`point_seed` *and* in the content-addressed result store (two
    different configs sharing a name still hash differently in the store,
    but their crc32 seeds would collide; identical configs would
    double-count), so both are rejected here.
    """
    from repro.pagetables.factory import registered_kinds
    from repro.workloads.multiproc import MULTIPROCESS_SCENARIOS
    from repro.workloads.registry import workload_names

    seen: Dict[str, int] = {}
    for index, point in enumerate(points):
        if point.name in seen:
            raise ValueError(
                f"duplicate sweep point name {point.name!r} (points "
                f"#{seen[point.name]} and #{index}): names seed the per-point "
                f"RNG and key the result store, so they must be unique")
        seen[point.name] = index
        if point.cores > 1 or point.processes > 1:
            if point.workload not in MULTIPROCESS_SCENARIOS:
                raise ValueError(
                    f"sweep point {point.name!r}: unknown multi-process "
                    f"scenario {point.workload!r}; known: "
                    f"{sorted(MULTIPROCESS_SCENARIOS)}")
        elif point.workload not in workload_names():
            raise ValueError(
                f"sweep point {point.name!r}: unknown workload "
                f"{point.workload!r}; known: {workload_names()}")
        if point.page_table_kind not in registered_kinds():
            raise ValueError(
                f"sweep point {point.name!r}: unknown page-table kind "
                f"{point.page_table_kind!r}; known: {registered_kinds()}")


def point_seed(point: SweepPoint, base_seed: int = 0) -> int:
    """Deterministic per-point seed: stable hash of the point name.

    Uses :func:`zlib.crc32`, never the salted built-in ``hash``, so the
    same grid reproduces the same seeds in every interpreter and worker.
    """
    if point.seed is not None:
        return point.seed
    digest = zlib.crc32(point.name.encode("utf-8"))
    return (digest ^ (base_seed * 0x9E3779B1)) & 0x7FFFFFFF


def _build_config(point: SweepPoint) -> SystemConfig:
    config = scaled_system_config(name=f"sweep-{point.name}",
                                  physical_memory_bytes=point.physical_memory_bytes,
                                  thp_policy=point.thp_policy,
                                  fragmentation_target=1.0)
    if point.page_table_kind != "radix":
        config = config.with_page_table(PageTableConfig(kind=point.page_table_kind))
    return config.with_simulation(replace(config.simulation, os_mode=point.os_mode))


#: Host timings below this are clock noise, not a measurement: a KIPS value
#: divided out of a sub-resolution (or zero) denominator would be a denormal
#: explosion, so both the per-point and the merged rate clamp through here.
HOST_SECONDS_RESOLUTION = 1e-6


def kips_value(instructions: int, host_seconds: float) -> float:
    """Simulated kilo-instructions per host second, 0.0 below resolution."""
    if host_seconds < HOST_SECONDS_RESOLUTION:
        return 0.0
    return round(instructions / 1000.0 / host_seconds, 1)


def run_point(point: SweepPoint, base_seed: int = 0) -> Dict[str, object]:
    """Build and run one sweep point; returns a picklable report digest."""
    # Imports stay inside the worker entry point so a worker without the
    # parent's module state is self-reliant.
    from repro.core.virtuoso import Virtuoso
    from repro.workloads.multiproc import build_multiprocess_scenario
    from repro.workloads.registry import build_workload

    seed = point_seed(point, base_seed)
    config = _build_config(point)
    start = time.perf_counter()
    system = Virtuoso(config, seed=seed, num_cores=point.cores)
    if point.cores > 1 or point.processes > 1:
        workloads = build_multiprocess_scenario(point.workload,
                                                **point.workload_kwargs)
        report = system.run_tasks(workloads,
                                  max_instructions=point.max_instructions).merged
    else:
        workload = build_workload(point.workload, **point.workload_kwargs)
        report = system.run(workload, max_instructions=point.max_instructions)
    host_seconds = time.perf_counter() - start
    simulated = report.instructions + report.kernel_instructions
    return {
        "name": point.name,
        "seed": seed,
        "workload": point.workload,
        # Constant: perfbench/expected.json and recorded sweep/service/server sha256s hash it.
        "engine": "batch",
        "cores": point.cores,
        "simulated_instructions": simulated,
        "kernel_instructions": report.kernel_instructions,
        "cycles": report.cycles,
        "ipc": round(report.ipc, 6),
        "page_faults": report.page_faults,
        "l2_tlb_misses": report.l2_tlb_misses,
        "dram_accesses": report.dram_accesses,
        "host_seconds": host_seconds,
        "kips": kips_value(simulated, host_seconds),
    }


def _worker(args) -> Dict[str, object]:
    point, base_seed = args
    return run_point(point, base_seed)


def merge_point_digests(digests: Sequence[Dict[str, object]]) -> Dict[str, object]:
    """Merge per-point digests into sweep-level totals."""
    total_instructions = sum(d["simulated_instructions"] for d in digests)
    total_host = sum(d["host_seconds"] for d in digests)
    return {
        "points": len(digests),
        "simulated_instructions": total_instructions,
        "kernel_instructions": sum(d["kernel_instructions"] for d in digests),
        "page_faults": sum(d["page_faults"] for d in digests),
        "worker_seconds": round(total_host, 4),
        "aggregate_kips": kips_value(total_instructions, total_host),
    }


def simulated_digest(digests: Sequence[Dict[str, object]]) -> List[Dict[str, object]]:
    """The host-independent slice of per-point digests (for determinism
    comparisons across worker counts: everything except host timings)."""
    host_keys = ("host_seconds", "kips")
    return [{key: value for key, value in digest.items() if key not in host_keys}
            for digest in digests]


def simulated_fingerprint(digests: Sequence[Dict[str, object]]) -> str:
    """sha256 over the canonical JSON of the simulated digest slice.

    One comparable string for "these runs computed the same simulation":
    the byte-identity token the resume/fault-tolerance gates assert
    between a faulted, killed-and-resumed, or cache-served sweep and a
    fault-free ``workers=1`` straight-line run.
    """
    from repro.experiments.store import content_key

    return content_key(simulated_digest(digests))


def run_sweep(points: Sequence[SweepPoint], workers: Optional[int] = None,
              base_seed: int = 0,
              service: Optional[object] = None) -> Dict[str, object]:
    """Run every point through the experiment service; return the digest.

    ``workers=1`` (or a one-point grid) runs inline — the sequential
    wall-clock baseline; ``workers>1`` runs each point in a supervised
    worker process, at most ``workers`` at a time.  The default uses every
    host core.  Simulated statistics are identical for any worker count
    (see the module determinism rules).

    Execution is delegated to an
    :class:`~repro.experiments.service.ExperimentService` — by default an
    ephemeral one (no store, no journal), but passing ``service`` (or using
    :func:`~repro.experiments.service.run_resilient_sweep`) adds content-
    addressed result caching, journaled resume, per-job timeouts and
    retry/quarantine semantics without changing a single simulated
    statistic.  The digest gains ``simulated_sha256`` (the byte-identity
    fingerprint of the simulated slice), ``failed_points`` (quarantined
    jobs) and a ``service`` counters section.
    """
    from repro.experiments.service import ExperimentService, sweep_jobs

    if not points:
        raise ValueError("need at least one sweep point")
    validate_points(points)
    if workers is None:
        workers = max(1, os.cpu_count() or 1)
    if service is None:
        service = ExperimentService(workers=workers)
    start = time.perf_counter()
    outcome = service.execute(_worker, sweep_jobs(points, base_seed))
    wall_seconds = time.perf_counter() - start
    results = [digest for digest in outcome["results"] if digest is not None]
    return {
        "workers": service.workers,
        "host_cpus": os.cpu_count() or 1,
        "wall_seconds": round(wall_seconds, 4),
        "points": results,
        "grid": [asdict(point) for point in points],
        "merged": merge_point_digests(results),
        "simulated_sha256": simulated_fingerprint(results),
        "failed_points": outcome["failed_points"],
        "service": outcome["counters"],
        "job_details": outcome["job_details"],
    }
