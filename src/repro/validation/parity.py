"""Differential parity matrix: VPN cache off vs on across the whole zoo.

The MMU's VPN translation cache memoises L1 TLB hits so the hot loop can
skip the TLB-object machinery; it is only trustworthy if simulated
statistics are bit-identical with it switched off
(``MMUExtensions.vpn_translation_cache=False``, the reference) *everywhere*,
not just on the radix-centric scenarios the KIPS harness watches.  This
module is the McKeeman-style differential-testing subsystem that enforces
that: it enumerates a configuration lattice —

* every registered page-table design
  (:func:`repro.pagetables.factory.registered_kinds`),
* a workload family per behaviour class (translation-bound GUPS,
  allocation/fault-bound LLM inference — the family that exercises THP,
  khugepaged and reclaim),
* core count (1 and 2 — the multi-core orchestrator has its own
  interleaving and kernel-stream routing),
* OS feature toggles (THP on/off, swap pressure on/off),
* a virtualization axis: native points plus virtualised points over a
  guest-backend x host-backend subset (guest MimicOS over a hypervisor
  MimicOS, 2-D translation with a nested TLB, two-level shootdowns —
  including host-swap-pressure points where hypervisor reclaim remaps the
  frames backing guest RAM),

— runs each point with the cache off and on under identical seeds, and
diffs the full statistics report field by field.  A mismatch produces a structured
:class:`DivergenceRecord` (the configuration, the first diverging counter in
sorted order and both values) rather than a bare assert, so a failure names
the exact configuration and statistic to chase.

Three consumers:

* ``tests/test_parity_matrix.py`` — an always-on tier-1 sampler over a
  seeded ~40-point subset of the lattice (kept well under 30 s);
* ``python -m repro.validation.parity --full`` — the full matrix, fanned
  across host processes by the fault-tolerant experiment service
  (:mod:`repro.experiments.service`; ``--store DIR`` makes the run
  resumable and caches every completed point content-addressed);
* ``benchmarks/perf/parity_bench.py`` — records per-backend cache-on vs off
  speedups into ``BENCH_perf.json`` so the perf trajectory covers every
  design, not just radix.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import time
import zlib
from dataclasses import asdict, dataclass, replace
from typing import Dict, List, Optional, Sequence, Tuple

from repro.common.addresses import MB
from repro.common.config import (
    PageTableConfig,
    SystemConfig,
    VirtualizationConfig,
    scaled_system_config,
)
from repro.common.rng import DeterministicRNG
from repro.common.stats import LatencyDistribution
from repro.core.report import SimulationReport
from repro.mmu.extensions import MMUExtensions
from repro.pagetables.factory import nested_capable_kinds, registered_kinds

#: Keys whose values legitimately differ with the VPN cache off and on
#: (host-side timing and fast-path diagnostics), excluded from the diff.
HOST_ONLY_KEYS = ("host_seconds", "fast_path", "kips")

#: Workload families of the lattice: family name -> (registry name, kwargs).
#: Sizes are deliberately small — a parity point must answer in a few
#: hundred milliseconds so the sampled matrix stays inside the tier-1 walk.
#: ``gups`` is the translation-bound class (TLB/walk-heavy over a prefaulted
#: footprint); ``llm`` is the allocation-bound class whose faults drive THP,
#: khugepaged collapse and (under pressure) reclaim — the paths where the
#: stale-translation bugs this harness exists to catch actually live.
WORKLOAD_FAMILIES: Dict[str, Tuple[str, Dict[str, object]]] = {
    "gups": ("RND", {"footprint_bytes": 2 * MB, "memory_operations": 500,
                     "prefault": True, "seed": 3}),
    "llm": ("Bagel", {"scale": 0.04, "seed": 9}),
    # Guest-collapse family (virtualised points): small-arena layout forces
    # 4 KB guest faults, so guest khugepaged collapses the touched 2 MB
    # region *mid-run* and the hot phase then re-touches it — the sequence
    # that turns a missing nested-TLB invalidation into stale 4 KB combined
    # translations shadowed differently with the VPN cache on.
    "guestmix": ("GuestMix", {"footprint_bytes": 4 * MB, "vma_bytes": 256 << 10,
                              "interleave_regions": 2, "mix_per_cold": 2,
                              "hot_operations": 1500, "seed": 7}),
}

#: Multi-process scenario (and its kwargs) used for the cores=2 axis.
MULTICORE_SCENARIO = ("contention_pair",
                      {"footprint_bytes": 2 * MB, "memory_operations": 500,
                       "seed": 3})

#: Guest scenario used by the virtualised multi-core axis.
VIRTUALIZED_MULTICORE_SCENARIO = ("virtualized_guests",
                                  {"count": 2, "footprint_bytes": 2 * MB,
                                   "hot_operations": 400, "seed": 3})


@dataclass(frozen=True)
class ParityPoint:
    """One lattice configuration, compared with the VPN cache off and on.

    ``page_table_kind`` is the native design — or, on virtualised points,
    the *host* (extended/nested) design backing guest RAM, with
    ``guest_kind`` naming the design the guest kernel gives its processes.
    ``swap_pressure`` on a virtualised point squeezes the *hypervisor*, so
    host reclaim remaps the frames backing guest RAM mid-run — the path the
    two-level shootdown wiring exists for.
    """

    page_table_kind: str
    family: str
    cores: int = 1
    thp: bool = True
    swap_pressure: bool = False
    virtualized: bool = False
    guest_kind: str = "radix"

    @property
    def name(self) -> str:
        name = (f"{self.page_table_kind}/{self.family}/c{self.cores}"
                f"/thp={'on' if self.thp else 'off'}"
                f"/swap={'on' if self.swap_pressure else 'off'}")
        if self.virtualized:
            name += f"/virt=guest:{self.guest_kind}"
        return name


@dataclass
class DivergenceRecord:
    """A cache-off vs cache-on mismatch: where it happened and what diverged."""

    point: str
    #: First diverging statistic in sorted field order.
    field: str
    uncached_value: object
    cached_value: object
    #: Total number of diverging fields (the first is usually the cause,
    #: the rest downstream fallout).
    diverging_fields: int

    def __str__(self) -> str:
        return (f"{self.point}: {self.field} diverged "
                f"(uncached={self.uncached_value!r}, cached={self.cached_value!r}; "
                f"{self.diverging_fields} fields total)")


# --------------------------------------------------------------------- #
# Lattice enumeration
# --------------------------------------------------------------------- #
def full_lattice() -> List[ParityPoint]:
    """Every lattice point: kind x family x cores x THP x swap x virt.

    The two-core axis runs the multi-process contention scenario (one
    runnable process per core); swap pressure is exercised on the
    single-core axis, where reclaim ordering is deterministic per point.
    The virtualization axis (see :func:`virtualized_lattice`) adds points
    running the workload inside a guest VM over a guest x host backend
    subset.
    """
    points: List[ParityPoint] = []
    for kind in registered_kinds():
        for family in WORKLOAD_FAMILIES:
            for thp in (True, False):
                for swap_pressure in (False, True):
                    points.append(ParityPoint(kind, family, cores=1, thp=thp,
                                              swap_pressure=swap_pressure))
        for thp in (True, False):
            points.append(ParityPoint(kind, "multicore", cores=2, thp=thp))
    points.extend(virtualized_lattice())
    return points


def virtualized_lattice() -> List[ParityPoint]:
    """The virtualization slice: guest-backend x host-backend subset.

    Only walk-capable designs participate (intermediate-address schemes
    never reach the nested walker).  The subset is two sweeps through the
    radix anchor — guest radix over every capable host design, and every
    capable guest design over a radix host — plus feature-toggle points on
    the radix/radix anchor: guest THP off, *host* swap pressure (hypervisor
    reclaim remaps the frames backing guest RAM mid-run, exercising the
    two-level shootdown), and a two-core guest co-run.
    """
    points: List[ParityPoint] = []
    for kind in nested_capable_kinds():
        points.append(ParityPoint(kind, "gups", virtualized=True, guest_kind="radix"))
        points.append(ParityPoint("radix", "guestmix", virtualized=True,
                                  guest_kind=kind))
    points.append(ParityPoint("radix", "gups", thp=False, virtualized=True))
    points.append(ParityPoint("radix", "llm", swap_pressure=True, virtualized=True))
    points.append(ParityPoint("radix", "guestmix", swap_pressure=True,
                              virtualized=True))
    points.append(ParityPoint("radix", "multicore", cores=2, virtualized=True))
    return points


#: Minimum virtualised points every sampled subset must carry.
MIN_VIRTUALIZED_SAMPLE = 4


def sample_lattice(size: int = 40, seed: int = 2025) -> List[ParityPoint]:
    """A deterministic ``size``-point subset covering every page-table kind.

    The sample is seeded (never Python's salted ``hash``), shuffled, and
    then selected so that each registered design appears at least once and
    at least :data:`MIN_VIRTUALIZED_SAMPLE` virtualised points are included
    before the remainder fills up in shuffled order — the tier-1 sampler
    must never silently drop a backend (or the virtualization axis) from
    coverage, so ``size`` is raised to the coverage floor when asked for
    less.
    """
    points = full_lattice()
    rng = DeterministicRNG(seed)
    rng.shuffle(points)
    selected: List[ParityPoint] = []
    covered_kinds = set()
    virtualized_count = 0
    for point in points:
        if point.page_table_kind not in covered_kinds:
            covered_kinds.add(point.page_table_kind)
            selected.append(point)
            virtualized_count += point.virtualized
    for point in points:
        if virtualized_count >= MIN_VIRTUALIZED_SAMPLE:
            break
        if point.virtualized and point not in selected:
            selected.append(point)
            virtualized_count += 1
    size = max(size, len(selected))
    for point in points:
        if len(selected) >= size:
            break
        if point not in selected:
            selected.append(point)
    return selected[:size]


# --------------------------------------------------------------------- #
# Running one point
# --------------------------------------------------------------------- #
def point_seed(point: ParityPoint) -> int:
    """Deterministic per-point seed, identical for both cache settings."""
    return zlib.crc32(point.name.encode("utf-8")) & 0x7FFFFFFF


def build_config(point: ParityPoint) -> SystemConfig:
    """The (small) system configuration one parity point simulates.

    Swap pressure is created the way the kernel actually meets it: a small
    physical memory with a low reclaim threshold, so kswapd-style swap-outs
    fire during the run instead of requiring a footprint too large for a
    sub-second simulation.  On virtualised points the pressure squeezes the
    *hypervisor* (the system MimicOS config), so host reclaim swaps out the
    frames backing guest RAM — guest-side THP stays controlled through the
    virtualization config.
    """
    config = scaled_system_config(
        name=f"parity-{point.name}",
        physical_memory_bytes=96 * MB if point.swap_pressure else 192 * MB,
        # On virtualised points the host THP policy stays on (guest-RAM
        # backing realistically uses huge frames); the point's THP toggle
        # governs the *guest* kernel instead.
        thp_policy="linux" if (point.thp or point.virtualized) else "never",
        fragmentation_target=1.0)
    config = config.with_page_table(PageTableConfig(kind=point.page_table_kind))
    if point.swap_pressure:
        # Virtualised points lower the threshold further: only the touched
        # guest pages occupy host memory (lazy backing), so the reclaim
        # trip-wire must sit beneath that smaller footprint for hypervisor
        # swap-outs of guest-RAM backing to actually fire.
        config = config.with_mimicos(replace(config.mimicos,
                                             swap_threshold=0.10 if point.virtualized
                                             else 0.30,
                                             swap_size_bytes=32 * MB))
    if point.virtualized:
        config = config.with_virtualization(VirtualizationConfig(
            enabled=True,
            guest_memory_bytes=128 * MB,
            guest_page_table=PageTableConfig(kind=point.guest_kind),
            guest_thp_policy="linux" if point.thp else "never",
            # The nested TLB must out-reach the (scaled-down) TLB hierarchy
            # to serve re-walks after L2-TLB evictions — the role the EPT
            # paging-structure caches play on real cores.  It is also what
            # makes a *stale* nested entry reachable at all, which the
            # nested-invalidation sensitivity test depends on.
            nested_tlb_entries=1024))
    return config


def _run(point: ParityPoint, vpn_cache: bool) -> SimulationReport:
    # Imports live inside the worker entry point (the pool pattern the
    # sweep runner established) so workers are self-reliant.
    from repro.core.virtuoso import Virtuoso
    from repro.workloads.multiproc import build_multiprocess_scenario
    from repro.workloads.registry import build_workload

    config = build_config(point)
    seed = point_seed(point)
    system = Virtuoso(config, seed=seed, num_cores=point.cores,
                      mmu_extensions=MMUExtensions(vpn_translation_cache=vpn_cache))
    if point.cores > 1:
        scenario, kwargs = (VIRTUALIZED_MULTICORE_SCENARIO if point.virtualized
                            else MULTICORE_SCENARIO)
        return system.run_tasks(build_multiprocess_scenario(scenario, **kwargs)).merged
    workload_name, kwargs = WORKLOAD_FAMILIES[point.family]
    return system.run(build_workload(workload_name, **kwargs))


def flatten_stats(report: SimulationReport) -> Dict[str, object]:
    """Every simulated statistic of a report as a flat ``path -> value`` map.

    Host-side values (wall-clock timings, VPN-cache diagnostics) are
    excluded: they differ with the VPN cache off and on by design.
    """
    flat: Dict[str, object] = {}
    top = {field: value for field, value in vars(report).items()
           if field not in ("details", "workload", "config_name") + tuple(HOST_ONLY_KEYS)}
    _flatten_into(flat, top, "report.")
    _flatten_into(flat, report.details, "details.")
    return flat


def _flatten_into(flat: Dict[str, object], node: object, prefix: str) -> None:
    # A module-level function, not a closure: a self-recursive closure is a
    # reference cycle that would pin ``flat`` until the cyclic GC ran.
    if isinstance(node, LatencyDistribution):
        # Compare the distribution sample-exactly, as JSON-able scalars.
        _flatten_into(flat, {"count": node.count, "total": node.total,
                             "samples": list(node.samples)}, prefix)
    elif isinstance(node, dict):
        for key, value in node.items():
            if key in HOST_ONLY_KEYS:
                continue
            _flatten_into(flat, value, f"{prefix}{key}.")
    elif isinstance(node, (list, tuple)):
        for index, value in enumerate(node):
            _flatten_into(flat, value, f"{prefix}{index}.")
    else:
        flat[prefix[:-1]] = node


def stats_sha256(flat: Dict[str, object]) -> str:
    """sha256 of flattened statistics, every path through a host-only key
    dropped: the digest ``perfbench`` and the tests record, comparable
    across commits."""
    host_only = set(HOST_ONLY_KEYS)
    kept = {path: value for path, value in flat.items()
            if host_only.isdisjoint(path.split("."))}
    encoded = json.dumps(kept, sort_keys=True, separators=(",", ":"), default=repr)
    return hashlib.sha256(encoded.encode("utf-8")).hexdigest()


def diff_stats(uncached: Dict[str, object],
               cached: Dict[str, object]) -> List[Tuple[str, object, object]]:
    """Fields whose values differ, in sorted field order."""
    return [(field, uncached.get(field), cached.get(field))
            for field in sorted(set(uncached) | set(cached))
            if uncached.get(field) != cached.get(field)]


def run_parity_point(point: ParityPoint) -> Dict[str, object]:
    """Run one point with the VPN cache off and on and diff; returns a
    picklable digest.  Its ``stats_sha256`` hashes the cached side's
    statistics, so two commits' ``--json`` summaries compare point by
    point."""
    start = time.perf_counter()
    uncached = flatten_stats(_run(point, vpn_cache=False))
    cached = flatten_stats(_run(point, vpn_cache=True))
    diffs = diff_stats(uncached, cached)
    digest: Dict[str, object] = {
        "point": point.name,
        "config": asdict(point),
        "identical": not diffs,
        "fields_compared": len(set(uncached) | set(cached)),
        "stats_sha256": stats_sha256(cached),
        "host_seconds": round(time.perf_counter() - start, 4),
        "divergence": None,
    }
    if diffs:
        field, uncached_value, cached_value = diffs[0]
        digest["divergence"] = asdict(DivergenceRecord(
            point=point.name, field=field, uncached_value=uncached_value,
            cached_value=cached_value, diverging_fields=len(diffs)))
    return digest


def divergence_of(digest: Dict[str, object]) -> Optional[DivergenceRecord]:
    """Rehydrate the digest's divergence record (None when identical)."""
    raw = digest.get("divergence")
    if raw is None:
        return None
    return DivergenceRecord(**raw)


# --------------------------------------------------------------------- #
# Matrix runner
# --------------------------------------------------------------------- #
#: Content-address schema tag for parity jobs in the experiment service's
#: result store (bump when the parity digest layout changes).
PARITY_JOB_SCHEMA = "parity_point/v2"


def parity_job_key(point: ParityPoint) -> str:
    """The content address of a parity point in the result store."""
    from repro.experiments.store import content_key

    return content_key({"schema": PARITY_JOB_SCHEMA, "point": asdict(point)})


def run_matrix(points: Sequence[ParityPoint],
               workers: Optional[int] = None,
               store_root: Optional[str] = None,
               server: Optional[str] = None) -> Dict[str, object]:
    """Run every point through the experiment service and summarise.

    Execution rides the fault-tolerant experiment service
    (:class:`~repro.experiments.service.ExperimentService`): points are
    picklable, each worker builds both systems itself, and results are
    merged in submission order, so the summary is byte-identical for any
    worker count.  With ``store_root`` every completed point lands
    content-addressed in a result store and a killed ``--full`` run
    resumes from its journal, re-running only the missing points.  With
    ``server`` (``host:port``) execution targets a running
    :mod:`repro.experiments.server` instead — same summary, shared store.
    A point whose worker fails every attempt is quarantined: it is left
    out of ``points`` and listed under ``failed_points``.
    """
    from repro.experiments.service import ExperimentService, Job

    if not points:
        raise ValueError("need at least one parity point")
    jobs = [Job(index=index, name=point.name, key=parity_job_key(point),
                item=point)
            for index, point in enumerate(points)]
    start = time.perf_counter()
    if server is not None:
        from repro.experiments.client import RemoteService

        with RemoteService(server, "parity_point",
                           workers=workers) as service:
            outcome = service.execute(run_parity_point, jobs)
    else:
        with ExperimentService(workers=workers, store=store_root) as service:
            outcome = service.execute(run_parity_point, jobs)
    wall_seconds = time.perf_counter() - start
    digests = [d for d in outcome["results"] if d is not None]
    divergences = [d["divergence"] for d in digests if d["divergence"] is not None]
    return {
        "schema": "parity_matrix/v1",
        "points": len(digests),
        "identical": sum(1 for d in digests if d["identical"]),
        "divergences": divergences,
        "failed_points": outcome["failed_points"],
        "wall_seconds": round(wall_seconds, 4),
        "service": outcome["counters"],
        "results": digests,
    }


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.validation.parity",
        description="Differential VPN-cache off-vs-on parity across the page-table zoo")
    parser.add_argument("--full", action="store_true",
                        help="run the full lattice (default: the tier-1 sample)")
    parser.add_argument("--virtualized", action="store_true",
                        help="run only the virtualization slice of the lattice "
                             "(guest x host backend subset, two-level shootdowns)")
    parser.add_argument("--sample", type=int, default=40, metavar="N",
                        help="sample size when not running --full (default 40; "
                             "raised to the registered-design count so every "
                             "backend stays covered)")
    parser.add_argument("--seed", type=int, default=2025,
                        help="sample selection seed (default 2025)")
    parser.add_argument("--workers", type=int, default=None,
                        help="host worker processes (default: all cores)")
    parser.add_argument("--store", type=str, default=None, metavar="DIR",
                        help="experiment-service result store: completed "
                             "points are cached content-addressed and a "
                             "killed run resumes from its journal")
    parser.add_argument("--server", type=str, default=None,
                        metavar="HOST:PORT",
                        help="target a running experiment server instead of "
                             "the in-process service")
    parser.add_argument("--json", type=str, default=None, metavar="PATH",
                        help="write the full summary as JSON to PATH")
    parser.add_argument("--repro", type=str, default=None, metavar="FILE",
                        help="replay one banked fuzz-corpus reproducer with a "
                             "verbose field-by-field diff and exit")
    args = parser.parse_args(argv)

    if args.repro:
        # Shares the fuzzer's oracle/replay path (the exact code the shrinker
        # verified the entry with), so a repro never drifts from the fuzzer.
        from repro.validation import corpus
        from repro.validation.fuzz import format_replay, replay_entry

        entry = corpus.load_entry(args.repro)
        digest = replay_entry(entry)
        print(format_replay(entry, digest))
        if args.json:
            with open(args.json, "w") as handle:
                json.dump(digest, handle, indent=2)
                handle.write("\n")
        return 0 if digest["outcome"] == "identical" else 1

    if args.virtualized:
        points = virtualized_lattice()
        scope = "virtualized slice"
    elif args.full:
        points = full_lattice()
        scope = "full lattice"
    else:
        points = sample_lattice(args.sample, args.seed)
        scope = f"sample of {len(points)}"
    summary = run_matrix(points, workers=args.workers, store_root=args.store,
                         server=args.server)
    if args.json:
        with open(args.json, "w") as handle:
            json.dump(summary, handle, indent=2)
            handle.write("\n")
    service = summary["service"]
    cached = (f", {service['cache_hits']} cached" if service["cache_hits"]
              else "")
    print(f"parity matrix: {summary['identical']}/{summary['points']} points "
          f"identical in {summary['wall_seconds']:.1f}s ({scope}{cached})")
    for raw in summary["divergences"]:
        print(f"  DIVERGENCE {DivergenceRecord(**raw)}")
    for entry in summary["failed_points"]:
        print(f"  QUARANTINED {entry['name']} after {entry['attempts']} "
              f"attempts ({entry['reason']})")
    return 1 if summary["divergences"] or summary["failed_points"] else 0


if __name__ == "__main__":
    raise SystemExit(main())
