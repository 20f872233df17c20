"""Parity lattice: every design x workload x toggle, checked two ways.

This module enumerates a configuration lattice —

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

— and simulates each point once, checked two ways:

* **coherence** — :func:`repro.validation.invariants.check_translations`
  runs after every page fault and at the end of the point, so a stale
  translation is reported (core, structure, address, cached vs live) at
  the first fault after the mutation that left it behind;
* **regression** — the point's ``stats_sha256`` must equal its entry in
  the checked-in record ``tests/parity_record.json``.  After a deliberate
  change of simulated behaviour, rebuild the record from a full run::

      PYTHONPATH=src python -m repro.validation.parity --full --json full.json
      PYTHONPATH=src python -c "from repro.validation.parity import \\
          write_record; write_record('full.json')"

Three consumers:

* ``tests/test_parity_matrix.py`` — an always-on tier-1 sampler over a
  seeded ~40-point subset of the lattice;
* ``python -m repro.validation.parity --full`` — the full matrix, fanned
  across host processes by the fault-tolerant experiment service
  (:mod:`repro.experiments.service`; ``--store DIR`` makes the run
  resumable and caches every completed point content-addressed);
* ``python -m repro.validation.parity --repro FILE`` — replays one banked
  fuzz-corpus reproducer.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import time
import zlib
from dataclasses import asdict, dataclass, replace
from pathlib import Path
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
from repro.pagetables.factory import nested_capable_kinds, registered_kinds
from repro.validation.invariants import (
    TranslationIncoherence,
    check_after_faults,
    check_translations,
)

#: Host-side report keys (wall-clock timing), excluded from the digest.
HOST_ONLY_KEYS = ("host_seconds", "kips")

#: The checked-in per-point record (point name -> ``stats_sha256``), kept
#: with the fuzz corpus, the other regression record tier-1 replays.
RECORD_PATH = Path(__file__).resolve().parents[3] / "tests" / "parity_record.json"

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
    # that turns a missing nested-TLB invalidation into stale combined
    # translations.
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
    """One lattice configuration.

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
    """Deterministic per-point seed."""
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


def _run(point: ParityPoint) -> SimulationReport:
    """Simulate ``point``, checking translations after every page fault
    and at the end; raises :class:`TranslationIncoherence` on a stale one."""
    # Imports live inside the worker entry point (the pool pattern the
    # sweep runner established) so workers are self-reliant.
    from repro.core.virtuoso import Virtuoso
    from repro.workloads.multiproc import build_multiprocess_scenario
    from repro.workloads.registry import build_workload

    config = build_config(point)
    seed = point_seed(point)
    system = Virtuoso(config, seed=seed, num_cores=point.cores)
    check_after_faults(system)
    if point.cores > 1:
        scenario, kwargs = (VIRTUALIZED_MULTICORE_SCENARIO if point.virtualized
                            else MULTICORE_SCENARIO)
        report = system.run_tasks(build_multiprocess_scenario(scenario, **kwargs)).merged
    else:
        workload_name, kwargs = WORKLOAD_FAMILIES[point.family]
        report = system.run(build_workload(workload_name, **kwargs))
    check_translations(system)
    return report


def flatten_stats(report: SimulationReport) -> Dict[str, object]:
    """Every simulated statistic of a report as a flat ``path -> value`` map.

    Host-side values (wall-clock timings) are excluded: they differ from
    run to run.
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


def run_parity_point(point: ParityPoint) -> Dict[str, object]:
    """Simulate one point; returns a picklable digest.

    ``stats_sha256`` hashes the point's statistics (None when the
    translation check tripped, which ``violation`` then describes).
    """
    start = time.perf_counter()
    digest: Dict[str, object] = {
        "point": point.name,
        "config": asdict(point),
        "fields": 0,
        "stats_sha256": None,
        "violation": None,
        "host_seconds": 0.0,
    }
    try:
        flat = flatten_stats(_run(point))
    except TranslationIncoherence as violation:
        digest["violation"] = dict(violation.as_dict(), point=point.name)
    else:
        digest["fields"] = len(flat)
        digest["stats_sha256"] = stats_sha256(flat)
    digest["host_seconds"] = round(time.perf_counter() - start, 4)
    return digest


def load_record(path: Path = RECORD_PATH) -> Dict[str, str]:
    """The checked-in record: point name -> ``stats_sha256``."""
    return json.loads(Path(path).read_text())["points"]


def write_record(summary_path: str, path: Path = RECORD_PATH) -> None:
    """Rebuild the record from a ``--full --json`` summary."""
    results = json.loads(Path(summary_path).read_text())["results"]
    points = {digest["point"]: digest["stats_sha256"] for digest in results}
    Path(path).write_text(json.dumps({"schema": "parity_record/v1", "points": points},
                                     indent=1, sort_keys=True) + "\n")


def record_mismatch(digest: Dict[str, object],
                    record: Dict[str, str]) -> Optional[Dict[str, object]]:
    """How a clean digest differs from the record (None if it matches)."""
    recorded = record.get(digest["point"])
    if digest["violation"] is not None or digest["stats_sha256"] == recorded:
        return None
    return {"point": digest["point"], "recorded": recorded,
            "measured": digest["stats_sha256"]}


# --------------------------------------------------------------------- #
# Matrix runner
# --------------------------------------------------------------------- #
#: Content-address schema tag for parity jobs in the experiment service's
#: result store (bump when the parity digest layout changes).
PARITY_JOB_SCHEMA = "parity_point/v3"


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
    picklable, each worker builds its system itself, and results are
    merged in submission order, so the summary is byte-identical for any
    worker count.  With ``store_root`` every completed point lands
    content-addressed in a result store and a killed ``--full`` run
    resumes from its journal, re-running only the missing points.  With
    ``server`` (``host:port``) execution targets a running
    :mod:`repro.experiments.server` instead — same summary, shared store.
    A point whose worker fails every attempt is quarantined: it is left
    out of ``points`` and listed under ``failed_points``.  Every clean
    point's digest is compared with the checked-in record here, so a
    cached result is judged against the record in force.
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
    record = load_record()
    mismatches = [m for m in (record_mismatch(d, record) for d in digests)
                  if m is not None]
    violations = [d["violation"] for d in digests if d["violation"] is not None]
    return {
        "schema": "parity_matrix/v2",
        "points": len(digests),
        "matching": len(digests) - len(mismatches) - len(violations),
        "mismatches": mismatches,
        "violations": violations,
        "failed_points": outcome["failed_points"],
        "wall_seconds": round(wall_seconds, 4),
        "service": outcome["counters"],
        "results": digests,
    }


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.validation.parity",
        description="Simulate the page-table zoo's configuration lattice, checking "
                    "translations and the per-point record")
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
                        help="replay one banked fuzz-corpus reproducer and exit")
    args = parser.parse_args(argv)

    if args.repro:
        # Shares the fuzzer's replay path (the exact code the shrinker
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
        return 0 if digest["outcome"] == "clean" else 1

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
    print(f"parity matrix: {summary['matching']}/{summary['points']} points "
          f"clean and matching the record in {summary['wall_seconds']:.1f}s "
          f"({scope}{cached})")
    for mismatch in summary["mismatches"]:
        print(f"  MISMATCH {mismatch['point']}: recorded {mismatch['recorded']}, "
              f"measured {mismatch['measured']}")
    for violation in summary["violations"]:
        print(f"  VIOLATION {violation['point']}: {violation['message']}")
    for entry in summary["failed_points"]:
        print(f"  QUARANTINED {entry['name']} after {entry['attempts']} "
              f"attempts ({entry['reason']})")
    return 1 if (summary["mismatches"] or summary["violations"]
                 or summary["failed_points"]) else 0


if __name__ == "__main__":
    raise SystemExit(main())
