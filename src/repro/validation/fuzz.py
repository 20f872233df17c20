"""Coverage-guided kernel-op scenario fuzzer, checked against the live page table.

A fixed lattice only visits hand-picked points.  This module generalises
the parity lattice the way riescue generalises directed page-map testing:
a *seeded* generator emits random kernel-op interleavings — mmap/munmap at
varied sizes, THP collapse, forced swap pressure, page migration, and
(under virtualization) guest collapse and host remaps of guest-RAM
backing — as :class:`~repro.workloads.schedule.OpSchedule` injections into
workload execution over sampled backend × cores × THP/swap/virtualization
configurations.  Each scenario is simulated once, with
:func:`repro.validation.invariants.check_translations` run after every
kernel op and every page fault, so a stale translation is reported at the
op or fault right after the mutation that left it.

* **Coverage** is tracked over (consecutive op-pair × backend) and
  (op × config-axis) combinations; each scenario is chosen as the most
  novel of a seeded candidate pool, so the fuzzer provably explores the
  interaction space the lattice misses.
* **Violations and crashes** are classified; any violation is shrunk by
  delta-debugging — first over the op schedule, then over config axes —
  to a minimal reproducer, serialised as JSON and banked into
  ``tests/fuzz_corpus/`` (:mod:`repro.validation.corpus`), which tier-1
  replays on every run.
* **Execution** fans over the PR 6 experiment service: journaled,
  content-addressed (``--store`` makes a SIGKILLed run resumable), with
  hard worker deaths quarantined.

CLI::

    python -m repro.validation.fuzz --budget N --seed S --workers K
    python -m repro.validation.fuzz --replay-corpus

Everything here is deterministic by construction: same seed + budget ⇒ the
same scenarios, the same coverage stats and the same set of shrunk
reproducers, regardless of worker count.
"""

from __future__ import annotations

import argparse
import json
import time
import zlib
from dataclasses import asdict, dataclass, replace
from pathlib import Path
from types import MethodType
from typing import Callable, Dict, List, Optional, Sequence, Set, Tuple

from repro.common.addresses import MB, PAGE_SIZE_4K
from repro.common.config import (
    PageTableConfig,
    SystemConfig,
    VirtualizationConfig,
    scaled_system_config,
)
from repro.common.rng import DeterministicRNG
from repro.common.weak import WeakCallback
from repro.pagetables.factory import nested_capable_kinds, registered_kinds
from repro.validation import corpus
from repro.validation.invariants import (
    TranslationIncoherence,
    check_after_faults,
    check_translations,
)
from repro.validation.parity import WORKLOAD_FAMILIES
from repro.workloads.schedule import KernelOpSpec, OpSchedule, ScheduledWorkload

#: Content-address schema for fuzz jobs in the experiment-service store
#: (bump when the scenario or digest layout changes incompatibly).
FUZZ_JOB_SCHEMA = "fuzz_scenario/v2"

#: The kernel ops the generator draws from.  ``migrate`` is single-core
#: only (multi-core migration is the orchestrator's own axis) and
#: ``host_remap`` needs a hypervisor; inapplicable ops are deterministic
#: no-ops counted as skipped, so a shrunk schedule stays valid across
#: config-axis shrinking.
OP_KINDS = ("mmap", "touch", "munmap", "remap", "collapse", "reclaim",
            "migrate", "host_remap")

#: Ops that mutate existing translations — every generated schedule carries
#: at least one, otherwise it cannot catch staleness bugs.
MUTATOR_OPS = ("munmap", "remap", "collapse", "reclaim", "migrate", "host_remap")

#: Workload families (registry name, kwargs, approximate instruction count):
#: the parity lattice's translation-bound GUPS, allocation/fault-bound LLM
#: and collapse-prone small-arena mix.
FUZZ_FAMILIES: Dict[str, Tuple[str, Dict[str, object], int]] = {
    "gups": (*WORKLOAD_FAMILIES["gups"], 1400),
    "llm": (*WORKLOAD_FAMILIES["llm"], 2500),
    "mix": (*WORKLOAD_FAMILIES["guestmix"], 8000),
}

#: Co-runner of the cores=2 axis (the scheduled workload rides core 0).
CO_RUNNER = ("RND", {"footprint_bytes": 2 * MB, "memory_operations": 300,
                     "prefault": True, "seed": 104})


# --------------------------------------------------------------------- #
# Scenario model
# --------------------------------------------------------------------- #
@dataclass(frozen=True)
class FuzzConfig:
    """One sampled configuration point (the fuzzer's analogue of ParityPoint)."""

    backend: str = "radix"
    family: str = "gups"
    cores: int = 1
    thp: bool = True
    swap: bool = False
    virtualized: bool = False
    guest_kind: str = "radix"

    def axis_items(self) -> List[Tuple[str, str]]:
        """The config axes as (axis, value) pairs, for op × axis coverage."""
        items = [("backend", self.backend), ("family", self.family),
                 ("cores", str(self.cores)),
                 ("thp", "on" if self.thp else "off"),
                 ("swap", "on" if self.swap else "off"),
                 ("virt", "on" if self.virtualized else "off")]
        if self.virtualized:
            items.append(("guest", self.guest_kind))
        return items

    def to_json(self) -> Dict[str, object]:
        return asdict(self)

    @classmethod
    def from_json(cls, raw: Dict[str, object]) -> "FuzzConfig":
        return cls(**raw)


@dataclass(frozen=True)
class FuzzScenario:
    """A config point plus the kernel-op schedule injected into its run."""

    config: FuzzConfig
    schedule: OpSchedule

    def to_json(self) -> Dict[str, object]:
        return {"config": self.config.to_json(), "ops": self.schedule.to_json()}

    @classmethod
    def from_json(cls, raw: Dict[str, object]) -> "FuzzScenario":
        return cls(config=FuzzConfig.from_json(raw["config"]),
                   schedule=OpSchedule.from_json(list(raw["ops"])))

    @property
    def name(self) -> str:
        ops = "+".join(spec.op for spec in self.schedule.sorted_ops())
        c = self.config
        name = f"{c.backend}/{c.family}/c{c.cores}"
        if c.virtualized:
            name += f"/virt:{c.guest_kind}"
        return f"{name}/[{ops}]"


def scenario_key(scenario: FuzzScenario) -> str:
    """Content address of a scenario in the experiment-service store."""
    from repro.experiments.store import content_key

    return content_key({"schema": FUZZ_JOB_SCHEMA, "scenario": scenario.to_json()})


def scenario_seed(scenario: FuzzScenario) -> int:
    """Deterministic simulator seed.

    Derived from the *config* only, so shrinking the op schedule never
    perturbs the workload's RNG stream — the shrinker removes ops from an
    otherwise byte-identical run.
    """
    from repro.experiments.store import canonical_json

    raw = canonical_json(scenario.config.to_json())
    return zlib.crc32(raw.encode("utf-8")) & 0x7FFFFFFF


# --------------------------------------------------------------------- #
# System construction
# --------------------------------------------------------------------- #
def build_fuzz_config(config: FuzzConfig) -> SystemConfig:
    """The system one fuzz scenario simulates (parity-sized, sub-second).

    Unlike the parity lattice, *every* fuzz system gets host swap capacity
    (and virtualised guests a small guest swap): the forced-reclaim and
    host-remap kernel ops must be actionable regardless of the ``swap``
    pressure axis, which only controls the kswapd watermark.
    """
    system = scaled_system_config(
        name=f"fuzz-{config.backend}-{config.family}",
        physical_memory_bytes=96 * MB if config.swap else 192 * MB,
        thp_policy="linux" if (config.thp or config.virtualized) else "never",
        fragmentation_target=1.0)
    system = system.with_page_table(PageTableConfig(kind=config.backend))
    mimicos = replace(system.mimicos, swap_size_bytes=32 * MB)
    if config.swap:
        mimicos = replace(mimicos,
                          swap_threshold=0.10 if config.virtualized else 0.30)
    system = system.with_mimicos(mimicos)
    if config.virtualized:
        system = system.with_virtualization(VirtualizationConfig(
            enabled=True,
            guest_memory_bytes=128 * MB,
            guest_page_table=PageTableConfig(kind=config.guest_kind),
            guest_thp_policy="linux" if config.thp else "never",
            guest_swap_size_bytes=16 * MB,
            nested_tlb_entries=1024))
    return system


class KernelOpExecutor:
    """Applies :class:`KernelOpSpec` against a live system, deterministically.

    Every op is total: when its preconditions do not hold (no arena VMA yet,
    no hypervisor, multi-core migrate) it is a counted no-op, never an
    error — so the shrinker can drop arbitrary subsets and the config
    shrink can turn virtualization off without invalidating the schedule.
    ``check`` runs after every op.
    """

    def __init__(self, kernel, fault_handler: Callable, clock: Callable[[], int],
                 check: Callable[[], object], hypervisor=None,
                 migrate: Optional[Callable[[], None]] = None):
        self.kernel = kernel
        self.fault_handler = fault_handler
        self.clock = clock
        self.hypervisor = hypervisor
        self.migrate = migrate
        self.check = check
        self.arena: List[object] = []
        self.counts: Dict[str, int] = {}

    @classmethod
    def for_system(cls, system) -> "KernelOpExecutor":
        """Build an executor over a :class:`~repro.core.virtuoso.Virtuoso`
        that checks the system's translations after every op.

        The closures hold the system's parts, and the check holds the
        system weakly: the executor lives as long as the workload it is
        bound to, which the system's task lists keep alive.
        """
        fault_handler = (system.vm.handle_guest_page_fault if system.vm is not None
                         else system.kernel.handle_page_fault)
        cores = [unit.core for unit in system.cores]
        clock = lambda: int(max(core.cycles for core in cores))
        migrate = None
        if system.num_cores == 1:
            mmu = system.mmu
            migrate = lambda: mmu.migrate_in(mmu.pid, mmu.page_table)
        return cls(system.kernel, fault_handler, clock,
                   WeakCallback(MethodType(check_translations, system)),
                   hypervisor=system.hypervisor, migrate=migrate)

    def _count(self, spec: KernelOpSpec, applied: bool) -> bool:
        bucket = "applied" if applied else "skipped"
        key = f"{spec.op}.{bucket}"
        self.counts[key] = self.counts.get(key, 0) + 1
        return applied

    def apply(self, spec: KernelOpSpec, process) -> bool:
        handler = getattr(self, f"_op_{spec.op}", None)
        if handler is None:
            raise ValueError(f"unknown kernel op {spec.op!r}")
        applied = self._count(spec, handler(spec.params, process))
        self.check()
        return applied

    # -- individual ops ------------------------------------------------ #
    def _op_mmap(self, params: Dict[str, int], process) -> bool:
        pages = max(1, params.get("pages", 8))
        vma = self.kernel.mmap(process, pages * PAGE_SIZE_4K,
                               name=f"fuzz-arena-{len(self.arena)}")
        self.arena.append(vma)
        return True

    def _op_munmap(self, params: Dict[str, int], process) -> bool:
        if not self.arena:
            return False
        vma = self.arena.pop(params.get("slot", 0) % len(self.arena))
        self.kernel.munmap(process, vma)
        return True

    def _op_remap(self, params: Dict[str, int], process) -> bool:
        """munmap immediately followed by MAP_FIXED mmap of the same range —
        the classic VA-reuse staleness hazard the bump allocator never hits."""
        if not self.arena:
            return False
        index = params.get("slot", 0) % len(self.arena)
        vma = self.arena[index]
        start, size = vma.start, vma.size
        self.kernel.munmap(process, vma)
        self.arena[index] = self.kernel.mmap(process, size, fixed_address=start,
                                             name=f"fuzz-remap-{index}")
        return True

    def _op_touch(self, params: Dict[str, int], process) -> bool:
        """Fault in pages of an arena VMA (material for collapse/reclaim)."""
        if not self.arena:
            return False
        vma = self.arena[params.get("slot", 0) % len(self.arena)]
        stride = max(1, params.get("stride", 1)) * PAGE_SIZE_4K
        now = self.clock()
        address = vma.start
        touched = 0
        for _ in range(max(1, params.get("pages", 8))):
            if address >= vma.end:
                break
            if process.page_table.lookup(address) is None:
                self.fault_handler(process.pid, address, now)
            address += stride
            touched += 1
        return touched > 0

    def _op_collapse(self, params: Dict[str, int], process) -> bool:
        result = self.kernel.run_khugepaged(
            max_regions=max(1, params.get("regions", 4)))
        return result.regions_scanned > 0

    def _op_reclaim(self, params: Dict[str, int], process) -> bool:
        return self.kernel.reclaim_cold_pages(max(1, params.get("pages", 8)),
                                              self.clock()) > 0

    def _op_migrate(self, params: Dict[str, int], process) -> bool:
        if self.migrate is None:
            return False
        self.migrate()
        return True

    def _op_host_remap(self, params: Dict[str, int], process) -> bool:
        """Hypervisor-side forced reclaim: swap out frames backing guest RAM,
        driving the two-level (host shootdown → nested invalidation) path."""
        if self.hypervisor is None:
            return False
        return self.hypervisor.reclaim_cold_pages(
            max(1, params.get("pages", 4)), self.clock()) > 0


# --------------------------------------------------------------------- #
# Running one scenario
# --------------------------------------------------------------------- #
def _run_scenario(scenario: FuzzScenario) -> Dict[str, int]:
    """Simulate ``scenario``, checking translations after every op and
    every fault; returns the applied/skipped op counts."""
    # Imports inside the worker entry point, as the service pattern demands.
    from repro.core.virtuoso import Virtuoso
    from repro.workloads.registry import build_workload

    system = Virtuoso(build_fuzz_config(scenario.config), seed=scenario_seed(scenario),
                      num_cores=scenario.config.cores)
    check_after_faults(system)
    registry_name, kwargs, _span = FUZZ_FAMILIES[scenario.config.family]
    wrapped = ScheduledWorkload(build_workload(registry_name, **kwargs),
                                scenario.schedule)
    executor = KernelOpExecutor.for_system(system)
    wrapped.bind(executor)
    if scenario.config.cores > 1:
        co_name, co_kwargs = CO_RUNNER
        system.run_tasks([wrapped, build_workload(co_name, **co_kwargs)])
    else:
        system.run(wrapped)
    check_translations(system)
    return dict(sorted(executor.counts.items()))


def _crash_signature(error: Exception) -> Dict[str, object]:
    return {"type": type(error).__name__, "message": str(error)[:300]}


def run_fuzz_scenario(raw_scenario: Dict[str, object]) -> Dict[str, object]:
    """Run one scenario and classify it: the fuzz oracle.

    Takes and returns plain JSON-able dicts so it can serve directly as an
    experiment-service worker.  Outcomes:

    * ``clean`` — the run finished and every translation check passed;
    * ``violation`` — a check found a stale translation (``violation``
      names the core, structure, address, cached and live translation);
    * ``crash`` — the simulation raised (a real bug, classified, never
      banked).
    """
    scenario = FuzzScenario.from_json(raw_scenario)
    start = time.perf_counter()
    digest: Dict[str, object] = {
        "scenario": scenario.to_json(),
        "point": scenario.name,
        "outcome": "clean",
        "violation": None,
        "crash": None,
        "kernel_ops": {},
        "host_seconds": 0.0,
    }
    try:
        digest["kernel_ops"] = _run_scenario(scenario)
    except TranslationIncoherence as violation:
        digest["outcome"] = "violation"
        digest["violation"] = dict(violation.as_dict(), point=scenario.name)
    except Exception as error:  # crash/assert: caught and classified
        digest["outcome"] = "crash"
        digest["crash"] = _crash_signature(error)
    digest["host_seconds"] = round(time.perf_counter() - start, 4)
    return digest


# --------------------------------------------------------------------- #
# Coverage
# --------------------------------------------------------------------- #
class CoverageMap:
    """Explored (op-pair × backend) and (op × config-axis) combinations."""

    def __init__(self) -> None:
        self.pair_backend: Set[Tuple[str, str, str]] = set()
        self.op_axis: Set[Tuple[str, str, str]] = set()

    @staticmethod
    def _combos(scenario: FuzzScenario
                ) -> Tuple[Set[Tuple[str, str, str]], Set[Tuple[str, str, str]]]:
        ops = [spec.op for spec in scenario.schedule.sorted_ops()]
        backend = scenario.config.backend
        pairs = {(ops[i], ops[i + 1], backend) for i in range(len(ops) - 1)}
        axes = {(op, axis, value) for op in set(ops)
                for axis, value in scenario.config.axis_items()}
        return pairs, axes

    def novelty(self, scenario: FuzzScenario) -> int:
        """How many new combinations this scenario would explore."""
        pairs, axes = self._combos(scenario)
        return len(pairs - self.pair_backend) + len(axes - self.op_axis)

    def observe(self, scenario: FuzzScenario) -> None:
        pairs, axes = self._combos(scenario)
        self.pair_backend |= pairs
        self.op_axis |= axes

    def stats(self) -> Dict[str, int]:
        backends = len(registered_kinds())
        return {
            "op_pair_backend": len(self.pair_backend),
            "op_pair_backend_space": len(OP_KINDS) ** 2 * backends,
            "op_axis": len(self.op_axis),
        }


# --------------------------------------------------------------------- #
# Seeded scenario generation
# --------------------------------------------------------------------- #
#: Candidate pool per emitted scenario: the most coverage-novel candidate
#: wins, which is what makes the random walk *coverage-guided*.
CANDIDATE_POOL = 4

_OP_WEIGHTS = {"mmap": 1.5, "touch": 3.0, "munmap": 1.0, "remap": 1.5,
               "collapse": 2.5, "reclaim": 2.5, "migrate": 1.0,
               "host_remap": 2.0}


def _generate_config(rng: DeterministicRNG) -> FuzzConfig:
    backends = registered_kinds()
    nested = nested_capable_kinds()
    backend = rng.choice(backends)
    family = rng.choice(tuple(FUZZ_FAMILIES))
    cores = 2 if rng.random() < 0.25 else 1
    virtualized = backend in nested and rng.random() < 0.30
    return FuzzConfig(
        backend=backend, family=family, cores=cores,
        thp=rng.random() < 0.70, swap=rng.random() < 0.35,
        virtualized=virtualized,
        guest_kind=rng.choice(nested) if virtualized else "radix")


def _generate_op(rng: DeterministicRNG, kind: str, offset: int) -> KernelOpSpec:
    if kind == "mmap":
        params = {"pages": rng.randint(1, 512)}
    elif kind == "touch":
        params = {"slot": rng.randint(0, 7), "pages": rng.randint(1, 64),
                  "stride": rng.choice((1, 1, 2, 4))}
    elif kind in ("munmap", "remap"):
        params = {"slot": rng.randint(0, 7)}
    elif kind == "collapse":
        params = {"regions": rng.randint(1, 8)}
    elif kind == "reclaim":
        params = {"pages": rng.randint(1, 32)}
    elif kind == "host_remap":
        params = {"pages": rng.randint(1, 16)}
    else:  # migrate
        params = {}
    return KernelOpSpec(op=kind, offset=offset, params=params)


def _generate_scenario(rng: DeterministicRNG, max_ops: int) -> FuzzScenario:
    config = _generate_config(rng)
    span = FUZZ_FAMILIES[config.family][2]
    count = rng.randint(2, max_ops)
    kinds = ["mmap"]  # an early arena mapping gives later ops something to chew
    weights = [_OP_WEIGHTS[op] for op in OP_KINDS]
    kinds += rng.choices(OP_KINDS, weights=weights, k=count - 1)
    if not any(kind in MUTATOR_OPS for kind in kinds):
        kinds[-1] = rng.choice(MUTATOR_OPS)
    offsets = sorted(rng.randint(0, span) for _ in kinds)
    ops = tuple(_generate_op(rng, kind, offset)
                for kind, offset in zip(kinds, offsets))
    return FuzzScenario(config=config, schedule=OpSchedule(ops=ops))


def generate_scenarios(budget: int, seed: int, max_ops: int = 8
                       ) -> List[Tuple[FuzzScenario, List[object]]]:
    """The seeded, coverage-guided scenario stream: ``budget`` scenarios.

    Each emitted scenario is the most coverage-novel of a
    :data:`CANDIDATE_POOL`-sized candidate set (ties resolved to the
    earliest candidate — fully deterministic).  Returns each scenario with
    the generator RNG snapshot taken at its schedule start, so a banked
    reproducer records the exact cursor that produced it.
    """
    rng = DeterministicRNG(seed)
    coverage = CoverageMap()
    seen: Set[str] = set()
    out: List[Tuple[FuzzScenario, List[object]]] = []
    rejects = 0
    while len(out) < budget:
        cursor = rng.snapshot()
        candidates = [_generate_scenario(rng, max_ops)
                      for _ in range(CANDIDATE_POOL)]
        best = max(candidates, key=coverage.novelty)  # max() keeps first tie
        key = scenario_key(best)
        # Duplicates are regenerated, but only up to a bound — a tiny op
        # space with a huge budget must terminate, not spin.
        if key in seen and rejects < 10 * budget:
            rejects += 1
            continue
        seen.add(key)
        coverage.observe(best)
        out.append((best, cursor))
    return out


# --------------------------------------------------------------------- #
# Shrinking (delta debugging)
# --------------------------------------------------------------------- #
def _with_ops(scenario: FuzzScenario, ops: Sequence[KernelOpSpec]) -> FuzzScenario:
    return FuzzScenario(config=scenario.config, schedule=OpSchedule(ops=tuple(ops)))


#: Config-axis simplifications tried in order, each toward the vanilla
#: single-core native radix point.
_AXIS_SHRINKS: List[Callable[[FuzzConfig], FuzzConfig]] = [
    lambda c: replace(c, swap=False),
    lambda c: replace(c, cores=1),
    lambda c: replace(c, virtualized=False, guest_kind="radix"),
    lambda c: replace(c, guest_kind="radix"),
    lambda c: replace(c, thp=True),
    lambda c: replace(c, backend="radix"),
    lambda c: replace(c, family="gups"),
]


def shrink_scenario(scenario: FuzzScenario,
                    fails: Optional[Callable[[FuzzScenario], bool]] = None,
                    max_checks: int = 60) -> Tuple[FuzzScenario, int]:
    """Delta-debug ``scenario`` to a minimal reproducer that still fails.

    First greedily drops ops to a fixpoint, then simplifies config axes
    toward the vanilla point; every candidate is verified with the same
    oracle the replay path uses.  ``max_checks`` bounds the oracle
    invocations (each is one simulation).  Returns the shrunk scenario and
    the number of oracle calls spent.
    """
    if fails is None:
        fails = lambda s: run_fuzz_scenario(s.to_json())["outcome"] == "violation"
    checks = 0

    def check(candidate: FuzzScenario) -> bool:
        nonlocal checks
        if checks >= max_checks:
            return False
        checks += 1
        return fails(candidate)

    ops = list(scenario.schedule.ops)
    changed = True
    while changed and len(ops) > 1 and checks < max_checks:
        changed = False
        for index in range(len(ops) - 1, -1, -1):
            candidate = _with_ops(scenario, ops[:index] + ops[index + 1:])
            if check(candidate):
                ops.pop(index)
                scenario = candidate
                changed = True
    for mutate in _AXIS_SHRINKS:
        simplified = mutate(scenario.config)
        if simplified == scenario.config:
            continue
        candidate = FuzzScenario(config=simplified, schedule=scenario.schedule)
        if check(candidate):
            scenario = candidate
    return scenario, checks


# --------------------------------------------------------------------- #
# The fuzz campaign
# --------------------------------------------------------------------- #
def run_fuzz(budget: int, seed: int, workers: Optional[int] = None,
             max_ops: int = 8, store_root: Optional[str] = None,
             corpus_dir: Optional[Path] = None, bank: bool = True,
             shrink: bool = True,
             server: Optional[str] = None) -> Dict[str, object]:
    """Run a ``budget``-scenario fuzz campaign; returns the summary dict.

    Scenario execution fans over the experiment service (worker processes,
    journaled, quarantine on hard worker death); with ``store_root`` every
    completed scenario is content-addressed, so a SIGKILLed campaign re-run
    with the same arguments resumes from cache.  With ``server``
    (``host:port``) scenarios execute on a running
    :mod:`repro.experiments.server` — same summary, shared warm store.
    Shrinking runs in-process (it is a sequential refinement loop), and
    surviving reproducers are banked into the corpus.  Everything except
    wall-clock/service counters is a pure function of
    ``(seed, budget, max_ops)``.
    """
    from repro.experiments.service import ExperimentService, Job

    start = time.perf_counter()
    generated = generate_scenarios(budget, seed, max_ops)
    coverage = CoverageMap()
    for scenario, _cursor in generated:
        coverage.observe(scenario)
    jobs = [Job(index=index, name=scenario.name, key=scenario_key(scenario),
                item=scenario.to_json())
            for index, (scenario, _cursor) in enumerate(generated)]
    if server is not None:
        from repro.experiments.client import RemoteService

        with RemoteService(server, "fuzz_scenario",
                           workers=workers) as service:
            outcome = service.execute(run_fuzz_scenario, jobs)
    else:
        with ExperimentService(workers=workers, store=store_root) as service:
            outcome = service.execute(run_fuzz_scenario, jobs)

    failing: List[Tuple[int, Dict[str, object]]] = []
    crashes: List[Dict[str, object]] = []
    quarantined = 0
    clean = 0
    for index, digest in enumerate(outcome["results"]):
        if digest is None:  # worker died hard; the service quarantined it
            quarantined += 1
            continue
        if digest["outcome"] == "clean":
            clean += 1
        elif digest["outcome"] == "crash":
            crashes.append({"scenario_index": index, "point": digest["point"],
                            "crash": digest["crash"]})
        else:
            failing.append((index, digest))

    reproducers: List[str] = []
    shrink_checks = 0
    for index, digest in failing:
        scenario = FuzzScenario.from_json(digest["scenario"])
        shrunk = scenario
        if shrink:
            shrunk, checks = shrink_scenario(scenario)
            shrink_checks += checks
        entry = {
            "schema": corpus.CORPUS_SCHEMA,
            "found": {"fuzz_seed": seed, "budget": budget,
                      "scenario_index": index, "point": digest["point"]},
            "scenario": shrunk.to_json(),
            "rng_state": generated[index][1],
            "violation": (run_fuzz_scenario(shrunk.to_json())["violation"]
                          if shrink else digest["violation"]),
        }
        if bank:
            path = corpus.save_entry(entry, corpus_dir)
            reproducers.append(path.name)
        else:
            reproducers.append(corpus.entry_name(entry) + ".json")

    return {
        "schema": "fuzz_run/v1",
        "seed": seed,
        "budget": budget,
        "max_ops": max_ops,
        "scenarios": len(jobs),
        "clean": clean,
        "violations": [digest["violation"] for _i, digest in failing],
        "crashes": crashes,
        "quarantined": quarantined,
        "coverage": coverage.stats(),
        "reproducers": sorted(reproducers),
        "shrink_checks": shrink_checks,
        "service": outcome["counters"],
        "wall_seconds": round(time.perf_counter() - start, 4),
    }


# --------------------------------------------------------------------- #
# Replay (shared by tier-1 corpus replay, parity --repro, the shrinker)
# --------------------------------------------------------------------- #
def replay_entry(entry: Dict[str, object]) -> Dict[str, object]:
    """Replay a banked reproducer through the same oracle that found it."""
    return run_fuzz_scenario(dict(entry["scenario"]))


def format_replay(entry: Dict[str, object], digest: Dict[str, object]) -> str:
    """Human-readable replay verdict (``parity --repro``)."""
    scenario = FuzzScenario.from_json(entry["scenario"])
    lines = [f"reproducer: {scenario.name}",
             f"config:     {json.dumps(scenario.config.to_json(), sort_keys=True)}"]
    for spec in scenario.schedule.sorted_ops():
        lines.append(f"  op @{spec.offset:>6}: {spec.op} "
                     f"{json.dumps(spec.params, sort_keys=True)}")
    lines.append(f"verdict:    {digest['outcome'].upper()}")
    if digest["outcome"] == "violation":
        lines.append(f"  {digest['violation']['message']}")
    elif digest["outcome"] == "crash":
        lines.append(f"  crashed: {digest['crash']}")
    return "\n".join(lines)


def replay_corpus(corpus_dir: Optional[Path] = None,
                  verbose: bool = False) -> Dict[str, object]:
    """Replay every banked reproducer; the tier-1 regression sweep.  An
    entry passes when it runs without a crash and every check stays clean."""
    entries, skipped = corpus.load_corpus(corpus_dir)
    failures: List[Dict[str, object]] = []
    for path, entry in entries:
        digest = replay_entry(entry)
        if verbose:
            print(f"--- {path.name}")
            print(format_replay(entry, digest))
        if digest["outcome"] != "clean":
            failures.append({"entry": path.name,
                             "outcome": digest["outcome"],
                             "violation": digest["violation"],
                             "crash": digest["crash"]})
    return {"entries": len(entries), "skipped": skipped, "failures": failures}


# --------------------------------------------------------------------- #
# Harness-sensitivity toggles (self-test that the oracle still has teeth)
# --------------------------------------------------------------------- #
def apply_sensitivity_toggle(name: str) -> Callable[[], None]:
    """Deliberately break one invalidation path process-wide; returns undo.

    The same known-bug toggles the parity sensitivity tests use:
    ``shootdown`` unhooks kernel TLB shootdowns from the MMU, ``nested``
    no-ops the INVEPT-style nested invalidations.  For fuzzer self-tests
    only — the toggle corrupts every system built until undone.
    """
    from repro.mimicos.kernel import MimicOS
    from repro.mmu.mmu import MMU

    if name == "shootdown":
        original = MimicOS.register_tlb_listener
        MimicOS.register_tlb_listener = lambda self, listener: None

        def undo() -> None:
            MimicOS.register_tlb_listener = original
    elif name == "nested":
        original = MMU.invalidate_nested_translations
        MMU.invalidate_nested_translations = lambda self: None

        def undo() -> None:
            MMU.invalidate_nested_translations = original
    else:
        raise ValueError(f"unknown sensitivity toggle {name!r}")
    return undo


# --------------------------------------------------------------------- #
# CLI
# --------------------------------------------------------------------- #
def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.validation.fuzz",
        description="Coverage-guided kernel-op scenario fuzzer "
                    "(translations checked after every op and fault)")
    parser.add_argument("--budget", type=int, default=40, metavar="N",
                        help="scenarios to run (default 40)")
    parser.add_argument("--seed", type=int, default=2025,
                        help="campaign seed (default 2025)")
    parser.add_argument("--workers", type=int, default=None,
                        help="host worker processes (default: all cores)")
    parser.add_argument("--max-ops", type=int, default=8,
                        help="max kernel ops per schedule (default 8)")
    parser.add_argument("--store", type=str, default=None, metavar="DIR",
                        help="experiment-service result store (makes a "
                             "SIGKILLed campaign resumable)")
    parser.add_argument("--server", type=str, default=None,
                        metavar="HOST:PORT",
                        help="target a running experiment server instead of "
                             "the in-process service")
    parser.add_argument("--corpus", type=str, default=None, metavar="DIR",
                        help="corpus directory (default tests/fuzz_corpus)")
    parser.add_argument("--no-bank", action="store_true",
                        help="do not write shrunk reproducers to the corpus")
    parser.add_argument("--no-shrink", action="store_true",
                        help="bank raw violating scenarios without shrinking")
    parser.add_argument("--replay-corpus", action="store_true",
                        help="replay every banked reproducer and exit")
    parser.add_argument("--break", dest="break_toggle", type=str, default=None,
                        choices=("shootdown", "nested"), metavar="TOGGLE",
                        help="deliberately disable an invalidation path "
                             "(sensitivity self-test; implies --no-bank "
                             "unless --corpus is given)")
    parser.add_argument("--json", type=str, default=None, metavar="PATH",
                        help="write the run summary as JSON to PATH")
    args = parser.parse_args(argv)
    corpus_dir = Path(args.corpus) if args.corpus else None

    if args.replay_corpus:
        summary = replay_corpus(corpus_dir, verbose=True)
        print(f"corpus replay: {summary['entries']} entries, "
              f"{summary['skipped']} skipped, "
              f"{len(summary['failures'])} failing")
        return 1 if summary["failures"] else 0

    undo = None
    if args.break_toggle:
        undo = apply_sensitivity_toggle(args.break_toggle)
        if args.corpus is None:
            args.no_bank = True  # never bank known-broken-build reproducers
    try:
        summary = run_fuzz(budget=args.budget, seed=args.seed,
                           workers=args.workers, max_ops=args.max_ops,
                           store_root=args.store, corpus_dir=corpus_dir,
                           bank=not args.no_bank, shrink=not args.no_shrink,
                           server=args.server)
    finally:
        if undo is not None:
            undo()
    if args.json:
        from repro.experiments.store import atomic_write_json

        atomic_write_json(args.json, summary)
    coverage = summary["coverage"]
    print(f"fuzz: {summary['clean']}/{summary['scenarios']} clean, "
          f"{len(summary['violations'])} violating, "
          f"{len(summary['crashes'])} crashing, "
          f"{summary['quarantined']} quarantined "
          f"in {summary['wall_seconds']:.1f}s "
          f"(coverage: {coverage['op_pair_backend']} op-pair×backend, "
          f"{coverage['op_axis']} op×axis)")
    label = "reproducer (not banked)" if args.no_bank else "banked"
    for name in summary["reproducers"]:
        print(f"  {label} {name}")
    for violation in summary["violations"]:
        print(f"  VIOLATION {violation['point']}: {violation['message']}")
    return 1 if summary["violations"] or summary["quarantined"] else 0


if __name__ == "__main__":
    raise SystemExit(main())
