"""Fault-tolerant experiment service: durable, cached, supervised sweeps.

A one-shot sweep loses every already-computed point when a single worker
hangs or dies.  This module is the durable service shared by every
host-parallel path in the repo (sweeps, the parity lattice, the fuzzer,
the perf benches):

* every job is **content-addressed** (:func:`repro.experiments.store
  .content_key` over the point configuration + base seed), journaled to
  an append-only JSONL work log, and its completed digest lands in a
  :class:`~repro.experiments.store.ResultStore` — so re-running any
  sweep, figure or parity slice reuses every already-computed point and
  a killed host resumes from the journal and finishes with a digest
  byte-identical to a straight-line run;
* execution is **supervised** by the job runner
  (:mod:`repro.experiments.runner`, shared with the server): each job
  attempt runs in its own worker process under a per-job wall-clock
  timeout and a heartbeat lease, with bounded retries, exponential
  backoff and straggler detection; a worker crash (``os._exit``), hang
  (timeout-killed), silence (lease-reclaimed) or transient exception
  costs one attempt, never the sweep;
* degraded modes are graceful: a job that exhausts its retries is
  **quarantined** — its name, reason and traceback are recorded under
  ``failed_points`` in the digest while every other point completes;
* determinism is preserved: job identity (and therefore the per-point
  crc32 seed) never depends on scheduling, results are merged in
  submission order, and the ``simulated_sha256`` fingerprint of a
  faulted, resumed, or cache-served run equals the fault-free
  ``workers=1`` run exactly.

Two execution modes, chosen from the inputs:

========== =====================================================
inline     at most one worker slot is usable (``min(workers,
           cache misses) <= 1``) and neither a timeout nor a fault
           plan is set: jobs run in this process, one after the
           other, with per-job store/journal commits (the
           kill-and-resume baseline).
supervised everything else: one supervised worker process per job
           attempt, at most ``workers`` at a time.
========== =====================================================

CLI::

    python -m repro.experiments.service run --demo 8 --store DIR [--workers N]
    python -m repro.experiments.service status --store DIR
    python -m repro.experiments.service kill-resume-smoke [--store DIR]

The ``kill-resume-smoke`` subcommand is the CI resilience gate: it
starts a sweep in a child process group, SIGKILLs it mid-flight, resumes
from the same store and asserts the final digest is byte-identical to a
straight-line run.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import multiprocessing.connection
import os
import signal
import subprocess
import sys
import tempfile
import time
from collections import defaultdict
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Callable, Dict, Iterator, List, Optional, Sequence, Set

from repro.common.addresses import MB
from repro.experiments.faultinject import FaultPlan
from repro.experiments.runner import JOB_DONE, JobRunner, Task, new_counters
from repro.experiments.store import (
    Journal,
    ResultStore,
    active_journal_keys,
    atomic_write_json,
    content_key,
)
from repro.experiments.sweep import (
    SweepPoint,
    merge_point_digests,
    run_point,  # noqa: F401  (re-exported for service clients)
    simulated_fingerprint,
    validate_points,
)

#: Tick of the supervisor's timeout, lease and straggler checks while
#: worker processes run; a worker's exit wakes it at once.
POLL_SECONDS = 0.005

#: Content-address schema tag for sweep jobs (bump on digest layout change).
SWEEP_JOB_SCHEMA = "sweep_point/v1"


@dataclass
class Job:
    """One unit of work: a picklable payload with a durable identity."""

    index: int
    name: str
    key: str
    item: object


class ExperimentService:
    """Durable, supervised executor for content-addressed job grids.

    Durable means a ``store`` was given: the journal then lives at
    ``store/journal.jsonl`` and attempt scratch files under
    ``store/scratch``.
    """

    def __init__(self, workers: Optional[int] = None,
                 store: Optional[object] = None,
                 timeout: Optional[float] = None,
                 retries: int = 2,
                 backoff: float = 0.25,
                 fault_plan: Optional[FaultPlan] = None,
                 fsync: bool = True) -> None:
        self.workers = max(1, workers if workers is not None
                           else (os.cpu_count() or 1))
        if store is not None and not isinstance(store, ResultStore):
            store = ResultStore(store)
        self.store = store
        self.journal = (Journal(store.journal_path, fsync=fsync)
                        if store is not None else None)
        self.timeout = timeout
        self.retries = retries
        self.backoff = backoff
        self.fault_plan = fault_plan

    # ----------------------------------------------------------------- #
    # Execution
    # ----------------------------------------------------------------- #
    def execute(self, worker: Callable[[object], Dict[str, object]],
                jobs: Sequence[Job]) -> Dict[str, object]:
        """Run every job (cache-first) and return ordered results.

        ``worker`` must be a module-level callable (it crosses process
        boundaries) returning a JSON-serialisable digest.  The outcome
        carries ``results`` in submission order (``None`` for quarantined
        jobs), ``failed_points``, service counters and per-job details.
        """
        counters: Dict[str, object] = {
            "jobs": len(jobs), "mode": None,
            "cache_hits": 0, "cache_misses": 0, **new_counters(),
            "resumed_interrupted": 0, "journal_corrupt_lines": 0,
            "store_corrupt_objects": 0,
        }
        self._replay_for_resume(jobs, counters)
        tasks = [Task(job.key, job.name, job.item) for job in jobs]
        misses: List[Task] = []
        for task in tasks:
            hit = self.store.get(task.key) if self.store is not None else None
            if hit is None:
                misses.append(task)
            else:
                task.status, task.digest = JOB_DONE, hit["digest"]
        counters["cache_hits"] = len(tasks) - len(misses)
        counters["cache_misses"] = len(misses)
        supervised = (min(self.workers, len(misses)) > 1
                      or self.timeout is not None
                      or self.fault_plan is not None)
        counters["mode"] = "supervised" if supervised else "inline"
        self._journal({"event": "run_started", "jobs": len(jobs),
                       "mode": counters["mode"], "workers": self.workers})
        for task in tasks:
            if task.status == JOB_DONE:
                self._journal({"event": "cache_hit", "key": task.key,
                               "name": task.name})

        with self._scratch(supervised and bool(misses)) as scratch:
            runner = JobRunner(worker, self.workers, scratch, counters,
                               store=self.store, journal=self.journal,
                               timeout=self.timeout, retries=self.retries,
                               backoff=self.backoff,
                               fault_plan=self.fault_plan)
            for task in misses:
                if scratch is None:
                    runner.run_inline(task)
                else:
                    runner.submit(task)
            while runner.busy:
                runner.step(time.monotonic())
                if runner.busy:
                    multiprocessing.connection.wait(runner.sentinels,
                                                    POLL_SECONDS)

        results: List[Optional[Dict[str, object]]] = [None] * len(jobs)
        details: Dict[str, Dict[str, object]] = {}
        for job, task in zip(jobs, tasks):
            results[job.index] = task.digest
            details[job.name] = {"attempts": task.attempt,
                                 "cache_hit": task.attempt == 0,
                                 "backoff_schedule": list(task.backoff_schedule),
                                 "straggler": task.straggler}
        failed = [task.failure for task in tasks if task.failure is not None]
        if self.store is not None:
            counters["store_corrupt_objects"] = self.store.corrupt_objects
        total = len(jobs)
        counters["cache_hit_rate"] = (round(counters["cache_hits"] / total, 4)
                                      if total else 0.0)
        self._journal({"event": "run_completed",
                       "completed": sum(1 for r in results if r is not None),
                       "quarantined": counters["quarantined"]})
        return {"results": results, "failed_points": failed,
                "counters": counters, "job_details": details}

    @contextlib.contextmanager
    def _scratch(self, needed: bool) -> Iterator[Optional[Path]]:
        """Attempt scratch space: the store's, or a temp dir removed after."""
        if not needed:
            yield None
        elif self.store is not None:
            yield self.store.root / "scratch"
        else:
            with tempfile.TemporaryDirectory(prefix="repro-service-") as temp:
                yield Path(temp)

    # ----------------------------------------------------------------- #
    # Durability plumbing
    # ----------------------------------------------------------------- #
    def _journal(self, record: Dict[str, object]) -> None:
        if self.journal is not None:
            self.journal.append(record)

    def _replay_for_resume(self, jobs: Sequence[Job],
                           counters: Dict[str, object]) -> None:
        """Recover the work log: count prior progress and interrupted jobs."""
        if self.journal is None:
            return
        records, corrupt = self.journal.replay()
        counters["journal_corrupt_lines"] = corrupt
        keys = _keys_by_event(records)
        interrupted = keys["attempt_started"] - keys["job_completed"] \
            - keys["job_quarantined"]
        counters["resumed_interrupted"] = len(
            interrupted & {job.key for job in jobs})

    def close(self) -> None:
        if self.journal is not None:
            self.journal.close()

    def __enter__(self) -> "ExperimentService":
        return self

    def __exit__(self, *_exc) -> None:
        self.close()


# --------------------------------------------------------------------- #
# Sweep-grid integration
# --------------------------------------------------------------------- #
def sweep_job_key(point: SweepPoint, base_seed: int = 0) -> str:
    """The content address of a sweep point: config hash + base seed."""
    return content_key({"schema": SWEEP_JOB_SCHEMA, "point": asdict(point),
                        "base_seed": base_seed})


def sweep_jobs(points: Sequence[SweepPoint],
               base_seed: int = 0) -> List[Job]:
    return [Job(index=index, name=point.name,
                key=sweep_job_key(point, base_seed),
                item=(point, base_seed))
            for index, point in enumerate(points)]


def run_resilient_sweep(points: Sequence[SweepPoint],
                        store_root: Optional[os.PathLike] = None,
                        workers: Optional[int] = None,
                        base_seed: int = 0,
                        timeout: Optional[float] = None,
                        retries: int = 2,
                        backoff: float = 0.25,
                        fault_plan: Optional[FaultPlan] = None,
                        fsync: bool = True,
                        server: Optional[str] = None) -> Dict[str, object]:
    """:func:`~repro.experiments.sweep.run_sweep` on a durable service.

    With ``store_root`` the sweep journals to ``store_root/journal.jsonl``
    and caches every completed point content-addressed under
    ``store_root/objects`` — killing the host mid-sweep and calling this
    again finishes the grid and yields the same ``simulated_sha256``.

    With ``server`` (``host:port``) the sweep targets a running
    :mod:`repro.experiments.server` instead: the server owns the store,
    leases and retries, and this process is a thin protocol client.  The
    two paths produce byte-identical ``simulated_sha256`` digests.
    """
    from repro.experiments.sweep import run_sweep

    # Fail fast with errors that name the problem — a silently clamped
    # worker count or a half-built store root costs a debugging session.
    if not points:
        raise ValueError("run_resilient_sweep needs a non-empty point list "
                         "(got 0 sweep points)")
    if workers is not None and workers <= 0:
        raise ValueError(f"workers must be a positive integer, got {workers}")
    if store_root is not None and Path(store_root).is_file():
        raise ValueError(f"store root {os.fspath(store_root)!r} is an "
                         f"existing file, not a directory")
    if server is not None:
        from repro.experiments.client import RemoteService

        with RemoteService(server, "sweep_point", workers=workers) as service:
            return run_sweep(points, workers=workers, base_seed=base_seed,
                             service=service)
    with ExperimentService(workers=workers, store=store_root,
                           timeout=timeout, retries=retries, backoff=backoff,
                           fault_plan=fault_plan, fsync=fsync) as service:
        return run_sweep(points, workers=workers, base_seed=base_seed,
                         service=service)


def demo_grid(count: int = 8, memory_operations: int = 8000) -> List[SweepPoint]:
    """A small self-contained grid for smokes and CLI demos."""
    return [SweepPoint(name=f"demo-{index}", workload="RND",
                       workload_kwargs={"footprint_bytes": 4 * MB,
                                        "memory_operations": memory_operations,
                                        "prefault": True, "seed": index})
            for index in range(count)]


# --------------------------------------------------------------------- #
# CLI
# --------------------------------------------------------------------- #
def _load_points(path: str) -> List[SweepPoint]:
    with open(path, "r", encoding="utf-8") as handle:
        raw = json.load(handle)
    return [SweepPoint(**entry) for entry in raw]


def _cmd_run(args: argparse.Namespace) -> int:
    points = (_load_points(args.points) if args.points
              else demo_grid(args.demo, memory_operations=args.demo_ops))
    fault_plan = None
    if args.fault_plan:
        with open(args.fault_plan, "r", encoding="utf-8") as handle:
            fault_plan = FaultPlan.from_json(handle.read())
    digest = run_resilient_sweep(points, store_root=args.store,
                                 workers=args.workers,
                                 base_seed=args.base_seed,
                                 timeout=args.timeout, retries=args.retries,
                                 backoff=args.backoff, fault_plan=fault_plan,
                                 server=args.server)
    if args.json:
        atomic_write_json(args.json, digest)
    service = digest["service"]
    print(f"service run: {len(digest['points'])}/{service['jobs']} points "
          f"({service['cache_hits']} cached, {service['executed']} executed, "
          f"{service['quarantined']} quarantined) in "
          f"{digest['wall_seconds']:.2f}s [{service['mode']}]")
    print(f"  retries={service['retries']} crashes={service['crashes']} "
          f"timeouts={service['timeouts']} "
          f"transient={service['transient_failures']} "
          f"cache_hit_rate={service['cache_hit_rate']:.0%}")
    print(f"  simulated_sha256={digest['simulated_sha256']}")
    for entry in digest["failed_points"]:
        print(f"  QUARANTINED {entry['name']} after {entry['attempts']} "
              f"attempts ({entry['reason']})")
    return 1 if digest["failed_points"] else 0


def _keys_by_event(records: Sequence[Dict[str, object]]
                   ) -> Dict[str, Set[str]]:
    """The job keys each journal event was recorded for."""
    keys: Dict[str, Set[str]] = defaultdict(set)
    for record in records:
        if record.get("key") is not None:
            keys[str(record.get("event"))].add(str(record["key"]))
    return keys


def journal_progress(records: Sequence[Dict[str, object]]) -> Dict[str, int]:
    """Per-key lifecycle rollup of a journal: where every job stands.

    ``in_flight`` is every key that was submitted or started but never
    reached a terminal event (completed / quarantined / cancelled) —
    after a crash these are exactly the jobs a resume will re-run.
    """
    keys = _keys_by_event(records)
    terminal = (keys["job_completed"] | keys["job_quarantined"]
                | keys["job_cancelled"])
    seen = keys["job_submitted"] | keys["attempt_started"]
    return {
        "keys": len(seen | terminal | keys["cache_hit"]),
        "completed": len(keys["job_completed"]),
        "quarantined": len(keys["job_quarantined"]),
        "cancelled": len(keys["job_cancelled"]),
        "cache_hits": len(keys["cache_hit"]),
        "in_flight": len(seen - terminal),
    }


def _cmd_status(args: argparse.Namespace) -> int:
    store = ResultStore(args.store)
    journal = Journal(store.journal_path)
    records, corrupt = journal.replay()
    events: Dict[str, int] = {}
    for record in records:
        event = str(record.get("event"))
        events[event] = events.get(event, 0) + 1
    stats = store.stats()
    progress = journal_progress(records)
    print(f"store {store.root}: {stats['stored_objects']} result objects "
          f"({stats['stored_bytes']} bytes, "
          f"{stats['quarantined_objects']} quarantined .corrupt)")
    print(f"journal: {len(records)} records ({corrupt} corrupt lines)")
    print(f"jobs: {progress['keys']} known | {progress['completed']} "
          f"completed, {progress['quarantined']} quarantined, "
          f"{progress['cancelled']} cancelled, {progress['in_flight']} "
          f"in flight")
    for event in sorted(events):
        print(f"  {event}: {events[event]}")
    return 1 if progress["quarantined"] else 0


def _cmd_gc(args: argparse.Namespace) -> int:
    store = ResultStore(args.store)
    protect = active_journal_keys(store.journal_path)
    report = store.gc(args.budget_bytes, dry_run=args.dry_run,
                      protect=protect)
    verb = "would evict" if args.dry_run else "evicted"
    print(f"gc {store.root}: {report['bytes_before']} -> "
          f"{report['bytes_after']} bytes (budget {report['budget_bytes']}), "
          f"{verb} {len(report['evicted'])} object(s) "
          f"[{report['evicted_bytes']} bytes], "
          f"{len(report['protected_skipped'])} protected by the active "
          f"journal segment")
    if report["over_budget"]:
        print("  still over budget: every remaining object is protected")
    return 0


def count_completed(journal_path: Path) -> int:
    """``job_completed`` records in a journal, across all its segments."""
    if not journal_path.exists():
        return 0
    journal = Journal(journal_path)
    records, _ = journal.replay()
    return sum(1 for r in records if r.get("event") == "job_completed")


def src_env() -> Dict[str, str]:
    """This environment with this source tree first on ``PYTHONPATH``."""
    src_root = Path(__file__).resolve().parents[2]
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(src_root)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    return env


def _cmd_kill_resume_smoke(args: argparse.Namespace) -> int:
    """Start a sweep, SIGKILL it mid-flight, resume, assert digest identity."""
    from repro.experiments.sweep import run_sweep

    points = demo_grid(args.points, memory_operations=args.demo_ops)
    baseline = run_sweep(points, workers=1)
    want = baseline["simulated_sha256"]
    env = src_env()

    for round_index in range(1, args.rounds + 1):
        store_root = Path(args.store) if args.store else Path(
            tempfile.mkdtemp(prefix="repro-kill-resume-"))
        if args.store and round_index > 1:
            store_root = Path(tempfile.mkdtemp(prefix="repro-kill-resume-"))
        command = [sys.executable, "-m", "repro.experiments.service", "run",
                   "--demo", str(args.points), "--demo-ops", str(args.demo_ops),
                   "--store", str(store_root), "--workers", "1"]
        child = subprocess.Popen(command, env=env, start_new_session=True,
                                 stdout=subprocess.DEVNULL,
                                 stderr=subprocess.DEVNULL)
        journal_path = store_root / "journal.jsonl"
        deadline = time.monotonic() + 120.0
        completed = 0
        while child.poll() is None and time.monotonic() < deadline:
            completed = count_completed(journal_path)
            if 1 <= completed < len(points):
                break
            time.sleep(0.003)
        killed = False
        if child.poll() is None and 1 <= completed < len(points):
            os.killpg(child.pid, signal.SIGKILL)
            killed = True
        child.wait()
        if not killed:
            print(f"round {round_index}: sweep finished before the kill "
                  f"window; retrying with a fresh store")
            continue

        resumed = run_resilient_sweep(points, store_root=store_root,
                                      workers=args.workers)
        service = resumed["service"]
        identical = resumed["simulated_sha256"] == want
        reused = service["cache_hits"]
        print(f"kill-resume smoke: killed after {completed}/{len(points)} "
              f"points, resume reused {reused} cached point(s), "
              f"journal_corrupt_lines={service['journal_corrupt_lines']}")
        print(f"  straight-line sha {want}")
        print(f"  resumed       sha {resumed['simulated_sha256']} "
              f"({'identical' if identical else 'DIVERGED'})")
        if not identical:
            return 1
        if reused < completed:
            print(f"  ERROR: resume reused {reused} < {completed} journaled "
                  f"completions")
            return 1
        return 0
    print("kill-resume smoke: never caught the sweep mid-flight "
          f"after {args.rounds} rounds")
    return 1


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.experiments.service",
        description="Durable, fault-tolerant experiment service")
    sub = parser.add_subparsers(dest="command", required=True)

    run_parser = sub.add_parser("run", help="run a sweep grid on the service")
    run_parser.add_argument("--points", type=str, default=None,
                            help="JSON file with a list of SweepPoint objects")
    run_parser.add_argument("--demo", type=int, default=8, metavar="N",
                            help="use the built-in N-point demo grid "
                                 "(default when --points is absent)")
    run_parser.add_argument("--demo-ops", type=int, default=8000,
                            help="memory operations per demo point")
    run_parser.add_argument("--store", type=str, default=None,
                            help="result-store root (enables journal + cache)")
    run_parser.add_argument("--workers", type=int, default=None)
    run_parser.add_argument("--timeout", type=float, default=None,
                            help="per-job wall-clock timeout in seconds")
    run_parser.add_argument("--retries", type=int, default=2)
    run_parser.add_argument("--backoff", type=float, default=0.25,
                            help="base retry backoff (doubles per attempt)")
    run_parser.add_argument("--base-seed", type=int, default=0)
    run_parser.add_argument("--fault-plan", type=str, default=None,
                            help="JSON FaultPlan to inject (testing)")
    run_parser.add_argument("--json", type=str, default=None,
                            help="write the full sweep digest to PATH")
    run_parser.add_argument("--server", type=str, default=None,
                            help="host:port of a running experiment server "
                                 "(replaces the in-process service)")
    run_parser.set_defaults(func=_cmd_run)

    status_parser = sub.add_parser("status", help="inspect a service store")
    status_parser.add_argument("--store", type=str, required=True)
    status_parser.set_defaults(func=_cmd_status)

    gc_parser = sub.add_parser("gc", help="evict LRU store objects to a "
                                          "size budget")
    gc_parser.add_argument("--store", type=str, required=True)
    gc_parser.add_argument("--budget-bytes", type=int, required=True)
    gc_parser.add_argument("--dry-run", action="store_true",
                           help="report the eviction set without unlinking")
    gc_parser.set_defaults(func=_cmd_gc)

    smoke = sub.add_parser("kill-resume-smoke",
                           help="SIGKILL a sweep mid-flight, resume, compare")
    smoke.add_argument("--store", type=str, default=None)
    smoke.add_argument("--points", type=int, default=8)
    smoke.add_argument("--demo-ops", type=int, default=8000)
    smoke.add_argument("--workers", type=int, default=None)
    smoke.add_argument("--rounds", type=int, default=3,
                       help="attempts to catch the sweep mid-flight")
    smoke.set_defaults(func=_cmd_kill_resume_smoke)

    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    raise SystemExit(main())
