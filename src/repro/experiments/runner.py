"""The job runner: one worker entry, one supervisor, one retry policy.

The only code in ``repro`` that forks a job.  The in-process service
drives a :class:`JobRunner` from a synchronous loop, the server from an
asyncio loop.  The runner launches up to ``workers`` attempts, reaps each
on exit, timeout or a heartbeat silent past the lease, flags stragglers
and removes every attempt's scratch files.  A result is stored before its
``job_completed`` journal record; a failed attempt is journaled, then
retried after an exponential backoff or quarantined.

Both loops wait on the running attempts' process sentinels, so a worker
is reaped, and the next task launched, as soon as it exits; their tick
only drives the timeout, lease and straggler checks and retry backoff.

Before it forks an attempt the runner imports the task's ``modules`` in
this process, so the fork and every later one inherit them instead of
each importing them again before its job starts.  The server names there
the modules its job kind imports (``repro.workloads`` for a sweep point),
so they load at the first fork of that kind, not at start-up, and never
for a kind the server does not run.  The runner's own imports stay to the
standard library, ``faultinject`` and ``store``.
"""

from __future__ import annotations

import bisect
import importlib
import json
import multiprocessing
import os
import signal
import threading
import time
import traceback
from collections import deque
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Deque, Dict, List, Optional, Tuple

from repro.experiments.faultinject import (
    FaultPlan,
    NetworkFaultPlan,
    TransientFault,
)
from repro.experiments.store import Journal, ResultStore

#: A worker whose heartbeat is silent for this long is presumed dead.
DEFAULT_LEASE_SECONDS = 2.0
#: Worker heartbeat period (must be well under the lease).
DEFAULT_HEARTBEAT_INTERVAL = 0.2
#: Ceiling of the exponential retry backoff.
BACKOFF_CAP_SECONDS = 8.0
#: A running attempt this many times slower than the median completed one
#: (and past the absolute floor) is flagged as a straggler.
STRAGGLER_FACTOR = 4.0
STRAGGLER_FLOOR_SECONDS = 0.25

#: Job states; the server reports them on the wire.
JOB_QUEUED, JOB_LEASED, JOB_DONE, JOB_FAILED = (
    "queued", "leased", "done", "failed")

#: Why an attempt failed -> the counter it increments.  A worker that
#: exits without a result file is a ``crash`` whatever its exit code.
FAILURE_COUNTERS = {"crash": "crashes", "timeout": "timeouts",
                    "transient": "transient_failures", "error": "errors",
                    "lease_reclaim": "lease_reclaims"}


def new_counters() -> Dict[str, int]:
    """The supervision counters every front end reports, all zero."""
    return dict.fromkeys(("executed", "retries", *FAILURE_COUNTERS.values(),
                          "quarantined", "stragglers"), 0)


@dataclass(eq=False)
class Task:
    """One job as the runner sees it: identity, payload and retry state."""

    key: str
    name: str
    #: The argument the job function is called with in the worker.
    item: object = None
    #: Modules the job imports, loaded before its first fork (see module doc).
    modules: Tuple[str, ...] = ()
    status: str = JOB_QUEUED
    #: Number of the latest attempt (0 before the first launch).
    attempt: int = 0
    eligible_at: float = 0.0
    backoff_schedule: List[float] = field(default_factory=list)
    straggler: bool = False
    reclaims: int = 0
    digest: Optional[Dict[str, object]] = None
    failure: Optional[Dict[str, object]] = None

    def store_meta(self) -> Dict[str, object]:
        """Metadata stored beside the digest in the result store."""
        return {"name": self.name}


def _heartbeat(path: str, interval: float, stop: threading.Event) -> None:
    while not stop.wait(interval):
        try:
            os.utime(path, None)
        except OSError:
            pass


def _attempt_entry(fn: Callable[[object], Dict[str, object]], item: object,
                   name: str, attempt: int,
                   fault_plan: Optional[FaultPlan],
                   net_plan: Optional[NetworkFaultPlan],
                   heartbeat_path: str, result_path: str,
                   heartbeat_interval: float,
                   listen_fd: Optional[int]) -> None:
    """Worker-process entry: heartbeat while running one job attempt.

    The heartbeat thread keeps beating while the job holds the GIL (the
    interpreter's switch interval lets it run); a ``drop_heartbeat``
    fault suppresses it and stalls the work, a silent owner the
    supervisor must reclaim.  The outcome file is written atomically, so
    the supervisor never reads a torn result and an abrupt death leaves
    no file at all.
    """
    # The fork inherited the parent's signal plumbing: an asyncio server's
    # wakeup fd is its self-pipe, so a kill aimed at this worker would
    # write into it and trigger a spurious drain.  Detach it and restore
    # the default dispositions so signals aimed at the worker stay here.
    try:
        signal.set_wakeup_fd(-1)
        signal.signal(signal.SIGTERM, signal.SIG_DFL)
        signal.signal(signal.SIGINT, signal.SIG_DFL)
    except (ValueError, OSError):
        pass
    if listen_fd is not None:
        # A worker outliving a SIGKILLed server would otherwise keep the
        # inherited listening port bound and block the restart's bind.
        try:
            os.close(listen_fd)
        except OSError:
            pass
    stop = threading.Event()
    silence = (net_plan.heartbeat_drop(name, attempt)
               if net_plan is not None else None)
    if silence is None:
        threading.Thread(target=_heartbeat,
                         args=(heartbeat_path, heartbeat_interval, stop),
                         daemon=True).start()
    try:
        if silence is not None:
            time.sleep(silence.stall_seconds)
        if fault_plan is not None:
            fault_plan.apply(name, attempt)
        outcome: Dict[str, object] = {"status": "ok", "digest": fn(item)}
    except TransientFault:
        outcome = {"status": "transient", "traceback": traceback.format_exc()}
    except BaseException:  # noqa: BLE001 - every worker failure is reported
        outcome = {"status": "error", "traceback": traceback.format_exc()}
    finally:
        stop.set()
    tmp = f"{result_path}.{os.getpid()}.tmp"
    with open(tmp, "w", encoding="utf-8") as handle:
        json.dump(outcome, handle)
    os.replace(tmp, result_path)


@dataclass(eq=False)
class _Attempt:
    task: Task
    process: multiprocessing.Process
    heartbeat_path: Path
    result_path: Path
    started: float

    def kill(self) -> None:
        self.process.terminate()
        self.process.join(0.5)
        if self.process.is_alive():
            self.process.kill()
            self.process.join()

    def discard_files(self) -> None:
        """Unlink the heartbeat, the result and a killed writer's temp file."""
        for path in (self.heartbeat_path, self.result_path,
                     Path(f"{self.result_path}.{self.process.pid}.tmp")):
            path.unlink(missing_ok=True)


class JobRunner:
    """Runs :class:`Task`\\ s in supervised worker processes.

    ``fn`` is a module-level callable returning a JSON-serialisable
    digest.  The caller :meth:`submit`\\ s tasks and calls :meth:`step`
    while :attr:`busy`.  ``store`` and ``journal`` are optional; the
    ``counters`` dict (see :func:`new_counters`) is updated in place.
    """

    def __init__(self, fn: Callable[[object], Dict[str, object]],
                 workers: int, scratch: Optional[Path],
                 counters: Dict[str, int],
                 store: Optional[ResultStore] = None,
                 journal: Optional[Journal] = None,
                 timeout: Optional[float] = None,
                 retries: int = 2,
                 backoff: float = 0.25,
                 fault_plan: Optional[FaultPlan] = None,
                 net_plan: Optional[NetworkFaultPlan] = None,
                 lease_seconds: float = DEFAULT_LEASE_SECONDS,
                 heartbeat_interval: float = DEFAULT_HEARTBEAT_INTERVAL
                 ) -> None:
        self.fn = fn
        self.workers = workers
        self.scratch = scratch
        if scratch is not None:
            scratch.mkdir(parents=True, exist_ok=True)
        self.counters = counters
        self.store = store
        self.journal = journal
        self.timeout = timeout
        self.retries = retries
        self.backoff = backoff
        self.fault_plan = fault_plan
        self.net_plan = net_plan
        self.lease_seconds = lease_seconds
        self.heartbeat_interval = heartbeat_interval
        #: The server's listening fd, closed in every forked worker.
        self.listen_fd: Optional[int] = None
        #: Called with each attempt's process sentinel at launch, and again
        #: at reap before the process is closed: a closed sentinel's number
        #: is reused by the next pipe, so a stale watch would miss its exit.
        self.watch: Optional[Callable[[int], None]] = None
        self.unwatch: Optional[Callable[[int], None]] = None
        self.queue: Deque[Task] = deque()
        self.running: List[_Attempt] = []
        #: Wall-clock seconds of every successful attempt, kept sorted.
        self.durations: List[float] = []

    @property
    def busy(self) -> bool:
        return bool(self.queue or self.running)

    @property
    def sentinels(self) -> List[int]:
        """Fds that become readable when a running attempt's worker exits."""
        return [attempt.process.sentinel for attempt in self.running]

    def record_duration(self, seconds: float) -> None:
        bisect.insort(self.durations, seconds)

    def median_duration(self) -> Optional[float]:
        """Median successful attempt, ``None`` before the first one."""
        count = len(self.durations)
        if not count:
            return None
        mid = count // 2
        if count % 2:
            return self.durations[mid]
        return (self.durations[mid - 1] + self.durations[mid]) / 2

    def submit(self, task: Task) -> None:
        task.status = JOB_QUEUED
        self.queue.append(task)

    def run_inline(self, task: Task) -> None:
        """Run one attempt in this process (no timeout, lease or retry)."""
        task.attempt += 1
        self._journal({"event": "attempt_started", "key": task.key,
                       "name": task.name, "attempt": task.attempt})
        self.commit(task, self.fn(task.item))

    def step(self, now: float) -> List[Task]:
        """Reap ended attempts, then launch eligible queued tasks.

        Returns the tasks that became done or failed in this step.
        """
        settled: List[Task] = []
        for attempt in list(self.running):
            outcome = self._outcome(attempt, now)
            if outcome is None:
                continue
            self.running.remove(attempt)
            self._release(attempt)
            task = attempt.task
            if outcome["status"] == "ok":
                self.record_duration(now - attempt.started)
                self.commit(task, outcome["digest"])
            else:
                self._fail(task, outcome["status"], outcome.get("traceback"))
            if task.status != JOB_QUEUED:
                settled.append(task)
        deferred: List[Task] = []
        while self.queue and len(self.running) < self.workers:
            task = self.queue.popleft()
            if task.eligible_at > now:
                deferred.append(task)
            else:
                self._launch(task, now)
        # Backoff-deferred tasks keep their queue position (front, in order).
        self.queue.extendleft(reversed(deferred))
        return settled

    def stop(self) -> None:
        """Kill every running attempt and remove its scratch files."""
        for attempt in self.running:
            attempt.kill()
            self._release(attempt)
        self.running.clear()

    def _release(self, attempt: _Attempt) -> None:
        """Unwatch a dead attempt, unlink its files and close its process."""
        if self.unwatch is not None:
            self.unwatch(attempt.process.sentinel)
        attempt.discard_files()
        attempt.process.close()

    def commit(self, task: Task, digest: Dict[str, object]) -> None:
        """Make a result durable: store first, then journal completion."""
        if self.store is not None:
            self.store.put(task.key, digest, meta=task.store_meta())
        self._journal({"event": "job_completed", "key": task.key,
                       "name": task.name})
        task.digest = digest
        task.status = JOB_DONE
        self.counters["executed"] += 1

    def _fail(self, task: Task, reason: str, trace: Optional[str]) -> None:
        self.counters[FAILURE_COUNTERS[reason]] += 1
        self._journal({"event": "attempt_failed", "key": task.key,
                       "name": task.name, "attempt": task.attempt,
                       "reason": reason})
        if task.attempt > self.retries:
            task.status = JOB_FAILED
            task.failure = {"name": task.name, "key": task.key,
                            "attempts": task.attempt, "reason": reason,
                            "traceback": trace}
            self.counters["quarantined"] += 1
            self._journal({"event": "job_quarantined", "key": task.key,
                           "name": task.name, "reason": reason})
            return
        delay = min(self.backoff * (2.0 ** (task.attempt - 1)),
                    BACKOFF_CAP_SECONDS)
        task.backoff_schedule.append(round(delay, 6))
        task.eligible_at = time.monotonic() + delay
        self.counters["retries"] += 1
        self.submit(task)

    def _journal(self, record: Dict[str, object]) -> None:
        if self.journal is not None:
            self.journal.append(record)

    def _launch(self, task: Task, now: float) -> None:
        for name in task.modules:
            importlib.import_module(name)
        task.attempt += 1
        task.status = JOB_LEASED
        stem = f"{self.scratch / task.key[:16]}.a{task.attempt}"
        heartbeat, result = Path(f"{stem}.hb"), Path(f"{stem}.json")
        result.unlink(missing_ok=True)
        heartbeat.touch()
        process = multiprocessing.Process(
            target=_attempt_entry,
            args=(self.fn, task.item, task.name, task.attempt,
                  self.fault_plan, self.net_plan, str(heartbeat),
                  str(result), self.heartbeat_interval, self.listen_fd),
            daemon=True)
        process.start()
        if self.watch is not None:
            self.watch(process.sentinel)
        self._journal({"event": "attempt_started", "key": task.key,
                       "name": task.name, "attempt": task.attempt,
                       "pid": process.pid})
        self.running.append(_Attempt(task, process, heartbeat, result, now))

    def _outcome(self, attempt: _Attempt,
                 now: float) -> Optional[Dict[str, object]]:
        """The attempt's outcome, or ``None`` while it runs in its lease."""
        process, task = attempt.process, attempt.task
        if not process.is_alive():
            process.join()
            try:
                with open(attempt.result_path, "r", encoding="utf-8") as handle:
                    return json.load(handle)
            except (OSError, ValueError):
                return {"status": "crash",
                        "traceback": f"worker exited with code "
                                     f"{process.exitcode} before reporting "
                                     f"a result"}
        elapsed = now - attempt.started
        if self.timeout is not None and elapsed > self.timeout:
            attempt.kill()
            return {"status": "timeout"}
        try:
            silence = time.time() - os.stat(attempt.heartbeat_path).st_mtime
        except OSError:
            silence = float("inf")
        if silence > self.lease_seconds:
            attempt.kill()
            task.reclaims += 1
            self._journal({"event": "lease_reclaimed", "key": task.key,
                           "name": task.name, "attempt": task.attempt,
                           "silent_seconds": round(silence, 3)})
            return {"status": "lease_reclaim"}
        if (not task.straggler and len(self.durations) >= 3
                and elapsed > STRAGGLER_FLOOR_SECONDS
                and elapsed > STRAGGLER_FACTOR * self.median_duration()):
            task.straggler = True
            self.counters["stragglers"] += 1
            self._journal({"event": "straggler", "name": task.name,
                           "elapsed": round(elapsed, 3)})
        return None
