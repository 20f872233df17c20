"""Long-lived async experiment server: many clients, one durable service.

PR 6 made a *single* sweep crash-tolerant (journal + content-addressed
store + supervised workers); this module makes that durable core a
**long-lived service**: a stdlib-asyncio socket server that multiplexes
many concurrent clients (parity slices, fuzz campaigns, KIPS benches,
figure regeneration) onto one warm store, speaking the newline-delimited
JSON protocol of :mod:`repro.experiments.protocol`.

Robustness properties, each exercised by seeded fault injection
(:class:`~repro.experiments.faultinject.NetworkFaultPlan`) rather than
hoped-for:

* **lease-based ownership with heartbeats** — every running job is a
  lease held by a supervised worker process that heartbeats by touching
  a per-lease file; an owner that dies (crash) or goes silent (no
  heartbeat inside ``lease_seconds``) is killed and its job re-queued
  with bounded retries and exponential backoff.  Workers, leases and
  retries are the job runner's (:mod:`repro.experiments.runner`), the
  same core the in-process service runs on;
* **admission control and backpressure** — the queue is bounded; an
  over-limit submit gets a structured ``retry_after`` rejection instead
  of hanging, and a draining server rejects admissions outright;
* **deduplication by content key** — concurrent identical submissions
  (same config + base seed, therefore same content address) run exactly
  once; every subscriber receives the one result;
* **graceful drain** — SIGTERM (or the ``drain`` verb) stops admissions,
  finishes the leased jobs, journals a clean ``server_drained`` marker
  and exits; a SIGKILLed server leaves the journal segment open and the
  store intact, so a restarted server serves completed jobs from cache
  and clients simply resubmit the rest (the ``unknown_key`` protocol
  signal) — the merged digest stays byte-identical;
* **store hygiene** — the ``gc`` verb (and ``--gc-budget-mb``) runs the
  LRU-by-atime eviction pass of :meth:`ResultStore.gc`, never touching
  objects referenced by the active journal segment or in-flight jobs.

Job execution is server-side: a submit names a registered job kind
(:data:`JOB_KINDS` — sweep points, parity points, fuzz scenarios) plus a
JSON payload, so clients stay thin and deterministic seeds derive from
the payload exactly as in-process runs derive them.

CLI::

    python -m repro.experiments.server serve --store DIR [--port N] ...
    python -m repro.experiments.server soak [--clients 4] ...

The ``soak`` subcommand is the CI robustness gate: N concurrent clients
submit overlapping sweeps while a seeded network fault plan disconnects
a client, silences a leased worker (forcing a lease reclaim) and the
server itself is SIGKILLed and restarted mid-campaign — every job must
execute exactly once and the merged digest must equal a straight-line
single-client run.
"""

from __future__ import annotations

import argparse
import asyncio
import json
import os
import signal
import threading
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, NamedTuple, Optional, Sequence, Set, Tuple

from repro.experiments import protocol
from repro.experiments.faultinject import FaultPlan, NetworkFaultPlan
from repro.experiments.runner import (
    DEFAULT_HEARTBEAT_INTERVAL,
    DEFAULT_LEASE_SECONDS,
    JobRunner,
    Task,
    new_counters,
)
from repro.experiments.store import (
    Journal,
    ResultStore,
    active_journal_keys,
    atomic_write_json,
    content_key,
)

#: Tick of the scheduler's timeout, lease and straggler checks; a submit,
#: a drain or a worker's exit wakes it at once.
POLL_SECONDS = 0.01

#: Default bound on queued + leased jobs (admission control).
DEFAULT_QUEUE_LIMIT = 64

#: retry_after clamps for backpressure rejections.
RETRY_AFTER_FLOOR = 0.05
RETRY_AFTER_CAP = 5.0


# --------------------------------------------------------------------- #
# Server-side job kinds
# --------------------------------------------------------------------- #
def _run_sweep_job(payload: Dict[str, object]) -> Dict[str, object]:
    from repro.experiments.sweep import SweepPoint, run_point

    point = SweepPoint(**payload["point"])
    return run_point(point, int(payload.get("base_seed", 0)))


def _run_parity_job(payload: Dict[str, object]) -> Dict[str, object]:
    from repro.validation.parity import ParityPoint, run_parity_point

    return run_parity_point(ParityPoint(**payload["point"]))


def _run_fuzz_job(payload: Dict[str, object]) -> Dict[str, object]:
    from repro.validation.fuzz import run_fuzz_scenario

    return run_fuzz_scenario(payload["scenario"])


class JobKind(NamedTuple):
    """A module-level worker callable (it runs in a lease process) and the
    modules it imports, which the server loads before the kind's first
    fork so that every fork inherits them."""

    run: Callable[[Dict[str, object]], Dict[str, object]]
    modules: Tuple[str, ...]


#: kind name -> how to run it.
JOB_KINDS = {
    "sweep_point": JobKind(_run_sweep_job, (
        "repro.experiments.sweep", "repro.workloads.multiproc",
        "repro.workloads.registry")),
    "parity_point": JobKind(_run_parity_job, (
        "repro.validation.parity", "repro.workloads.multiproc",
        "repro.workloads.registry")),
    "fuzz_scenario": JobKind(_run_fuzz_job, (
        "repro.validation.fuzz", "repro.workloads.registry")),
}


def _run_job(item) -> Dict[str, object]:
    """The lease worker's job function: dispatch ``(kind, payload)``."""
    kind, payload = item
    return JOB_KINDS[kind].run(payload)


def server_job_key(kind: str, payload: Dict[str, object]) -> str:
    """Content address of a server job: kind-tagged hash of the payload."""
    return content_key({"schema": f"server_job/{kind}/v1",
                        "payload": payload})


# --------------------------------------------------------------------- #
# In-memory job table
# --------------------------------------------------------------------- #
@dataclass(eq=False)
class ServerJob(Task):
    """A runner task plus the server's view: kind, subscribers, waiters.

    ``item`` is the ``(kind, payload)`` pair :func:`_run_job` executes.
    """

    kind: str = "unknown"
    submitters: Set[str] = field(default_factory=set)
    cached: bool = False
    done_event: asyncio.Event = field(default_factory=asyncio.Event)

    def store_meta(self) -> Dict[str, object]:
        return {"name": self.name, "kind": self.kind}


class ExperimentServer:
    """The long-lived asyncio server multiplexing clients onto one store."""

    def __init__(self, store_root: os.PathLike,
                 host: str = "127.0.0.1", port: int = 0,
                 workers: Optional[int] = None,
                 queue_limit: int = DEFAULT_QUEUE_LIMIT,
                 lease_seconds: float = DEFAULT_LEASE_SECONDS,
                 heartbeat_interval: float = DEFAULT_HEARTBEAT_INTERVAL,
                 retries: int = 2,
                 backoff: float = 0.25,
                 job_timeout: Optional[float] = None,
                 fault_plan: Optional[FaultPlan] = None,
                 net_fault_plan: Optional[NetworkFaultPlan] = None,
                 fsync: bool = True,
                 gc_budget_bytes: Optional[int] = None) -> None:
        if queue_limit < 1:
            raise ValueError("queue_limit must be >= 1")
        if lease_seconds <= heartbeat_interval:
            raise ValueError(
                f"lease_seconds ({lease_seconds}) must exceed the heartbeat "
                f"interval ({heartbeat_interval}) or every healthy lease "
                f"would be reclaimed")
        self.store = ResultStore(store_root)
        self.journal = Journal(self.store.journal_path, fsync=fsync)
        self.host = host
        self.port = port
        self.workers = max(1, workers if workers is not None
                           else (os.cpu_count() or 1))
        self.queue_limit = queue_limit
        self.net_plan = net_fault_plan
        self.gc_budget_bytes = gc_budget_bytes

        self.jobs: Dict[str, ServerJob] = {}
        self.draining = False
        self.counters: Dict[str, int] = {
            "connections": 0, "disconnects": 0, "garbage_frames": 0,
            "frames_dropped": 0, "garbage_injected": 0,
            "injected_disconnects": 0,
            "submits": 0, "accepted": 0, "duplicates": 0, "cache_hits": 0,
            "rejected_backpressure": 0, "rejected_draining": 0,
            **new_counters(), "cancelled": 0, "gc_evicted": 0,
        }
        self.runner = JobRunner(
            _run_job, self.workers, self.store.root / "scratch",
            self.counters, store=self.store, journal=self.journal,
            timeout=job_timeout, retries=retries, backoff=backoff,
            fault_plan=fault_plan, net_plan=net_fault_plan,
            lease_seconds=lease_seconds,
            heartbeat_interval=heartbeat_interval)
        self._send_frames: Dict[str, int] = {}
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._stop: Optional[asyncio.Event] = None
        self._connections: Dict[asyncio.Task, asyncio.StreamWriter] = {}
        self._drain_holds = 0
        #: Set by whatever the scheduler must act on before its next tick.
        self._wake = asyncio.Event()
        #: Set once the listening socket is bound (cross-thread startup).
        self.ready = threading.Event()

    # ----------------------------------------------------------------- #
    # Lifecycle
    # ----------------------------------------------------------------- #
    @property
    def in_flight(self) -> int:
        return len(self.runner.queue) + len(self.runner.running)

    @property
    def address(self) -> str:
        return f"{self.host}:{self.port}"

    def begin_drain(self) -> None:
        """Stop admissions; the scheduler exits once every lease lands."""
        if not self.draining:
            self.draining = True
            self.journal.append({"event": "drain_started",
                                 "in_flight": self.in_flight})
            self._wake.set()

    def request_stop(self) -> None:
        """Immediate shutdown (tests): leases are killed, segment stays open."""
        self.draining = True
        if self._stop is not None:
            self._stop.set()

    async def serve(self, ready_file: Optional[os.PathLike] = None) -> None:
        self._loop = asyncio.get_running_loop()
        self._stop = asyncio.Event()
        try:
            self._loop.add_signal_handler(signal.SIGTERM, self.begin_drain)
            self._loop.add_signal_handler(signal.SIGINT, self.begin_drain)
        except (NotImplementedError, RuntimeError):
            pass  # non-main thread (tests): no signal handlers
        server = await asyncio.start_server(
            self._on_client, self.host, self.port,
            limit=protocol.MAX_FRAME_BYTES)
        self.port = server.sockets[0].getsockname()[1]
        self.runner.listen_fd = server.sockets[0].fileno()
        loop = self._loop
        self.runner.watch = lambda fd: loop.add_reader(fd, self._wake.set)
        self.runner.unwatch = loop.remove_reader
        prior_records, corrupt = self.journal.replay()
        prior_completed = sum(1 for r in prior_records
                              if r.get("event") == "job_completed")
        self.journal.append({"event": "server_started", "pid": os.getpid(),
                             "workers": self.workers,
                             "queue_limit": self.queue_limit,
                             "lease_seconds": self.runner.lease_seconds,
                             "prior_completed": prior_completed,
                             "journal_corrupt_lines": corrupt})
        if self.gc_budget_bytes is not None:
            self._run_gc(self.gc_budget_bytes, dry_run=False)
        if ready_file is not None:
            atomic_write_json(ready_file, {"host": self.host,
                                           "port": self.port,
                                           "pid": os.getpid()})
        self.ready.set()
        scheduler = asyncio.ensure_future(self._scheduler())
        try:
            await self._stop.wait()
        finally:
            scheduler.cancel()
            server.close()
            await server.wait_closed()
            # Let pending drain acks flush before tearing connections
            # down — the drain handler resumes on the same _stop event
            # that woke this coroutine.
            deadline = self._loop.time() + 2.0
            while self._drain_holds and self._loop.time() < deadline:
                await asyncio.sleep(0.01)
            # Abort the client transports so each handler's readline sees
            # EOF and the task *returns* (cancelling the tasks instead
            # trips a 3.11 asyncio.streams done-callback bug that logs a
            # spurious CancelledError), then wait for them to finish.
            for writer in list(self._connections.values()):
                try:
                    writer.transport.abort()
                except (AttributeError, OSError):
                    pass
            handlers = list(self._connections)
            if handlers:
                await asyncio.wait(handlers, timeout=5.0)
            await asyncio.gather(scheduler, return_exceptions=True)
            in_flight = self.in_flight
            self.runner.stop()
            if self.draining and not in_flight:
                self.journal.append({
                    "event": "server_drained",
                    "completed": self.counters["executed"],
                    "quarantined": self.counters["quarantined"]})
            else:
                self.journal.append({"event": "server_stopped",
                                     "in_flight": in_flight})
            self.journal.close()

    def run(self, ready_file: Optional[os.PathLike] = None) -> None:
        asyncio.run(self.serve(ready_file=ready_file))

    # ----------------------------------------------------------------- #
    # Scheduler: the job runner's loop
    # ----------------------------------------------------------------- #
    async def _scheduler(self) -> None:
        while True:
            self._wake.clear()
            for job in self.runner.step(time.monotonic()):
                job.done_event.set()
            if self.draining and not self.runner.busy:
                break
            try:
                await asyncio.wait_for(self._wake.wait(), POLL_SECONDS)
            except asyncio.TimeoutError:
                pass
        assert self._stop is not None
        self._stop.set()

    # ----------------------------------------------------------------- #
    # Connection handling
    # ----------------------------------------------------------------- #
    async def _on_client(self, reader: asyncio.StreamReader,
                         writer: asyncio.StreamWriter) -> None:
        conn: Dict[str, object] = {"client_id": None, "writer": writer,
                                   "lock": asyncio.Lock()}
        self.counters["connections"] += 1
        task = asyncio.current_task()
        if task is not None:
            self._connections[task] = writer
        try:
            while True:
                try:
                    line = await reader.readline()
                except (ValueError, asyncio.LimitOverrunError):
                    break  # oversized frame: drop the connection
                if not line:
                    break
                try:
                    message = protocol.decode_frame(line)
                except protocol.ProtocolError:
                    # Garbage in the stream is counted and answered with a
                    # structured error; the parser state survives.
                    self.counters["garbage_frames"] += 1
                    await self._send(conn, protocol.error_response(
                        None, protocol.ERROR_PROTOCOL))
                    continue
                response = await self._dispatch(conn, message)
                if response is not None:
                    await self._send(conn, response)
        except (ConnectionError, OSError):
            pass
        finally:
            if task is not None:
                self._connections.pop(task, None)
            self.counters["disconnects"] += 1
            try:
                writer.close()
            except OSError:
                pass

    async def _send(self, conn: Dict[str, object],
                    message: Dict[str, object]) -> None:
        """Send one frame, applying server-side network fault actions."""
        writer: asyncio.StreamWriter = conn["writer"]  # type: ignore[assignment]
        client = conn["client_id"]
        async with conn["lock"]:  # type: ignore[union-attr]
            slot = str(client) if client is not None else "?"
            frame_index = self._send_frames.get(slot, 0)
            self._send_frames[slot] = frame_index + 1
            actions = (self.net_plan.send_actions("server", client, frame_index)
                       if self.net_plan is not None else [])
            try:
                for action in actions:
                    if action.kind == "delay":
                        await asyncio.sleep(action.delay_seconds)
                if any(a.kind == "garbage" for a in actions):
                    self.counters["garbage_injected"] += 1
                    writer.write(b"\x7b garbage frame, not json \x00\n")
                if any(a.kind == "drop" for a in actions):
                    self.counters["frames_dropped"] += 1
                else:
                    writer.write(protocol.encode_frame(message))
                await writer.drain()
                if any(a.kind == "disconnect" for a in actions):
                    self.counters["injected_disconnects"] += 1
                    writer.close()
            except (ConnectionError, OSError):
                pass  # peer vanished mid-send; the job (if any) lives on

    # ----------------------------------------------------------------- #
    # Verb dispatch
    # ----------------------------------------------------------------- #
    async def _dispatch(self, conn: Dict[str, object],
                        message: Dict[str, object]) -> Optional[Dict[str, object]]:
        verb = message.get("verb")
        rid = message.get("id")
        if verb == "hello":
            return self._handle_hello(conn, rid, message)
        if verb == "ping":
            return protocol.ok_response(rid, pong=True)
        if verb == "submit":
            return self._handle_submit(conn, rid, message)
        if verb == "status":
            return self._handle_status(rid, message)
        if verb == "result":
            return await self._handle_result(rid, message)
        if verb == "cancel":
            return self._handle_cancel(rid, message)
        if verb == "drain":
            return await self._handle_drain(conn, rid)
        if verb == "gc":
            return self._handle_gc(rid, message)
        return protocol.error_response(rid, protocol.ERROR_UNKNOWN_VERB,
                                       verb=str(verb))

    def _handle_hello(self, conn: Dict[str, object], rid: Optional[int],
                      message: Dict[str, object]) -> Dict[str, object]:
        version = message.get("version")
        if version != protocol.PROTOCOL_VERSION:
            return protocol.error_response(
                rid, protocol.ERROR_BAD_REQUEST,
                detail=f"protocol version {version!r} != "
                       f"{protocol.PROTOCOL_VERSION!r}")
        conn["client_id"] = str(message.get("client", "anon"))
        return protocol.ok_response(
            rid, version=protocol.PROTOCOL_VERSION,
            workers=self.workers, queue_limit=self.queue_limit,
            lease_seconds=self.runner.lease_seconds,
            store=str(self.store.root), draining=self.draining,
            kinds=sorted(JOB_KINDS))

    def _retry_after(self) -> float:
        """Structured backpressure hint: how long the queue needs to move."""
        median = self.runner.median_duration()
        per_job = 0.25 if median is None else median
        estimate = per_job * max(1, self.in_flight - self.workers + 1) \
            / self.workers
        return round(min(max(estimate, RETRY_AFTER_FLOOR), RETRY_AFTER_CAP), 3)

    def _handle_submit(self, conn: Dict[str, object], rid: Optional[int],
                       message: Dict[str, object]) -> Dict[str, object]:
        kind = message.get("kind")
        payload = message.get("payload")
        if kind not in JOB_KINDS or not isinstance(payload, dict):
            return protocol.error_response(
                rid, protocol.ERROR_BAD_REQUEST,
                detail=f"kind must be one of {sorted(JOB_KINDS)} with an "
                       f"object payload, got kind={kind!r}")
        self.counters["submits"] += 1
        key = str(message.get("key") or server_job_key(kind, payload))
        name = str(message.get("name") or key[:16])
        client = str(conn.get("client_id") or "anon")

        job = self.jobs.get(key)
        if job is not None and job.status in (protocol.JOB_QUEUED,
                                              protocol.JOB_LEASED):
            # Deduplication: the job runs once, this client subscribes.
            job.submitters.add(client)
            self.counters["duplicates"] += 1
            return protocol.ok_response(rid, status="duplicate", key=key,
                                        job_status=job.status)
        if job is not None and job.status == protocol.JOB_DONE:
            return protocol.ok_response(rid, status="cached", key=key)

        job = self._serve_from_store(key, name, kind)
        if job is not None:
            job.submitters.add(client)
            return protocol.ok_response(rid, status="cached", key=key)

        if self.draining:
            self.counters["rejected_draining"] += 1
            return protocol.error_response(rid, protocol.ERROR_DRAINING)
        if self.in_flight >= self.queue_limit:
            self.counters["rejected_backpressure"] += 1
            return protocol.error_response(
                rid, protocol.ERROR_OVERLOADED,
                retry_after=self._retry_after(),
                in_flight=self.in_flight, queue_limit=self.queue_limit)

        job = ServerJob(key=key, name=name, item=(kind, payload),
                        modules=JOB_KINDS[kind].modules, kind=kind)
        job.submitters.add(client)
        self.jobs[key] = job
        self.runner.submit(job)
        self.counters["accepted"] += 1
        self.journal.append({"event": "job_submitted", "key": key,
                             "name": name, "kind": kind, "client": client})
        self._wake.set()
        return protocol.ok_response(rid, status="accepted", key=key)

    def _serve_from_store(self, key: str, name: str,
                          kind: str = "unknown") -> Optional[ServerJob]:
        """A done job for a key the store holds (``None`` on a miss)."""
        hit = self.store.get(key)
        if hit is None:
            return None
        job = ServerJob(key=key, name=name, kind=kind,
                        status=protocol.JOB_DONE, digest=hit["digest"],
                        cached=True)
        job.done_event.set()
        self.jobs[key] = job
        self.counters["cache_hits"] += 1
        self.journal.append({"event": "cache_hit", "key": key,
                             "name": name})
        return job

    def _job_public_state(self, job: ServerJob) -> Dict[str, object]:
        return {"key": job.key, "name": job.name, "status": job.status,
                "attempts": job.attempt, "cached": job.cached,
                "reclaims": job.reclaims,
                "backoff_schedule": list(job.backoff_schedule)}

    def _handle_status(self, rid: Optional[int],
                       message: Dict[str, object]) -> Dict[str, object]:
        key = message.get("key")
        if key is not None:
            job = self.jobs.get(str(key))
            if job is None:
                return protocol.error_response(rid, protocol.ERROR_UNKNOWN_KEY,
                                               key=str(key))
            return protocol.ok_response(rid, job=self._job_public_state(job))
        return protocol.ok_response(
            rid, counters=dict(self.counters), queued=len(self.runner.queue),
            leased=len(self.runner.running), jobs=len(self.jobs),
            draining=self.draining, workers=self.workers,
            queue_limit=self.queue_limit,
            store=self.store.stats())

    async def _handle_result(self, rid: Optional[int],
                             message: Dict[str, object]) -> Dict[str, object]:
        key = str(message.get("key", ""))
        wait_seconds = float(message.get("wait_seconds", 0.0))
        job = self.jobs.get(key) or self._serve_from_store(key, key[:16])
        if job is None:
            # The restart-recovery signal: this server has never seen the
            # job — the client resubmits.
            return protocol.error_response(rid, protocol.ERROR_UNKNOWN_KEY,
                                           key=key)
        if (job.status in (protocol.JOB_QUEUED, protocol.JOB_LEASED)
                and wait_seconds > 0):
            try:
                await asyncio.wait_for(job.done_event.wait(),
                                       timeout=wait_seconds)
            except asyncio.TimeoutError:
                pass
        if job.status == protocol.JOB_DONE:
            return protocol.ok_response(
                rid, status="done", key=key, digest=job.digest,
                attempts=job.attempt, cached=job.cached,
                reclaims=job.reclaims,
                backoff_schedule=list(job.backoff_schedule))
        if job.status == protocol.JOB_FAILED:
            return protocol.ok_response(rid, status="failed", key=key,
                                        failure=job.failure)
        if job.status == protocol.JOB_CANCELLED:
            return protocol.ok_response(rid, status="cancelled", key=key)
        return protocol.ok_response(rid, status="pending", key=key,
                                    job_status=job.status,
                                    attempts=job.attempt)

    def _handle_cancel(self, rid: Optional[int],
                       message: Dict[str, object]) -> Dict[str, object]:
        key = str(message.get("key", ""))
        job = self.jobs.get(key)
        if job is None:
            return protocol.error_response(rid, protocol.ERROR_UNKNOWN_KEY,
                                           key=key)
        if job.status == protocol.JOB_QUEUED:
            job.status = protocol.JOB_CANCELLED
            self.runner.queue.remove(job)
            job.done_event.set()
            self.counters["cancelled"] += 1
            self.journal.append({"event": "job_cancelled", "key": key,
                                 "name": job.name})
            return protocol.ok_response(rid, status="cancelled", key=key)
        # Leased/done jobs are left to land: their result is cacheable and
        # other subscribers may still want it.
        return protocol.ok_response(rid, status=job.status, key=key,
                                    cancelled=False)

    async def _handle_drain(self, conn: Dict[str, object],
                            rid: Optional[int]) -> None:
        """Drain, then ack *before* shutdown tears the connection down."""
        self.begin_drain()
        assert self._stop is not None
        self._drain_holds += 1
        try:
            await self._stop.wait()
            await self._send(conn, protocol.ok_response(
                rid, drained=True, executed=self.counters["executed"],
                quarantined=self.counters["quarantined"]))
        finally:
            self._drain_holds -= 1
        return None

    def _handle_gc(self, rid: Optional[int],
                   message: Dict[str, object]) -> Dict[str, object]:
        budget = message.get("budget_bytes")
        if not isinstance(budget, int) or budget < 0:
            return protocol.error_response(
                rid, protocol.ERROR_BAD_REQUEST,
                detail="gc needs a non-negative integer budget_bytes")
        report = self._run_gc(budget, dry_run=bool(message.get("dry_run")))
        return protocol.ok_response(rid, gc=report)

    def _run_gc(self, budget_bytes: int, dry_run: bool) -> Dict[str, object]:
        # Protect everything the live session references: current jobs plus
        # every key in the journal's active segment (this session's own).
        protect = set(self.jobs) | active_journal_keys(self.store.journal_path)
        report = self.store.gc(budget_bytes, dry_run=dry_run, protect=protect)
        if not dry_run:
            self.counters["gc_evicted"] += len(report["evicted"])
        self.journal.append({"event": "gc_pass", "dry_run": dry_run,
                             "budget_bytes": budget_bytes,
                             "evicted": len(report["evicted"]),
                             "evicted_bytes": report["evicted_bytes"]})
        return report


# --------------------------------------------------------------------- #
# In-thread harness (tests and single-process demos)
# --------------------------------------------------------------------- #
class ServerThread:
    """Run an :class:`ExperimentServer` on a background thread.

    The test harness: ``start()`` blocks until the listening socket is
    bound (so the chosen ephemeral port is known), ``stop()`` requests an
    immediate shutdown and joins the thread.
    """

    def __init__(self, server: ExperimentServer) -> None:
        self.server = server
        self._thread: Optional[threading.Thread] = None

    def start(self, timeout: float = 10.0) -> "ServerThread":
        self._thread = threading.Thread(target=self.server.run, daemon=True)
        self._thread.start()
        if not self.server.ready.wait(timeout):
            raise RuntimeError("server failed to start listening")
        return self

    @property
    def address(self) -> str:
        return self.server.address

    def stop(self, timeout: float = 10.0) -> None:
        loop = self.server._loop
        if loop is not None and loop.is_running():
            loop.call_soon_threadsafe(self.server.request_stop)
        if self._thread is not None:
            self._thread.join(timeout)

    def __enter__(self) -> "ServerThread":
        return self.start()

    def __exit__(self, *_exc) -> None:
        self.stop()


# --------------------------------------------------------------------- #
# CLI
# --------------------------------------------------------------------- #
def _load_plan(plan_class, path: Optional[str]):
    """A :class:`FaultPlan` or :class:`NetworkFaultPlan` from a JSON file."""
    if not path:
        return None
    with open(path, "r", encoding="utf-8") as handle:
        return plan_class.from_json(handle.read())


def _cmd_serve(args: argparse.Namespace) -> int:
    server = ExperimentServer(
        store_root=args.store, host=args.host, port=args.port,
        workers=args.workers, queue_limit=args.queue_limit,
        lease_seconds=args.lease, heartbeat_interval=args.heartbeat_interval,
        retries=args.retries, backoff=args.backoff,
        job_timeout=args.job_timeout,
        fault_plan=_load_plan(FaultPlan, args.fault_plan),
        net_fault_plan=_load_plan(NetworkFaultPlan, args.net_fault_plan),
        fsync=not args.no_fsync,
        gc_budget_bytes=(args.gc_budget_mb * 1024 * 1024
                         if args.gc_budget_mb is not None else None))
    server.run(ready_file=args.ready_file)
    print(f"server exited: executed={server.counters['executed']} "
          f"quarantined={server.counters['quarantined']} "
          f"lease_reclaims={server.counters['lease_reclaims']}")
    return 0


def _cmd_soak(args: argparse.Namespace) -> int:
    from repro.experiments.soak import run_soak

    digest = run_soak(clients=args.clients, points=args.points,
                      demo_ops=args.demo_ops, seed=args.seed,
                      kills=args.kills)
    print(json.dumps({key: value for key, value in digest.items()
                      if key != "per_client"}, indent=2, sort_keys=True))
    ok = (digest["digest_identical"] and digest["exactly_once"]
          and digest["lease_reclaims"] >= 1
          and digest["client_disconnects"] >= 1
          and digest["server_kills"] >= args.kills
          and digest["sensitivity"]["reclaim_fired"])
    print(f"server soak: {'OK' if ok else 'FAILED'}")
    return 0 if ok else 1


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.experiments.server",
        description="Long-lived async experiment server")
    sub = parser.add_subparsers(dest="command", required=True)

    serve = sub.add_parser("serve", help="run the server until drained")
    serve.add_argument("--store", type=str, required=True,
                       help="result-store root (journal + cache + scratch)")
    serve.add_argument("--host", type=str, default="127.0.0.1")
    serve.add_argument("--port", type=int, default=0,
                       help="listening port (0 picks an ephemeral port; "
                            "pair with --ready-file to discover it)")
    serve.add_argument("--workers", type=int, default=None)
    serve.add_argument("--queue-limit", type=int,
                       default=DEFAULT_QUEUE_LIMIT)
    serve.add_argument("--lease", type=float, default=DEFAULT_LEASE_SECONDS,
                       help="seconds of heartbeat silence before a lease "
                            "is reclaimed")
    serve.add_argument("--heartbeat-interval", type=float,
                       default=DEFAULT_HEARTBEAT_INTERVAL)
    serve.add_argument("--retries", type=int, default=2)
    serve.add_argument("--backoff", type=float, default=0.25)
    serve.add_argument("--job-timeout", type=float, default=None,
                       help="absolute per-attempt wall-clock kill (a hung "
                            "worker that still heartbeats)")
    serve.add_argument("--fault-plan", type=str, default=None,
                       help="JSON worker FaultPlan (crash/hang/flaky)")
    serve.add_argument("--net-fault-plan", type=str, default=None,
                       help="JSON NetworkFaultPlan (drop/delay/disconnect/"
                            "garbage/drop_heartbeat)")
    serve.add_argument("--ready-file", type=str, default=None,
                       help="write {host,port,pid} JSON here once listening")
    serve.add_argument("--no-fsync", action="store_true")
    serve.add_argument("--gc-budget-mb", type=int, default=None,
                       help="run a store GC pass to this budget at startup")
    serve.set_defaults(func=_cmd_serve)

    soak = sub.add_parser(
        "soak", help="multi-client network-fault + kill/restart smoke")
    soak.add_argument("--clients", type=int, default=4)
    soak.add_argument("--points", type=int, default=8,
                      help="unique sweep points shared by the clients")
    soak.add_argument("--demo-ops", type=int, default=3000)
    soak.add_argument("--seed", type=int, default=2025)
    soak.add_argument("--kills", type=int, default=1,
                      help="SIGKILL+restart cycles of the server")
    soak.set_defaults(func=_cmd_soak)

    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    raise SystemExit(main())
