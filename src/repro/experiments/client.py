"""Client side of the experiment server: sync socket + service adapter.

Two layers:

* :class:`ExperimentClient` — a small synchronous NDJSON client with the
  robustness the server's fault matrix demands: request-id correlation,
  garbage-frame skipping, socket-timeout + reconnect retry (safe because
  every verb is idempotent — submits deduplicate by content key), and
  structured-backpressure handling (an ``overloaded`` rejection sleeps
  the advertised ``retry_after`` and retries instead of hammering).
  Client-side :class:`~repro.experiments.faultinject.NetworkFaultPlan`
  actions apply to *outgoing* frames, keyed on a cumulative send-frame
  counter that survives reconnects, so a seeded plan fires each fault
  exactly once per campaign.

* :class:`RemoteService` — an adapter with the exact ``execute`` shape
  of :class:`~repro.experiments.service.ExperimentService`, so
  ``run_sweep(points, service=RemoteService(...))``, the parity matrix
  and the fuzz campaign runner target a running server unchanged.  A
  server that was SIGKILLed and restarted answers ``unknown_key`` for
  jobs it never saw; the adapter resubmits them — completed jobs come
  back from the restarted server's cache, so nothing runs twice.
"""

from __future__ import annotations

import os
import socket
import time
from typing import Dict, List, Optional, Sequence

from repro.experiments import protocol
from repro.experiments.faultinject import NetworkFaultPlan
from repro.experiments.runner import new_counters

#: How long a client keeps retrying through connection failures — this is
#: what rides out a server SIGKILL + restart window.
DEFAULT_RETRY_WINDOW = 60.0

#: Per-recv socket timeout on top of any server-side result hold.
DEFAULT_IO_TIMEOUT = 10.0

#: Server-side hold per ``result`` poll (bounded so a restarted server is
#: noticed quickly; the adapter re-polls).
DEFAULT_WAIT_SECONDS = 1.0


class ServerError(RuntimeError):
    """A structured error response the caller did not expect."""

    def __init__(self, error: str, response: Dict[str, object]) -> None:
        super().__init__(f"server error: {error}")
        self.error = error
        self.response = response


class ServerUnavailable(ConnectionError):
    """Could not reach (or re-reach) the server inside the retry window."""


def parse_address(address: str) -> tuple:
    host, _, port = address.rpartition(":")
    if not host or not port.isdigit():
        raise ValueError(f"server address must be host:port, got {address!r}")
    return host, int(port)


class ExperimentClient:
    """Blocking NDJSON client with reconnect, retry, and fault injection."""

    def __init__(self, address: str, client_id: Optional[str] = None,
                 net_fault_plan: Optional[NetworkFaultPlan] = None,
                 io_timeout: float = DEFAULT_IO_TIMEOUT,
                 retry_window: float = DEFAULT_RETRY_WINDOW) -> None:
        self.host, self.port = parse_address(address)
        self.client_id = client_id or f"client-{os.getpid()}"
        self.net_plan = net_fault_plan
        self.io_timeout = io_timeout
        self.retry_window = retry_window
        self.counters: Dict[str, int] = {
            "requests": 0, "reconnects": 0, "timeouts": 0,
            "garbage_skipped": 0, "stale_responses": 0,
            "overload_backoffs": 0, "resubmits": 0,
            "frames_dropped": 0, "garbage_injected": 0,
            "injected_disconnects": 0,
        }
        self.server_info: Optional[Dict[str, object]] = None
        self._sock: Optional[socket.socket] = None
        self._rfile = None
        self._next_id = 0
        self._frames_sent = 0  # cumulative across reconnects

    # ----------------------------------------------------------------- #
    # Connection plumbing
    # ----------------------------------------------------------------- #
    def _connect(self) -> None:
        self.close()
        sock = socket.create_connection((self.host, self.port),
                                        timeout=self.io_timeout)
        sock.settimeout(self.io_timeout)
        self._sock = sock
        self._rfile = sock.makefile("rb")
        self.server_info = self._exchange(
            {"verb": "hello", "version": protocol.PROTOCOL_VERSION,
             "client": self.client_id})
        if not self.server_info.get("ok"):
            raise ServerError(str(self.server_info.get("error")),
                              self.server_info)

    def close(self) -> None:
        if self._rfile is not None:
            try:
                self._rfile.close()
            except OSError:
                pass
            self._rfile = None
        if self._sock is not None:
            try:
                self._sock.close()
            except OSError:
                pass
            self._sock = None

    def __enter__(self) -> "ExperimentClient":
        return self

    def __exit__(self, *_exc) -> None:
        self.close()

    def _send_frame(self, message: Dict[str, object]) -> None:
        """Send one frame, applying client-side network fault actions."""
        assert self._sock is not None
        frame_index = self._frames_sent
        self._frames_sent += 1
        actions = (self.net_plan.send_actions("client", self.client_id,
                                              frame_index)
                   if self.net_plan is not None else [])
        for action in actions:
            if action.kind == "delay":
                time.sleep(action.delay_seconds)
        if any(a.kind == "garbage" for a in actions):
            self.counters["garbage_injected"] += 1
            self._sock.sendall(b"\x7b not json at all \x00\n")
        if any(a.kind == "drop" for a in actions):
            self.counters["frames_dropped"] += 1
        else:
            self._sock.sendall(protocol.encode_frame(message))
        if any(a.kind == "disconnect" for a in actions):
            self.counters["injected_disconnects"] += 1
            # Injected mid-campaign disconnect: the reconnect/retry path
            # must recover without re-running any job.
            self._sock.close()

    def _read_response(self, request_id: int) -> Dict[str, object]:
        assert self._rfile is not None
        while True:
            line = self._rfile.readline(protocol.MAX_FRAME_BYTES + 1)
            if not line:
                raise ConnectionError("server closed the connection")
            try:
                message = protocol.decode_frame(line)
            except protocol.ProtocolError:
                self.counters["garbage_skipped"] += 1
                continue
            if message.get("id") != request_id:
                self.counters["stale_responses"] += 1
                continue
            return message

    def _exchange(self, message: Dict[str, object]) -> Dict[str, object]:
        self._next_id += 1
        request = dict(message)
        request["id"] = self._next_id
        self._send_frame(request)
        return self._read_response(self._next_id)

    def request(self, verb: str, *,
                hold_seconds: float = 0.0,
                **fields: object) -> Dict[str, object]:
        """One verb round-trip, retrying through timeouts and reconnects.

        Safe to retry blindly: every verb is idempotent (``submit``
        deduplicates by content key server-side).  ``hold_seconds``
        widens the socket timeout for verbs the server intentionally
        holds (``result`` waits, ``drain``).
        """
        self.counters["requests"] += 1
        deadline = time.monotonic() + self.retry_window
        delay = 0.05
        last_error: Optional[Exception] = None
        while time.monotonic() < deadline:
            try:
                if self._sock is None:
                    self._connect()
                    self.counters["reconnects"] += 1
                self._sock.settimeout(self.io_timeout + hold_seconds)
                return self._exchange(dict(fields, verb=verb))
            except socket.timeout as exc:
                self.counters["timeouts"] += 1
                last_error = exc
                self.close()
            except (ConnectionError, OSError) as exc:
                last_error = exc
                self.close()
            time.sleep(delay)
            delay = min(delay * 2.0, 1.0)
        raise ServerUnavailable(
            f"no response from {self.host}:{self.port} within "
            f"{self.retry_window}s (last error: {last_error!r})")

    # ----------------------------------------------------------------- #
    # Verbs
    # ----------------------------------------------------------------- #
    def ping(self) -> bool:
        response = self.request("ping")
        if not response.get("ok"):
            # A structured rejection of the liveness probe (version skew,
            # a future auth layer) must surface as ServerError, not as a
            # silent False that reads like a dead-but-reachable server.
            raise ServerError(str(response.get("error")), response)
        return bool(response.get("pong"))

    def submit(self, kind: str, payload: Dict[str, object],
               name: Optional[str] = None,
               key: Optional[str] = None) -> Dict[str, object]:
        """Submit one job, honouring structured backpressure.

        An ``overloaded`` rejection sleeps the server's ``retry_after``
        hint and retries (within the retry window); ``draining`` is
        surfaced to the caller — a draining server will never accept.
        """
        fields: Dict[str, object] = {"kind": kind, "payload": payload}
        if name is not None:
            fields["name"] = name
        if key is not None:
            fields["key"] = key
        deadline = time.monotonic() + self.retry_window
        while True:
            response = self.request("submit", **fields)
            if response.get("ok"):
                return response
            if (response.get("error") == protocol.ERROR_OVERLOADED
                    and time.monotonic() < deadline):
                self.counters["overload_backoffs"] += 1
                time.sleep(float(response.get("retry_after", 0.1)))
                continue
            raise ServerError(str(response.get("error")), response)

    def result(self, key: str,
               wait_seconds: float = DEFAULT_WAIT_SECONDS) -> Dict[str, object]:
        """One bounded ``result`` poll (returns pending/done/failed/...).

        Raises :class:`ServerError` with ``error == "unknown_key"`` when
        the server has never seen the job — the resubmit signal after a
        server restart.
        """
        response = self.request("result", key=key,
                                wait_seconds=wait_seconds,
                                hold_seconds=wait_seconds)
        if not response.get("ok"):
            raise ServerError(str(response.get("error")), response)
        return response

    def status(self, key: Optional[str] = None) -> Dict[str, object]:
        fields = {"key": key} if key is not None else {}
        response = self.request("status", **fields)
        if not response.get("ok"):
            raise ServerError(str(response.get("error")), response)
        return response

    def cancel(self, key: str) -> Dict[str, object]:
        response = self.request("cancel", key=key)
        if not response.get("ok"):
            raise ServerError(str(response.get("error")), response)
        return response

    def drain(self, hold_seconds: float = 60.0) -> Dict[str, object]:
        response = self.request("drain", hold_seconds=hold_seconds)
        if not response.get("ok"):
            raise ServerError(str(response.get("error")), response)
        return response

    def gc(self, budget_bytes: int,
           dry_run: bool = False) -> Dict[str, object]:
        response = self.request("gc", budget_bytes=budget_bytes,
                                dry_run=dry_run)
        if not response.get("ok"):
            raise ServerError(str(response.get("error")), response)
        return response["gc"]


# --------------------------------------------------------------------- #
# Service adapter
# --------------------------------------------------------------------- #
def _job_payload(kind: str, item: object) -> Dict[str, object]:
    """Map an in-process Job item onto the server's wire payload."""
    from dataclasses import asdict

    if kind == "sweep_point":
        point, base_seed = item
        return {"point": asdict(point), "base_seed": base_seed}
    if kind == "parity_point":
        return {"point": asdict(item)}
    if kind == "fuzz_scenario":
        return {"scenario": item}
    raise ValueError(f"unknown server job kind {kind!r}")


class RemoteService:
    """``ExperimentService``-shaped adapter that executes on a server.

    ``execute(worker, jobs)`` ignores the local worker callable — the
    server dispatches by ``kind`` — but preserves the return contract
    exactly (ordered ``results`` with ``None`` holes for quarantined
    jobs, ``failed_points``, counters, ``job_details``), so
    ``run_sweep``/``run_matrix``/``run_fuzz`` digests keep their shape
    and their ``simulated_sha256`` identity.
    """

    def __init__(self, address: str, kind: str,
                 workers: Optional[int] = None,
                 client_id: Optional[str] = None,
                 net_fault_plan: Optional[NetworkFaultPlan] = None,
                 wait_seconds: float = DEFAULT_WAIT_SECONDS,
                 io_timeout: float = DEFAULT_IO_TIMEOUT,
                 retry_window: float = DEFAULT_RETRY_WINDOW,
                 total_timeout: float = 600.0) -> None:
        if kind not in ("sweep_point", "parity_point", "fuzz_scenario"):
            raise ValueError(f"unknown server job kind {kind!r}")
        self.kind = kind
        self.wait_seconds = wait_seconds
        self.total_timeout = total_timeout
        self.client = ExperimentClient(address, client_id=client_id,
                                       net_fault_plan=net_fault_plan,
                                       io_timeout=io_timeout,
                                       retry_window=retry_window)
        # Advertised parallelism: the server's worker slots (adopted on
        # first contact) or the caller's claim — run_sweep records it.
        self.workers = workers

    def execute(self, worker, jobs: Sequence) -> Dict[str, object]:
        counters: Dict[str, object] = {
            "jobs": len(jobs), "mode": "remote",
            "cache_hits": 0, "cache_misses": 0, **new_counters(),
            "resumed_interrupted": 0, "journal_corrupt_lines": 0,
            "store_corrupt_objects": 0, "resubmits": 0,
        }
        client = self.client
        if self.workers is None:
            # First contact: adopt the server's real parallelism.
            self.workers = int(client.status().get("workers", 1))

        cached_at_submit: set = set()

        def submit(job) -> Dict[str, object]:
            response = client.submit(self.kind,
                                     _job_payload(self.kind, job.item),
                                     name=job.name, key=job.key)
            if response.get("status") == "cached":
                cached_at_submit.add(job.key)
            return response

        for job in jobs:
            submit(job)
            if job.key in cached_at_submit:
                counters["cache_hits"] += 1
            else:
                counters["cache_misses"] += 1

        results: List[Optional[Dict[str, object]]] = [None] * len(jobs)
        failed: List[Dict[str, object]] = []
        details: Dict[str, Dict[str, object]] = {}
        deadline = time.monotonic() + self.total_timeout
        for job in jobs:
            while True:
                if time.monotonic() > deadline:
                    raise TimeoutError(
                        f"job {job.name!r} did not complete within "
                        f"{self.total_timeout}s of campaign start")
                try:
                    response = client.result(job.key,
                                             wait_seconds=self.wait_seconds)
                except ServerError as error:
                    if error.error == protocol.ERROR_UNKNOWN_KEY:
                        # Restarted server: resubmit (cache-safe) and re-poll.
                        counters["resubmits"] += 1
                        client.counters["resubmits"] += 1
                        submit(job)
                        continue
                    raise
                status = response.get("status")
                if status == "pending":
                    continue
                break
            if status == "done":
                results[job.index] = response["digest"]
                attempts = int(response.get("attempts", 1))
                # "cached" means this client never caused an execution:
                # either the server served it from the store, or the job
                # was already done when this client submitted (dedup).
                cached = (bool(response.get("cached"))
                          or job.key in cached_at_submit)
                if cached:
                    # Completed by an earlier session; counted at submit.
                    attempts = 0
                else:
                    counters["executed"] += 1
                    counters["retries"] += max(0, attempts - 1)
                counters["lease_reclaims"] += int(response.get("reclaims", 0))
                details[job.name] = {
                    "attempts": attempts, "cache_hit": cached,
                    "backoff_schedule": list(
                        response.get("backoff_schedule", [])),
                    "straggler": False}
            else:  # failed (quarantined) or cancelled
                failure = dict(response.get("failure")
                               or {"attempts": 0, "reason": status,
                                   "traceback": None})
                failure.setdefault("name", job.name)
                failure.setdefault("key", job.key)
                failed.append(failure)
                counters["quarantined"] += 1
                details[job.name] = {
                    "attempts": int(failure.get("attempts", 0)),
                    "cache_hit": False, "backoff_schedule": [],
                    "straggler": False}

        total = len(jobs)
        counters["cache_hit_rate"] = (round(counters["cache_hits"] / total, 4)
                                      if total else 0.0)
        counters["client"] = dict(client.counters)
        return {"results": results, "failed_points": failed,
                "counters": counters, "job_details": details}

    def close(self) -> None:
        self.client.close()

    def __enter__(self) -> "RemoteService":
        return self

    def __exit__(self, *_exc) -> None:
        self.close()
