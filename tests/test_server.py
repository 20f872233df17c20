"""In-thread coverage of the async experiment server and its client.

Every distributed-systems guarantee of :mod:`repro.experiments.server`
is exercised against a real listening socket on an in-thread server:
content-key deduplication, backpressure with structured ``retry_after``,
queued-job cancellation, graceful drain vs forced stop, abrupt client
disconnects, heartbeat-silence lease reclaim, and the restart/resubmit
recovery loop — plus the wire protocol, the seeded network fault plan's
determinism contract, the imports a forked job is left to pay, and a
scheduler woken by submits and worker exits rather than by its tick.
"""

from __future__ import annotations

import json
import os
import socket
import subprocess
import sys
import threading
import time
from dataclasses import asdict
from pathlib import Path

import pytest

from repro.common.addresses import MB
from repro.experiments import protocol
from repro.experiments import server as server_module
from repro.experiments.client import (
    ExperimentClient,
    RemoteService,
    ServerError,
)
from repro.experiments.faultinject import (
    FaultAction,
    FaultPlan,
    NetworkFaultAction,
    NetworkFaultPlan,
)
from repro.experiments.server import ExperimentServer, ServerThread
from repro.experiments.service import run_resilient_sweep, sweep_job_key
from repro.experiments.sweep import SweepPoint, run_sweep


def net_grid(count: int = 3, ops: int = 300) -> list:
    return [SweepPoint(name=f"net-{index}", workload="RND",
                       workload_kwargs={"footprint_bytes": 1 * MB,
                                        "memory_operations": ops,
                                        "prefault": True, "seed": index})
            for index in range(count)]


def sweep_payload(point: SweepPoint, base_seed: int = 0) -> dict:
    return {"point": asdict(point), "base_seed": base_seed}


def submit_point(client: ExperimentClient, point: SweepPoint) -> str:
    key = sweep_job_key(point, 0)
    client.submit("sweep_point", sweep_payload(point), name=point.name,
                  key=key)
    return key


# --------------------------------------------------------------------- #
# Wire protocol
# --------------------------------------------------------------------- #
class TestProtocol:
    def test_frames_are_canonical_and_roundtrip(self):
        frame = protocol.encode_frame({"verb": "ping", "id": 7})
        assert frame.endswith(b"\n") and frame.count(b"\n") == 1
        # Sorted keys: structurally equal messages are byte-equal.
        assert frame == protocol.encode_frame({"id": 7, "verb": "ping"})
        assert protocol.decode_frame(frame) == {"verb": "ping", "id": 7}

    def test_garbage_raises_protocol_error_not_teardown(self):
        with pytest.raises(protocol.ProtocolError):
            protocol.decode_frame(b"\x00 not json \xff")
        with pytest.raises(protocol.ProtocolError):
            protocol.decode_frame(b"[1, 2, 3]")  # JSON, but not an object

    def test_frame_ceiling_enforced_both_directions(self):
        with pytest.raises(protocol.ProtocolError):
            protocol.encode_frame({"blob": "x" * protocol.MAX_FRAME_BYTES})
        with pytest.raises(protocol.ProtocolError):
            protocol.decode_frame(b"x" * (protocol.MAX_FRAME_BYTES + 1))

    def test_response_shapes(self):
        ok = protocol.ok_response(3, status="done")
        assert ok == {"id": 3, "ok": True, "status": "done"}
        err = protocol.error_response(4, protocol.ERROR_OVERLOADED,
                                      retry_after=0.5)
        assert err["ok"] is False and err["retry_after"] == 0.5


# --------------------------------------------------------------------- #
# Seeded network fault plans
# --------------------------------------------------------------------- #
class TestNetworkFaultPlan:
    def test_seeded_plan_is_deterministic(self):
        kwargs = dict(clients=["c0", "c1"], job_names=["j0", "j1", "j2"])
        one = NetworkFaultPlan.seeded(11, **kwargs)
        two = NetworkFaultPlan.seeded(11, **kwargs)
        assert one.to_json() == two.to_json()
        other = NetworkFaultPlan.seeded(12, **kwargs)
        assert one.to_json() != other.to_json()

    def test_handshake_frame_is_never_targeted(self):
        plan = NetworkFaultPlan.seeded(5, clients=["c"], job_names=["j"],
                                       drops=4, delays=4, disconnects=4,
                                       garbage=4, frame_window=4)
        assert all(action.frame >= 1 for action in plan.actions
                   if action.kind != "drop_heartbeat")

    def test_json_roundtrip_and_counts(self):
        plan = NetworkFaultPlan.seeded(9, clients=["a", "b"],
                                       job_names=["x", "y"],
                                       heartbeat_drops=2)
        back = NetworkFaultPlan.from_json(plan.to_json())
        assert back.actions == plan.actions and back.seed == 9
        assert plan.counts() == {"drop": 1, "delay": 1, "disconnect": 1,
                                 "garbage": 1, "drop_heartbeat": 2}

    def test_heartbeat_drop_keyed_on_job_and_attempt(self):
        plan = NetworkFaultPlan(actions=[NetworkFaultAction(
            "drop_heartbeat", job="victim", attempt=1, stall_seconds=9.0)])
        assert plan.heartbeat_drop("victim", 1).stall_seconds == 9.0
        assert plan.heartbeat_drop("victim", 2) is None
        assert plan.heartbeat_drop("other", 1) is None

    def test_send_actions_match_side_client_and_frame(self):
        action = NetworkFaultAction("drop", side="client", client="c0",
                                    frame=3)
        plan = NetworkFaultPlan(actions=[action])
        assert plan.send_actions("client", "c0", 3) == [action]
        assert plan.send_actions("client", "c1", 3) == []
        assert plan.send_actions("server", "c0", 3) == []
        assert plan.send_actions("client", "c0", 2) == []


# --------------------------------------------------------------------- #
# Server behaviour (in-thread, real sockets)
# --------------------------------------------------------------------- #
class TestServerBasics:
    def test_constructor_rejects_unworkable_timings(self, tmp_path):
        with pytest.raises(ValueError, match="queue_limit"):
            ExperimentServer(tmp_path, queue_limit=0)
        with pytest.raises(ValueError, match="lease_seconds"):
            ExperimentServer(tmp_path, lease_seconds=0.1,
                             heartbeat_interval=0.2)

    def test_submit_execute_fetch_and_dedup_cache(self, tmp_path):
        point = net_grid(1)[0]
        server = ExperimentServer(tmp_path, workers=1, fsync=False)
        with ServerThread(server) as harness:
            with ExperimentClient(harness.address, client_id="c0") as c0:
                key = submit_point(c0, point)
                response = c0.result(key, wait_seconds=30.0)
                assert response["status"] == "done"
                assert response["cached"] is False
            with ExperimentClient(harness.address, client_id="c1") as c1:
                second = c1.submit("sweep_point", sweep_payload(point),
                                   key=key)
                assert second["status"] == "cached"
                assert c1.result(key)["digest"] == response["digest"]
        assert server.counters["executed"] == 1

    def test_concurrent_duplicate_submit_runs_once(self, tmp_path):
        point = net_grid(1)[0]
        # Attempt 1 hangs until the 1s job timeout, attempt 2 lands: a
        # wide deterministic window in which the job is busy.
        plan = FaultPlan(actions=[FaultAction(job=point.name, attempt=1,
                                              kind="hang")])
        server = ExperimentServer(tmp_path, workers=1, job_timeout=1.0,
                                  backoff=0.05, fault_plan=plan, fsync=False)
        with ServerThread(server) as harness:
            with ExperimentClient(harness.address, client_id="c0") as c0, \
                    ExperimentClient(harness.address, client_id="c1") as c1:
                key = submit_point(c0, point)
                duplicate = c1.submit("sweep_point", sweep_payload(point),
                                      key=key)
                assert duplicate["status"] == "duplicate"
                first = c0.result(key, wait_seconds=30.0)
                second = c1.result(key, wait_seconds=30.0)
                assert first["digest"] == second["digest"]
        assert server.counters["executed"] == 1
        assert server.counters["duplicates"] == 1
        assert server.counters["timeouts"] == 1  # the hung attempt

    def test_backpressure_rejects_with_retry_after(self, tmp_path):
        points = net_grid(2)
        plan = FaultPlan(actions=[FaultAction(job=points[0].name, attempt=1,
                                              kind="hang")])
        server = ExperimentServer(tmp_path, workers=1, queue_limit=1,
                                  job_timeout=1.0, backoff=0.05,
                                  fault_plan=plan, fsync=False)
        with ServerThread(server) as harness:
            with ExperimentClient(harness.address, client_id="c0") as c0:
                submit_point(c0, points[0])
                # Raw request: bypass the client's polite retry loop.
                rejection = c0.request(
                    "submit", kind="sweep_point",
                    payload=sweep_payload(points[1]),
                    key=sweep_job_key(points[1], 0))
                assert rejection["ok"] is False
                assert rejection["error"] == protocol.ERROR_OVERLOADED
                assert rejection["retry_after"] > 0
                assert server.counters["rejected_backpressure"] == 1

    def test_cancel_queued_job_but_not_leased(self, tmp_path):
        points = net_grid(2)
        plan = FaultPlan(actions=[FaultAction(job=points[0].name, attempt=1,
                                              kind="hang")])
        server = ExperimentServer(tmp_path, workers=1, queue_limit=4,
                                  job_timeout=1.0, backoff=0.05,
                                  fault_plan=plan, fsync=False)
        with ServerThread(server) as harness:
            with ExperimentClient(harness.address) as client:
                busy = submit_point(client, points[0])
                queued = submit_point(client, points[1])
                deadline = time.monotonic() + 10.0
                while (client.status(busy)["job"]["status"]
                       != protocol.JOB_LEASED):
                    assert time.monotonic() < deadline
                    time.sleep(0.01)
                assert client.cancel(queued)["status"] == "cancelled"
                assert (client.result(queued)["status"] == "cancelled")
                # The leased job is left to land (its result is cacheable).
                assert client.cancel(busy)["cancelled"] is False
                assert client.result(busy,
                                     wait_seconds=30.0)["status"] == "done"
        assert server.counters["cancelled"] == 1

    def test_draining_server_rejects_new_admissions(self, tmp_path):
        points = net_grid(2)
        plan = FaultPlan(actions=[FaultAction(job=points[0].name, attempt=1,
                                              kind="hang")])
        server = ExperimentServer(tmp_path, workers=1, job_timeout=2.0,
                                  backoff=0.05, fault_plan=plan, fsync=False)
        harness = ServerThread(server).start()
        try:
            with ExperimentClient(harness.address) as client:
                submit_point(client, points[0])  # keeps the drain busy
                server._loop.call_soon_threadsafe(server.begin_drain)
                deadline = time.monotonic() + 5.0
                while not server.draining:
                    assert time.monotonic() < deadline
                    time.sleep(0.01)
                with pytest.raises(ServerError) as excinfo:
                    client.submit("sweep_point", sweep_payload(points[1]),
                                  key=sweep_job_key(points[1], 0))
                assert excinfo.value.error == protocol.ERROR_DRAINING
                assert server.counters["rejected_draining"] == 1
        finally:
            harness.stop(timeout=30.0)

    def test_drain_verb_finishes_leased_work_then_acks(self, tmp_path):
        point = net_grid(1)[0]
        server = ExperimentServer(tmp_path, workers=1, fsync=False)
        harness = ServerThread(server).start()
        with ExperimentClient(harness.address) as client:
            key = submit_point(client, point)
            ack = client.drain(hold_seconds=60.0)
            assert ack["drained"] is True and ack["executed"] == 1
        harness.stop()
        # A clean drain terminates the journal segment: nothing in flight.
        from repro.experiments.store import active_journal_keys
        assert active_journal_keys(server.store.journal_path) == set()
        assert key in server.store

    def test_drained_server_leaves_no_scratch_files(self, tmp_path):
        points = net_grid(2)
        plan = FaultPlan(actions=[FaultAction(job=points[0].name, attempt=1,
                                              kind="crash")])
        server = ExperimentServer(tmp_path, workers=1, backoff=0.05,
                                  fault_plan=plan, fsync=False)
        harness = ServerThread(server).start()
        with ExperimentClient(harness.address) as client:
            keys = [submit_point(client, point) for point in points]
            for key in keys:
                assert client.result(key, wait_seconds=30.0)["status"] == "done"
            assert client.drain(hold_seconds=60.0)["drained"] is True
        harness.stop()
        assert server.counters["crashes"] == 1
        leftovers = [path.name for path in (tmp_path / "scratch").iterdir()
                     if path.suffix in (".hb", ".json")]
        assert leftovers == []

    def test_garbage_frames_and_unknown_verbs_are_survivable(self, tmp_path):
        server = ExperimentServer(tmp_path, workers=1, fsync=False)
        with ServerThread(server) as harness:
            host, port = harness.address.split(":")
            with socket.create_connection((host, int(port)), timeout=10) as s:
                reader = s.makefile("rb")
                s.sendall(b"\x00 utter garbage, not json\n")
                s.sendall(protocol.encode_frame({"id": 1, "verb": "nope"}))
                garbage_reply = protocol.decode_frame(reader.readline())
                assert garbage_reply["error"] == protocol.ERROR_PROTOCOL
                response = protocol.decode_frame(reader.readline())
                assert response["error"] == protocol.ERROR_UNKNOWN_VERB
                s.sendall(protocol.encode_frame({"id": 2, "verb": "ping"}))
                assert protocol.decode_frame(reader.readline())["pong"]
        assert server.counters["garbage_frames"] == 1

    def test_hello_rejects_version_skew(self, tmp_path):
        server = ExperimentServer(tmp_path, workers=1, fsync=False)
        with ServerThread(server) as harness:
            with ExperimentClient(harness.address) as client:
                response = client.request("hello",
                                          version="experiment-server/v0")
                assert response["ok"] is False
                assert response["error"] == protocol.ERROR_BAD_REQUEST
                assert protocol.PROTOCOL_VERSION in str(
                    response.get("detail", response))

    def test_abrupt_client_disconnect_does_not_lose_the_job(self, tmp_path):
        point = net_grid(1)[0]
        server = ExperimentServer(tmp_path, workers=1, fsync=False)
        with ServerThread(server) as harness:
            c0 = ExperimentClient(harness.address, client_id="ghost")
            key = submit_point(c0, point)
            c0.close()  # vanish without waiting
            with ExperimentClient(harness.address, client_id="heir") as c1:
                response = c1.result(key, wait_seconds=30.0)
                assert response["status"] == "done"
        assert server.counters["executed"] == 1
        assert server.counters["disconnects"] >= 1


class TestLeaseReclaim:
    def test_silent_owner_is_reclaimed_and_retried(self, tmp_path):
        point = net_grid(1)[0]
        net_plan = NetworkFaultPlan(actions=[NetworkFaultAction(
            "drop_heartbeat", job=point.name, attempt=1,
            stall_seconds=30.0)])
        server = ExperimentServer(tmp_path, workers=1, lease_seconds=0.5,
                                  heartbeat_interval=0.1, backoff=0.05,
                                  net_fault_plan=net_plan, fsync=False)
        with ServerThread(server) as harness:
            with ExperimentClient(harness.address) as client:
                key = submit_point(client, point)
                response = client.result(key, wait_seconds=30.0)
        assert response["status"] == "done"
        assert response["attempts"] == 2
        assert response["reclaims"] == 1
        assert server.counters["lease_reclaims"] == 1
        records = [json.loads(line) for line in
                   server.store.journal_path.read_text().splitlines()]
        assert any(r.get("event") == "lease_reclaimed" for r in records)


class TestRestartRecovery:
    def test_forced_stop_then_restart_serves_from_store(self, tmp_path):
        point = net_grid(1)[0]
        first = ExperimentServer(tmp_path, workers=1, fsync=False)
        with ServerThread(first) as harness:
            with ExperimentClient(harness.address) as client:
                key = submit_point(client, point)
                digest = client.result(key, wait_seconds=30.0)["digest"]
            # Context exit is a *forced* stop: the segment stays open,
            # exactly like a SIGKILL.
        second = ExperimentServer(tmp_path, workers=1, fsync=False)
        with ServerThread(second) as harness:
            with ExperimentClient(harness.address) as client:
                # The fresh server has never seen the key in memory...
                resubmit = client.submit("sweep_point",
                                         sweep_payload(point), key=key)
                # ...but the store has: served as a cache hit, not re-run.
                assert resubmit["status"] == "cached"
                assert client.result(key)["digest"] == digest
        assert second.counters["executed"] == 0
        assert second.counters["cache_hits"] == 1

    def test_unknown_key_is_the_resubmit_signal(self, tmp_path):
        server = ExperimentServer(tmp_path, workers=1, fsync=False)
        with ServerThread(server) as harness:
            with ExperimentClient(harness.address) as client:
                with pytest.raises(ServerError) as excinfo:
                    client.result("no-such-key")
                assert excinfo.value.error == protocol.ERROR_UNKNOWN_KEY


class TestRemoteSweep:
    def test_server_sweep_matches_straight_line_run(self, tmp_path):
        points = net_grid(3)
        baseline = run_sweep(points, workers=1)
        server = ExperimentServer(tmp_path / "store", workers=1, fsync=False)
        with ServerThread(server) as harness:
            digest = run_resilient_sweep(points,
                                         store_root=tmp_path / "client",
                                         server=harness.address)
            again = run_resilient_sweep(points,
                                        store_root=tmp_path / "client2",
                                        server=harness.address)
        assert digest["simulated_sha256"] == baseline["simulated_sha256"]
        assert again["simulated_sha256"] == baseline["simulated_sha256"]
        assert digest["service"]["mode"] == "remote"
        assert digest["service"]["executed"] == 3
        # The second sweep is served entirely from the server's memory.
        assert again["service"]["cache_hits"] == 3
        assert again["service"]["executed"] == 0

    def test_remote_gc_protects_active_segment(self, tmp_path):
        points = net_grid(2)
        server = ExperimentServer(tmp_path, workers=1, fsync=False)
        with ServerThread(server) as harness:
            with ExperimentClient(harness.address) as client:
                keys = [submit_point(client, point) for point in points]
                for key in keys:
                    client.result(key, wait_seconds=30.0)
                # Budget 0 would evict everything, but the live segment
                # references both keys: nothing may be dropped.
                report = client.gc(0)
                assert report["evicted"] == []
                assert sorted(report["protected_skipped"]) == sorted(keys)


# --------------------------------------------------------------------- #
# Worker start-up cost
# --------------------------------------------------------------------- #
#: Runs one sweep job the way a lease worker does, in the parent of a
#: runner that has just forked a ``sweep_point`` attempt: everything the
#: server and the warm-up loaded is inherited, the rest is imported by the
#: job itself.  ``warm`` gives the task the kind's modules, as the server
#: does; ``cold`` drops them.  Prints the modules the job pulled in.
WORKER_IMPORT_PROBE = """
import json
import sys
import tempfile
import time
from pathlib import Path

import repro.experiments.server as server
from repro.experiments.runner import JobRunner, new_counters

payload = {"point": {"name": "import-probe", "workload": "RND",
                     "workload_kwargs": {"footprint_bytes": 1 << 20,
                                         "memory_operations": 50,
                                         "prefault": True, "seed": 1}},
           "base_seed": 0}
modules = (server.JOB_KINDS["sweep_point"].modules
           if sys.argv[1] == "warm" else ())
with tempfile.TemporaryDirectory() as scratch:
    runner = JobRunner(server._run_job, 1, Path(scratch), new_counters())
    runner.submit(server.ServerJob(key="probe", name="probe",
                                   item=("sweep_point", payload),
                                   modules=modules, kind="sweep_point"))
    runner.step(time.monotonic())  # imports ``modules``, then forks
    assert len(runner.running) == 1
    before = set(sys.modules)
    server._run_sweep_job(payload)
    loaded = sorted(set(sys.modules) - before)
    while runner.busy:
        runner.step(time.monotonic())
        time.sleep(0.01)
print(json.dumps(loaded))
"""


def probe_worker_imports(mode: str) -> list:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(Path(__file__).resolve().parents[1] / "src")]
        + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    result = subprocess.run([sys.executable, "-c", WORKER_IMPORT_PROBE, mode],
                            env=env, capture_output=True, text=True,
                            timeout=120)
    assert result.returncode == 0, result.stderr
    return json.loads(result.stdout.strip().splitlines()[-1])


class TestWorkerImports:
    @pytest.fixture(scope="class")
    def cold(self):
        return probe_worker_imports("cold")

    def test_sweep_job_imports_only_stdlib_and_repro(self, cold):
        """Every forked job pays for each module it imports that the server
        parent has not; a third-party import there (numpy once cost ~165 ms
        a job) would dominate a short job's latency."""
        loaded = {name.split(".")[0] for name in cold}
        assert "repro" in loaded
        foreign = [name for name in loaded
                   if name != "repro" and name not in sys.stdlib_module_names]
        assert foreign == [], f"sweep job imported non-stdlib modules: {foreign}"

    def test_warm_fork_leaves_the_sweep_job_nothing_to_import(self, cold):
        """The server imports a kind's modules before its first fork, so a
        sweep job starts its timer without importing anything."""
        assert probe_worker_imports("warm") == []
        # Sensitivity: without the warm-up the job imports the workloads.
        assert "repro.workloads" in cold


# --------------------------------------------------------------------- #
# Event-driven supervision
# --------------------------------------------------------------------- #
#: A tick no job in these tests survives: only a wake-up finishes one.
LONG_TICK_SECONDS = 30.0
#: Loose per-job bound, far above a tiny job and far below the tick.
PROMPT_SECONDS = 10.0


class TestEventDrivenScheduler:
    def test_submit_and_worker_exit_wake_the_scheduler(self, tmp_path,
                                                       monkeypatch):
        """Back-to-back jobs reuse sentinel fd numbers: each must still be
        launched on its submit and reaped on its worker's exit, not on the
        scheduler's tick."""
        monkeypatch.setattr(server_module, "POLL_SECONDS", LONG_TICK_SECONDS)
        server = ExperimentServer(tmp_path, workers=2, fsync=False)
        with ServerThread(server) as harness:
            watched = []
            watch = server.runner.watch
            server.runner.watch = lambda fd: (watched.append(fd), watch(fd))
            with ExperimentClient(harness.address, client_id="c0") as client:
                for point in net_grid(6, ops=100):
                    start = time.monotonic()
                    key = submit_point(client, point)
                    response = client.result(key, wait_seconds=PROMPT_SECONDS)
                    assert response["status"] == "done", point.name
                    assert time.monotonic() - start < PROMPT_SECONDS
        assert server.counters["executed"] == 6
        assert len(watched) == 6
        assert len(set(watched)) < len(watched), "no sentinel fd was reused"
