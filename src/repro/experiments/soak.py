"""Multi-client soak of the experiment server under injected faults.

This is the robustness acceptance gate for
:mod:`repro.experiments.server` (CLI:
``python -m repro.experiments.server soak``): it drives the whole fault
matrix in one campaign and checks the only two properties that matter —
**every job executed exactly once** and the merged digest is
**byte-identical** to a straight-line single-client run.

The campaign:

* N concurrent clients submit *overlapping* slices of one sweep grid
  (overlap forces the dedup path: identical content keys submitted by
  different clients must run once);
* a seeded :class:`~repro.experiments.faultinject.NetworkFaultPlan`
  injects at least one dropped frame, one delayed frame, one garbage
  frame, one mid-campaign client disconnect, and one dropped heartbeat
  (a silent lease owner the server must reclaim and re-queue);
* the server itself is SIGKILLed mid-campaign and restarted on the same
  port — clients ride the reconnect/resubmit path, completed jobs come
  back from the restarted server's store, nothing runs twice;
* a seeded **sensitivity self-test** proves the lease machinery is load-
  bearing: the same grid with heartbeats silenced must hang-detect,
  reclaim, and still converge, while the fault-free control run reclaims
  nothing.
"""

from __future__ import annotations

import json
import os
import signal
import subprocess
import sys
import tempfile
import threading
import time
from pathlib import Path
from typing import Dict, List, Optional, Sequence

from repro.experiments.faultinject import NetworkFaultPlan
from repro.experiments.store import Journal, atomic_write_text
from repro.experiments.service import (
    count_completed,
    demo_grid,
    journal_progress,
    src_env,
)

#: Lease/heartbeat timing of the soak servers: tight enough that a
#: silent-owner reclaim costs ~a second, loose enough that a healthy
#: worker under CI load never trips it.
SOAK_LEASE_SECONDS = 1.0
SOAK_HEARTBEAT_INTERVAL = 0.1

#: Stall of the silenced worker: must dwarf the lease (so the reclaim is
#: unambiguous) but stay finite so orphaned workers exit on their own.
SOAK_STALL_SECONDS = 60.0


def _spawn_server(store_root: Path, ready_file: Path, plan_file: Path,
                  port: int = 0) -> subprocess.Popen:
    ready_file.unlink(missing_ok=True)
    command = [sys.executable, "-m", "repro.experiments.server", "serve",
               "--store", str(store_root), "--port", str(port),
               "--ready-file", str(ready_file), "--workers", "1",
               "--lease", str(SOAK_LEASE_SECONDS),
               "--heartbeat-interval", str(SOAK_HEARTBEAT_INTERVAL),
               "--retries", "2", "--backoff", "0.05", "--no-fsync",
               "--net-fault-plan", str(plan_file)]
    return subprocess.Popen(command, env=src_env(),
                            stdout=subprocess.DEVNULL,
                            stderr=subprocess.DEVNULL)


def _await_ready(ready_file: Path, proc: subprocess.Popen,
                 timeout: float = 30.0) -> Dict[str, object]:
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if proc.poll() is not None:
            raise RuntimeError(f"soak server exited with {proc.returncode} "
                               f"before becoming ready")
        if ready_file.exists():
            try:
                return json.loads(ready_file.read_text())
            except ValueError:
                pass  # torn write: retry
        time.sleep(0.02)
    raise RuntimeError("soak server never wrote its ready file")


def _client_slices(points: Sequence, clients: int) -> List[List]:
    """Overlapping circular slices: every point covered, heavy overlap."""
    span = max(2, (len(points) * 5) // 8)
    slices = []
    for index in range(clients):
        start = (index * max(1, len(points) // clients)) % len(points)
        rotated = list(points[start:]) + list(points[:start])
        slices.append(rotated[:span])
    covered = {p.name for s in slices for p in s}
    missing = [p for p in points if p.name not in covered]
    if missing:  # guarantee full coverage regardless of geometry
        slices[0].extend(missing)
    return slices


def _sensitivity_run(points, seed: int) -> Dict[str, object]:
    """Prove the lease reclaim is load-bearing: silence one owner.

    Control: the fault-free run reclaims nothing.  Probe: the same grid
    with the victim's heartbeats suppressed (and the worker stalled) must
    detect the silent owner inside the lease window, reclaim, re-queue,
    and still converge to the straight-line digest on attempt 2.
    """
    from repro.experiments.client import RemoteService
    from repro.experiments.faultinject import NetworkFaultAction
    from repro.experiments.server import ExperimentServer, ServerThread
    from repro.experiments.sweep import run_sweep

    want = run_sweep(points, workers=1)["simulated_sha256"]
    victim = sorted(point.name for point in points)[0]

    def one_run(plan: Optional[NetworkFaultPlan]) -> Dict[str, object]:
        root = tempfile.mkdtemp(prefix="repro-soak-sens-")
        server = ExperimentServer(root, workers=1,
                                  lease_seconds=SOAK_LEASE_SECONDS,
                                  heartbeat_interval=SOAK_HEARTBEAT_INTERVAL,
                                  retries=2, backoff=0.05,
                                  net_fault_plan=plan, fsync=False)
        with ServerThread(server) as thread:
            digest = run_sweep(points, service=RemoteService(
                thread.address, "sweep_point", client_id="sensitivity"))
        records, _ = Journal(server.store.journal_path).replay()
        reclaims = sum(1 for r in records
                       if r.get("event") == "lease_reclaimed")
        attempts = {d["attempts"] for n, d in digest["job_details"].items()
                    if n == victim}
        return {"sha": digest["simulated_sha256"], "reclaims": reclaims,
                "victim_attempts": (attempts.pop() if attempts else 0),
                "quarantined": digest["service"]["quarantined"]}

    control = one_run(None)
    probe = one_run(NetworkFaultPlan(actions=[NetworkFaultAction(
        "drop_heartbeat", job=victim, attempt=1,
        stall_seconds=SOAK_STALL_SECONDS)], seed=seed))
    return {
        "victim": victim,
        "control_reclaims": control["reclaims"],
        "probe_reclaims": probe["reclaims"],
        "victim_attempts": probe["victim_attempts"],
        "reclaim_fired": (control["reclaims"] == 0
                          and probe["reclaims"] >= 1
                          and probe["victim_attempts"] == 2),
        "converged": (control["sha"] == want and probe["sha"] == want
                      and probe["quarantined"] == 0),
    }


def run_soak(clients: int = 4, points: int = 8, demo_ops: int = 3000,
             seed: int = 2025, kills: int = 1) -> Dict[str, object]:
    """The full soak campaign; returns the acceptance digest."""
    from repro.experiments.client import RemoteService
    from repro.experiments.sweep import run_sweep

    if clients < 2:
        raise ValueError(f"a soak needs at least 2 clients, got {clients}")
    start = time.perf_counter()
    grid = demo_grid(points, memory_operations=demo_ops)
    baseline = run_sweep(grid, workers=1)
    want = baseline["simulated_sha256"]

    client_ids = [f"soak-{index}" for index in range(clients)]
    plan = NetworkFaultPlan.seeded(
        seed, clients=client_ids, job_names=[p.name for p in grid],
        drops=1, delays=1, disconnects=1, garbage=1, heartbeat_drops=1,
        frame_window=6, delay_seconds=0.02,
        stall_seconds=SOAK_STALL_SECONDS)

    root = Path(tempfile.mkdtemp(prefix="repro-soak-"))
    ready_file = root / "ready.json"
    plan_file = root / "net_fault_plan.json"
    atomic_write_text(plan_file, plan.to_json())
    journal_path = root / "store" / "journal.jsonl"

    proc = _spawn_server(root / "store", ready_file, plan_file)
    info = _await_ready(ready_file, proc)
    address = f"{info['host']}:{info['port']}"

    slices = _client_slices(grid, clients)
    outcomes: List[Optional[Dict[str, object]]] = [None] * clients
    errors: List[str] = []

    def client_main(index: int) -> None:
        try:
            service = RemoteService(address, "sweep_point",
                                    client_id=client_ids[index],
                                    net_fault_plan=plan,
                                    io_timeout=3.0, wait_seconds=0.5,
                                    retry_window=90.0, total_timeout=300.0)
            digest = run_sweep(slices[index], service=service)
            outcomes[index] = {"digest": digest,
                               "client": dict(service.client.counters)}
        except Exception as error:  # surfaced in the acceptance digest
            errors.append(f"{client_ids[index]}: {error!r}")

    threads = [threading.Thread(target=client_main, args=(index,))
               for index in range(clients)]
    for thread in threads:
        thread.start()

    # SIGKILL the server mid-campaign (after progress, before the end),
    # then restart it on the same port; repeat for each requested kill.
    server_kills = 0
    for _ in range(kills):
        deadline = time.monotonic() + 120.0
        while time.monotonic() < deadline:
            done = count_completed(journal_path)
            if done >= 1 and any(t.is_alive() for t in threads):
                break
            if not any(t.is_alive() for t in threads):
                break
            time.sleep(0.02)
        if not any(t.is_alive() for t in threads):
            break  # campaign already finished; nothing left to kill
        os.kill(proc.pid, signal.SIGKILL)
        proc.wait()
        server_kills += 1
        proc = _spawn_server(root / "store", ready_file, plan_file,
                             port=int(info["port"]))
        info = _await_ready(ready_file, proc)

    for thread in threads:
        thread.join(300.0)
    stuck = [client_ids[i] for i, t in enumerate(threads) if t.is_alive()]
    if stuck:
        errors.append(f"clients never finished: {stuck}")

    # Merged full-grid pass: every point must now be served (from cache or
    # the in-flight tail) and the merged digest must equal the baseline.
    merger = RemoteService(address, "sweep_point", client_id="soak-merge",
                           io_timeout=3.0, wait_seconds=0.5,
                           retry_window=90.0, total_timeout=300.0)
    merged = run_sweep(grid, service=merger)
    got = merged["simulated_sha256"]

    # Graceful drain of the final server, then audit the journal.
    from repro.experiments.client import ExperimentClient

    drainer = ExperimentClient(address, client_id="soak-drain")
    drainer.drain()
    drainer.close()
    proc.wait(30.0)

    journal = Journal(journal_path)
    records, corrupt_lines = journal.replay()
    completions: Dict[str, int] = {}
    for record in records:
        if record.get("event") == "job_completed":
            key = str(record.get("key"))
            completions[key] = completions.get(key, 0) + 1
    exactly_once = bool(completions) and all(
        count == 1 for count in completions.values())
    lease_reclaims = sum(1 for r in records
                         if r.get("event") == "lease_reclaimed")
    client_disconnects = sum(
        (outcome or {}).get("client", {}).get("injected_disconnects", 0)
        for outcome in outcomes)
    reconnects = sum(
        (outcome or {}).get("client", {}).get("reconnects", 0)
        for outcome in outcomes)

    sensitivity = _sensitivity_run(demo_grid(2, memory_operations=demo_ops),
                                   seed=seed + 1)

    per_client = []
    for index, outcome in enumerate(outcomes):
        if outcome is None:
            per_client.append({"client": client_ids[index], "failed": True})
            continue
        service_counters = outcome["digest"]["service"]
        per_client.append({
            "client": client_ids[index],
            "points": len(slices[index]),
            "executed": service_counters["executed"],
            "cache_hits": service_counters["cache_hits"],
            "resubmits": service_counters["resubmits"],
            "reconnects": outcome["client"]["reconnects"],
            "timeouts": outcome["client"]["timeouts"],
            "sha256": outcome["digest"]["simulated_sha256"],
        })

    return {
        "schema": "server_soak/v1",
        "clients": clients,
        "points": points,
        "demo_ops": demo_ops,
        "seed": seed,
        "kills_requested": kills,
        "server_kills": server_kills,
        "baseline_sha256": want,
        "merged_sha256": got,
        "digest_identical": got == want,
        "exactly_once": exactly_once,
        "completions": sum(completions.values()),
        "unique_keys": len(completions),
        "lease_reclaims": lease_reclaims,
        "client_disconnects": client_disconnects,
        "client_reconnects": reconnects,
        "journal_corrupt_lines": corrupt_lines,
        "journal_progress": journal_progress(records),
        "injected": plan.counts(),
        "errors": errors,
        "per_client": per_client,
        "sensitivity": sensitivity,
        "wall_seconds": round(time.perf_counter() - start, 3),
    }
