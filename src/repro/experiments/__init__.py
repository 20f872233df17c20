"""Experiment orchestration: durable, cached, fault-tolerant sweeps.

:mod:`repro.experiments.sweep` describes a grid of simulation
configurations with deterministic per-config RNG seeding and merges the
resulting reports.  :mod:`repro.experiments.service` runs such grids on a
journaled job queue and a content-addressed result store
(:mod:`repro.experiments.store`); :mod:`repro.experiments.server` serves
the same jobs to many clients.  Both fork every job through one
supervisor (:mod:`repro.experiments.runner`: timeouts, heartbeat leases,
retry/backoff/quarantine), and a deterministic fault-injection harness
(:mod:`repro.experiments.faultinject`) proves a crashed, hung or
killed-and-resumed sweep still produces a byte-identical digest.
"""

from repro.experiments.faultinject import FaultAction, FaultPlan, TransientFault
from repro.experiments.store import Journal, ResultStore, content_key
from repro.experiments.sweep import (
    SweepPoint,
    kips_value,
    merge_point_digests,
    point_seed,
    run_point,
    run_sweep,
    simulated_digest,
    simulated_fingerprint,
    validate_points,
)

# The service module is imported lazily (PEP 562): it is also the package's
# ``python -m repro.experiments.service`` entry point, and an eager import
# here would shadow the runpy execution of that module as ``__main__``.
_SERVICE_EXPORTS = ("ExperimentService", "Job", "demo_grid",
                    "run_resilient_sweep", "sweep_job_key", "sweep_jobs")


def __getattr__(name: str):
    if name in _SERVICE_EXPORTS:
        from repro.experiments import service

        return getattr(service, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


__all__ = [
    "ExperimentService",
    "FaultAction",
    "FaultPlan",
    "Job",
    "Journal",
    "ResultStore",
    "SweepPoint",
    "TransientFault",
    "content_key",
    "demo_grid",
    "kips_value",
    "merge_point_digests",
    "point_seed",
    "run_point",
    "run_resilient_sweep",
    "run_sweep",
    "simulated_digest",
    "simulated_fingerprint",
    "sweep_job_key",
    "sweep_jobs",
    "validate_points",
]
