"""Fuzz-campaign health bench: fixed-seed coverage, determinism, corpus replay.

Runs the kernel-op scenario fuzzer (:mod:`repro.validation.fuzz`) for a
small fixed-seed budget twice — once single-worker, once fanned over the
experiment service — and records a digest under the ``"fuzz"`` key of
``benchmarks/perf/BENCH_perf.json``:

* the two runs' worker-count-independent summaries must be identical (the
  campaign is a pure function of ``(seed, budget, max_ops)``);
* a healthy build must report **zero** translation-check violations and
  zero crashes;
* the banked regression corpus must replay clean (no violation, no
  unreadable entries);
* coverage over (op-pair × backend) and (op × config-axis) is recorded so a
  generator regression that collapses exploration shows up as a number.

``test_perf_smoke.py`` gates all four properties against this record.

Run standalone from the repo root::

    PYTHONPATH=src python benchmarks/perf/fuzz_bench.py
"""

from __future__ import annotations

import json
import os
import platform
import tempfile
import time
from typing import Dict

from repro.validation.fuzz import replay_corpus, run_fuzz

try:
    from benchmarks.perf.kips_harness import BENCH_PATH
except ImportError:  # executed as a script: the module is a sibling file
    from kips_harness import BENCH_PATH

#: The recorded campaign: small enough for a CI smoke lane, large enough to
#: exercise every op kind and both the single- and multi-worker service paths.
FUZZ_SEED = 2025
FUZZ_BUDGET = 10
FUZZ_MAX_OPS = 8

#: Summary keys that legitimately differ between runs or hosts.
VOLATILE_KEYS = ("wall_seconds", "service")


def stable_summary(summary: Dict[str, object]) -> Dict[str, object]:
    return {key: value for key, value in summary.items()
            if key not in VOLATILE_KEYS}


def measure_fuzz() -> Dict[str, object]:
    """Run the fixed-seed campaign twice and digest its health properties."""
    start = time.perf_counter()
    with tempfile.TemporaryDirectory(prefix="repro-fuzz-bench-") as root:
        single = run_fuzz(FUZZ_BUDGET, FUZZ_SEED, workers=1,
                          max_ops=FUZZ_MAX_OPS,
                          store_root=os.path.join(root, "single"),
                          bank=False, shrink=False)
        fanned = run_fuzz(FUZZ_BUDGET, FUZZ_SEED, workers=2,
                          max_ops=FUZZ_MAX_OPS,
                          store_root=os.path.join(root, "fanned"),
                          bank=False, shrink=False)
    deterministic = stable_summary(single) == stable_summary(fanned)
    corpus_report = replay_corpus()
    wall_seconds = time.perf_counter() - start

    digest = {
        "schema": "fuzz_digest/v2",
        "seed": FUZZ_SEED,
        "budget": FUZZ_BUDGET,
        "max_ops": FUZZ_MAX_OPS,
        "host_cpus": os.cpu_count() or 1,
        "python": platform.python_version(),
        "deterministic_across_workers": deterministic,
        "scenarios": single["scenarios"],
        "clean": single["clean"],
        "violations": len(single["violations"]),
        "crashes": len(single["crashes"]),
        "quarantined": single["quarantined"],
        "coverage": single["coverage"],
        "corpus": {"entries": corpus_report["entries"],
                   "skipped": corpus_report["skipped"],
                   "failures": len(corpus_report["failures"])},
        "wall_seconds": round(wall_seconds, 4),
    }
    if not deterministic:
        raise AssertionError(
            "fixed-seed fuzz campaign differed between workers=1 and "
            "workers=2 — the campaign must be a pure function of the seed")
    if single["violations"] or single["crashes"]:
        raise AssertionError(
            "healthy build failed under fuzzing: "
            f"violations={len(single['violations'])} "
            f"crashes={len(single['crashes'])} "
            f"reproducers={single['reproducers']}")
    return digest


def main() -> None:
    digest = measure_fuzz()
    data = json.loads(BENCH_PATH.read_text()) if BENCH_PATH.exists() else {}
    data["fuzz"] = digest
    BENCH_PATH.write_text(json.dumps(data, indent=2) + "\n")
    print(f"wrote fuzz digest to {BENCH_PATH}")
    coverage = digest["coverage"]
    print(f"  {digest['scenarios']} scenarios @ seed {digest['seed']}: "
          f"{digest['clean']} clean, {digest['violations']} "
          f"violating, {digest['crashes']} crashed")
    print(f"  coverage: {coverage['op_pair_backend']} op-pair x backend, "
          f"{coverage['op_axis']} op x config-axis")
    print(f"  deterministic across worker counts: "
          f"{digest['deterministic_across_workers']}")
    print(f"  corpus replay: {digest['corpus']['entries']} entries, "
          f"{digest['corpus']['failures']} failures, "
          f"{digest['corpus']['skipped']} skipped")


if __name__ == "__main__":
    main()
