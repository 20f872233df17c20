"""Before/after sides of a host-time record, shared by the per-layer benches.

``memhier_bench.py``, ``translation_bench.py`` and ``kernel_bench.py``
record host time per call on two sides of a change: ``before`` (the
parent's ``repro`` on ``PYTHONPATH``) and ``after``.  This host's speed
swings by up to 2x between recordings, so one run per side says little:
every run of a side is kept (``<side>_runs``, its per-repeat samples), and
the side's median and quartiles are taken over all of them.  A side whose
``repro`` sources differ from the ones its kept runs measured
(``<side>_source``, a sha256 of the package's files) starts afresh.
Alternate the sides to fill them.
"""

from __future__ import annotations

import hashlib
import statistics
from pathlib import Path
from typing import Dict, Iterable, List

import repro


def summary(samples: List[float]) -> Dict[str, float]:
    q1, median, q3 = statistics.quantiles(samples, n=4, method="inclusive")
    return {"median": round(median, 1), "q1": round(q1, 1), "q3": round(q3, 1),
            "iqr": round(q3 - q1, 1)}


def source_digest() -> str:
    """sha256 of the imported ``repro`` package's source files."""
    root = Path(repro.__file__).parent
    digest = hashlib.sha256()
    for path in sorted(root.rglob("*.py")):
        digest.update(str(path.relative_to(root)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def start_side(section: Dict[str, object], side: str,
               rows: Iterable[Dict[str, object]]) -> None:
    """Drop ``side``'s kept runs from ``rows`` if they measured other sources."""
    source = source_digest()
    if section.get(f"{side}_source") != source:
        for row in rows:
            for key in [key for key in row if key.startswith(f"{side}_")]:
                del row[key]
    section[f"{side}_source"] = source


def check_counters(row: Dict[str, object], stats_sha256: str, label: str) -> None:
    """Refuse a run whose counters differ from the ones the row records."""
    recorded = row.get("stats_sha256")
    if recorded is not None and recorded != stats_sha256:
        raise AssertionError(f"{label}: counters differ from the recorded side "
                             f"({stats_sha256[:12]} vs {recorded[:12]})")


def keep_run(row: Dict[str, object], side: str, metric: str, samples: List[float],
             prefix: str = "") -> None:
    """Add one run's ``samples`` of ``metric`` to ``side`` of ``row`` (under
    ``<side>_<prefix>runs``), summarise the side over every run it keeps,
    and compare it with the other side (``<prefix>speedup``)."""
    runs = row.setdefault(f"{side}_{prefix}runs", [])
    runs.append([round(sample, 1) for sample in samples])
    row[f"{side}_{metric}"] = summary([sample for run in runs for sample in run])
    before, after = row.get(f"before_{metric}"), row.get(f"after_{metric}")
    if before and after:
        row[f"{prefix}speedup"] = round(before["median"] / after["median"], 2)
        # A difference counts only when the medians are further apart than
        # the spread of the before runs.
        row[f"{prefix}resolved"] = abs(before["median"] - after["median"]) > before["iqr"]
    else:
        row.pop(f"{prefix}speedup", None)
        row.pop(f"{prefix}resolved", None)
