"""Translation cost: host nanoseconds per ``access_data_fast`` and per ``walk``.

Every application load and store enters the MMU through
``MMU.access_data_fast`` (the ``mmu.access`` layer of ``perfbench
--trace 1``), and every TLB miss walks the page table through
``PageTableBase.walk`` (the ``pagetables.walk`` layer).  This tool times
both.

Three fixed access mixes run through ``access_data_fast`` on the paper's
``SystemConfig()`` TLBs and caches, over a prefilled radix table of 4 KB
pages (no faults), as the core model runs it:

* ``l1_tlb`` -- 48 pages, inside the 64-entry L1 4 KB data TLB;
* ``l2_tlb`` -- 1,024 pages, past the L1 TLB's reach but inside the
  2,048-entry L2 TLB's;
* ``gups_walks`` -- GUPS read-modify-write updates over 64 MB (16,384
  pages), so most accesses miss the L2 TLB and walk.

Walks are timed per backend: radix and the three range schemes of
``perfbench``'s ``range_backends`` workload that the MMU walks (Utopia,
RMM, direct segments).  Midgard and VBI have no walk: the MMU translates
them in two steps around the data access.  Each repeat builds a 256 MB system with that backend,
prefaults a 16 MB GUPS footprint and walks a fixed sample of its pages.
Backends do different work per walk, so compare them by time per walk:
their simulated KIPS also folds in how many walks each one needs.

The same loops are timed with a do-nothing function of the same signature
and that time is subtracted.  A pass from a fresh system always leaves
the same counters; their sha256 (``stats_sha256``) is recorded per mix
and per backend, and ``test_perf_smoke.py`` checks it without timing
anything.  The record goes to ``benchmarks/perf/BENCH_perf.json`` under
``"translation"``; ``--side`` names which side of a change the imported
``repro`` is, and a side whose counters differ from the other side's
record is refused.  One run on this host can be off by 20 %, so every run
of a side is kept and a side whose ``repro`` sources changed starts
afresh (see ``sides.py``).  Alternate the sides from the repo root::

    PYTHONPATH=src python benchmarks/perf/translation_bench.py --side after
    PYTHONPATH=<parent checkout>/src python benchmarks/perf/translation_bench.py --side before
    PYTHONPATH=src python benchmarks/perf/translation_bench.py --side after
"""

from __future__ import annotations

import argparse
import hashlib
import json
import platform
import random
import sys
import time
from pathlib import Path
from typing import Callable, Dict, List, Tuple

from repro.common.addresses import MB, PAGE_SIZE_4K
from repro.common.config import PageTableConfig, SystemConfig, scaled_system_config
from repro.core.virtuoso import Virtuoso
from repro.memhier.memory_system import MemoryHierarchy
from repro.mmu.mmu import MMU
from repro.mmu.tlb import TLBHierarchy
from repro.pagetables.radix import RadixPageTable
from repro.workloads.registry import build_workload

sys.path.insert(0, str(Path(__file__).parent))
from sides import check_counters, keep_run, start_side  # noqa: E402

BENCH_PATH = Path(__file__).parent / "BENCH_perf.json"

#: Accesses per mix, walks per backend and timed repeats per side.
ACCESSES = 30_000
WALKS = 10_000
REPEATS = 7

#: Base of the mixes' virtual pages and of the frames that back them.
VIRTUAL_BASE = 0x7F00_0000_0000
PHYSICAL_BASE = 0x1000_0000

WALK_BACKENDS = ("radix", "utopia", "rmm", "direct_segment")

Op = Tuple[int, bool]


def _page_mix(rng: random.Random, pages: int) -> List[Op]:
    return [(VIRTUAL_BASE + rng.randrange(pages) * PAGE_SIZE_4K + rng.randrange(512) * 8,
             rng.random() < 0.3) for _ in range(ACCESSES)]


def gups_mix(rng: random.Random) -> List[Op]:
    ops: List[Op] = []
    for _ in range(ACCESSES // 2):
        address = VIRTUAL_BASE + rng.randrange((64 * MB) // 8) * 8
        ops.append((address, False))
        ops.append((address, True))
    return ops


#: Mix name -> (pages mapped, op generator).
MIXES: Dict[str, Tuple[int, Callable[[random.Random], List[Op]]]] = {
    "l1_tlb": (48, lambda rng: _page_mix(rng, 48)),
    "l2_tlb": (1024, lambda rng: _page_mix(rng, 1024)),
    "gups_walks": ((64 * MB) // PAGE_SIZE_4K, gups_mix),
}


def mix_ops(name: str) -> List[Op]:
    return MIXES[name][1](random.Random(f"translation-bench-{name}"))


def build_mmu(pages: int) -> MMU:
    """The paper's TLBs and caches over a radix table mapping ``pages`` pages."""
    config = SystemConfig()
    tlbs = TLBHierarchy(config.l1i_tlb, config.l1d_tlb_4k, config.l1d_tlb_2m, config.l2_tlb)
    mmu = MMU(tlbs, MemoryHierarchy.from_system_config(config))
    table = RadixPageTable()
    for page in range(pages):
        table.insert(VIRTUAL_BASE + page * PAGE_SIZE_4K, PHYSICAL_BASE + page * PAGE_SIZE_4K,
                     PAGE_SIZE_4K)
    mmu.set_context(1, table)
    return mmu


def _noop_access(address: int, is_write: bool, pc: int) -> None:
    return None


def _timed_accesses(access: Callable[[int, bool, int], object], ops: List[Op]) -> float:
    start = time.perf_counter()
    for address, is_write in ops:
        access(address, is_write, 0)
    return time.perf_counter() - start


def mmu_digest(mmu: MMU) -> str:
    encoded = json.dumps({"mmu": mmu.stats(), "memory": mmu.memory.stats()},
                         sort_keys=True)
    return hashlib.sha256(encoded.encode()).hexdigest()


def mix_pass(name: str, ops: List[Op]) -> Tuple[MMU, float]:
    """A fresh MMU after one timed pass of ``ops``, and the pass time."""
    mmu = build_mmu(MIXES[name][0])
    return mmu, _timed_accesses(mmu.access_data_fast, ops)


def mix_digest(name: str) -> str:
    """The counters one pass of mix ``name`` leaves, as a sha256."""
    return mmu_digest(mix_pass(name, mix_ops(name))[0])


def build_walk_system(kind: str):
    """A system of backend ``kind`` with a prefaulted 16 MB GUPS footprint,
    its page table, its memory hierarchy and the addresses to walk."""
    config = scaled_system_config(name=f"translation-bench-{kind}",
                                  physical_memory_bytes=256 * MB,
                                  fragmentation_target=1.0, thp_policy="never")
    if kind != "radix":
        config = config.with_page_table(PageTableConfig(kind=kind))
    system = Virtuoso(config, seed=7)
    workload = build_workload("RND", footprint_bytes=16 * MB, memory_operations=64,
                              prefault=False, seed=7)
    process = system.map_workload(workload)
    pages = list(workload.prefault_addresses(process))
    system.prefault(process, pages)
    rng = random.Random(f"translation-bench-walk-{kind}")
    addresses = [rng.choice(pages) + rng.randrange(512) * 8 for _ in range(WALKS)]
    return system, process.page_table, system.memory, addresses


def _noop_walk(address: int, memory: object) -> None:
    return None


def _timed_walks(walk: Callable[[int, object], object], memory: object,
                 addresses: List[int]) -> float:
    start = time.perf_counter()
    for address in addresses:
        walk(address, memory)
    return time.perf_counter() - start


def walk_pass(kind: str) -> Tuple[str, float, float]:
    """(stats sha256, walk seconds, do-nothing seconds) of one fresh pass."""
    system, table, memory, addresses = build_walk_system(kind)
    overhead = _timed_walks(_noop_walk, memory, addresses)
    seconds = _timed_walks(table.walk, memory, addresses)
    encoded = json.dumps({"table": table.stats(), "memory": memory.stats()}, sort_keys=True)
    return hashlib.sha256(encoded.encode()).hexdigest(), seconds, overhead


def walk_digest(kind: str) -> str:
    """The counters one pass of walks on backend ``kind`` leaves, as a sha256."""
    return walk_pass(kind)[0]


def measure_mix(name: str, repeats: int = REPEATS) -> Dict[str, object]:
    ops = mix_ops(name)
    per_access: List[float] = []
    digests = set()
    walks = 0
    for _ in range(repeats):
        overhead = _timed_accesses(_noop_access, ops)
        mmu, seconds = mix_pass(name, ops)
        digests.add(mmu_digest(mmu))
        walks = mmu.counters.get("page_walks")
        per_access.append((seconds - overhead) * 1e9 / len(ops))
    if len(digests) != 1:
        raise AssertionError(f"{name}: repeats left different counters")
    return {"accesses": len(ops), "stats_sha256": digests.pop(),
            "walk_share": round(walks / len(ops), 3),
            "ns_per_access": [round(sample, 1) for sample in per_access]}


def measure_walks(kind: str, repeats: int = REPEATS) -> Dict[str, object]:
    per_walk: List[float] = []
    digests = set()
    for _ in range(repeats):
        digest, seconds, overhead = walk_pass(kind)
        digests.add(digest)
        per_walk.append((seconds - overhead) * 1e9 / WALKS)
    if len(digests) != 1:
        raise AssertionError(f"{kind}: repeats left different counters")
    return {"walks": WALKS, "stats_sha256": digests.pop(),
            "ns_per_walk": [round(sample, 1) for sample in per_walk]}


def _merge(row: Dict[str, object], measured: Dict[str, object], side: str,
           metric: str, label: str) -> None:
    """Add one run's samples to ``side`` of ``row`` and summarise the side
    over every run it keeps."""
    check_counters(row, measured["stats_sha256"], label)
    row.update({key: value for key, value in measured.items() if key != metric})
    keep_run(row, side, metric, measured[metric])


def record(side: str, repeats: int = REPEATS) -> Dict[str, object]:
    data = json.loads(BENCH_PATH.read_text()) if BENCH_PATH.exists() else {}
    section = data.get("translation") or {"mixes": {}, "walks": {}}
    start_side(section, side, (*section["mixes"].values(), *section["walks"].values()))
    section.update({
        "schema": "translation/v1",
        "layers": "mmu.access: MMU.access_data_fast; pagetables.walk: PageTableBase.walk",
        "config": "SystemConfig() TLBs and caches, radix 4 KB pages "
                  "(mixes); scaled 256 MB systems, 16 MB prefaulted GUPS (walks)",
        "accesses_per_mix": ACCESSES,
        "walks_per_backend": WALKS,
        "repeats": repeats,
        "unit": "host ns per call, loop overhead subtracted",
        "host": {"python": platform.python_version(), "machine": platform.machine()},
    })
    for name in MIXES:
        _merge(section["mixes"].setdefault(name, {}), measure_mix(name, repeats), side,
               "ns_per_access", name)
    for kind in WALK_BACKENDS:
        _merge(section["walks"].setdefault(kind, {}), measure_walks(kind, repeats), side,
               "ns_per_walk", f"{kind} walks")
    data["translation"] = section
    BENCH_PATH.write_text(json.dumps(data, indent=2) + "\n")
    return section


def _cells(row: Dict[str, object], metric: str) -> str:
    cells = [f"{side} {row[f'{side}_{metric}']['median']:.0f} ns "
             f"(IQR {row[f'{side}_{metric}']['iqr']:.0f}, {len(row.get(f'{side}_runs', []))} runs)"
             for side in ("before", "after") if f"{side}_{metric}" in row]
    speedup = f"  {row['speedup']}x" if "speedup" in row else ""
    return f"{' -> '.join(cells)}{speedup}  {row['stats_sha256'][:12]}"


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--side", choices=("before", "after"), default="after",
                        help="which side of a change the imported repro is")
    args = parser.parse_args()
    section = record(args.side)
    print(f"wrote the translation {args.side} side to {BENCH_PATH}")
    for name, row in section["mixes"].items():
        print(f"  access {name:14s} walks {row['walk_share']:.0%}  "
              f"{_cells(row, 'ns_per_access')}")
    for kind, row in section["walks"].items():
        print(f"  walk   {kind:14s} {_cells(row, 'ns_per_walk')}")


if __name__ == "__main__":
    main()
