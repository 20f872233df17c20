"""Reachability audit: the functions of ``src/repro`` no entry point calls.

Every function and method defined under ``src/repro`` is listed from the
source (``ast``), then each production entry point runs in this process
under a profiler that records every code object of ``src/repro`` it sees
start.  A function the profiler never sees is *unreached*: only tests call
it, or nothing does.  The entry points are:

* the three simulator workloads of ``perfbench/run.py`` (``--seconds 1``,
  ``--trace 0`` and ``--trace 1``, seed 1);
* the 17 figure and table tests under ``benchmarks/``, each called with a
  stub ``benchmark`` fixture (``pedantic(fn)`` returns ``fn()``) and the
  real ``record_figure``, which rewrites ``benchmarks/results/``;
* ``parity --full``, ``fuzz --budget 12 --no-bank`` with and without
  ``--break shootdown``, and ``fuzz --replay-corpus``;
* the six ``examples/`` scripts;
* the whole-program lint;
* ``service run --demo 4``, ``service kill-resume-smoke`` and
  ``server soak``.

Every CLI runs with ``--workers 1`` where it has the option, so its jobs
run inline in this process.  What a forked worker executes (the
kill-resume smoke's and the soak's jobs) is invisible to the profile, so
the summary reports the simulator packages (``SIMULATOR``) apart from the
whole of ``src/repro``.  A run takes about 6 minutes on a 2-CPU x86-64
host under CPython 3.11.

Run from the repository root::

    PYTHONPATH=src python benchmarks/perf/reach_audit.py [--json PATH]
"""

from __future__ import annotations

import argparse
import ast
import contextlib
import importlib
import io
import json
import os
import runpy
import sys
import tempfile
import threading
import time
from pathlib import Path
from typing import Callable, Dict, List, Sequence, Set, Tuple

ROOT = Path(__file__).resolve().parents[2]
# Absolute, so every code object's co_filename starts with SRC.
SRC = ROOT / "src"
PACKAGE = SRC / "repro"
#: The simulator proper, reported apart: ``experiments``, ``analysis`` and
#: ``validation`` have CLI verbs and forked worker bodies the audit does
#: not run, and ``arch`` is the integration metadata of Tables 1-3.
SIMULATOR = ("common", "core", "memhier", "mimicos", "mmu", "pagetables", "storage",
             "workloads")

#: (file, first line) -> (qualified name, source lines) of one function.
Functions = Dict[Tuple[str, int], Tuple[str, int]]


def defined_functions() -> Functions:
    """Every ``def`` under ``src/repro``, keyed the way code objects are.

    A decorated function's code object starts at its first decorator.
    """
    found: Functions = {}
    for path in sorted(PACKAGE.rglob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))

        def visit(node: ast.AST, prefix: str) -> None:
            for child in ast.iter_child_nodes(node):
                if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    first = min([child.lineno] + [d.lineno for d in child.decorator_list])
                    name = f"{prefix}{child.name}"
                    found[(str(path), first)] = (name, child.end_lineno - first + 1)
                    visit(child, f"{name}.")
                elif isinstance(child, ast.ClassDef):
                    visit(child, f"{prefix}{child.name}.")
                else:
                    visit(child, prefix)

        visit(tree, "")
    return found


class Reach:
    """Records the code objects of ``src/repro`` that start running."""

    def __init__(self) -> None:
        self.seen: Set[Tuple[str, int]] = set()
        self._codes: Set[object] = set()
        prefix = str(PACKAGE)

        def profile(frame, event, _arg):
            if event == "call":
                code = frame.f_code
                if code not in self._codes:
                    self._codes.add(code)
                    if code.co_filename.startswith(prefix):
                        self.seen.add((code.co_filename, code.co_firstlineno))

        self._profile = profile

    def __enter__(self) -> "Reach":
        threading.setprofile(self._profile)
        sys.setprofile(self._profile)
        return self

    def __exit__(self, *_exc) -> None:
        sys.setprofile(None)
        threading.setprofile(None)


class _StubBenchmark:
    """The pytest-benchmark fixture, reduced to running the body once."""

    @staticmethod
    def pedantic(fn, args=(), kwargs=None, **_options):
        return fn(*args, **(kwargs or {}))


def _run_cli(main: Callable[[Sequence[str]], int], argv: Sequence[str]) -> int:
    with contextlib.redirect_stdout(io.StringIO()):
        try:
            return main(list(argv))
        except SystemExit as stop:
            return stop.code if isinstance(stop.code, int) else 1


def _perfbench(scratch: Path) -> List[Tuple[str, int]]:
    sys.path.insert(0, str(ROOT / "perfbench"))
    import run as perfbench_run

    return [(f"perfbench {workload} --trace {trace}",
             _run_cli(perfbench_run.main, ["--workload", workload, "--seed", "1",
                                           "--seconds", "1", "--trace", str(trace)]))
            for workload in ("long_radix", "range_backends", "faas_faults")
            for trace in (0, 1)]


def _figures(scratch: Path) -> List[Tuple[str, int]]:
    from benchmarks.conftest import record_figure as record

    outcomes = []
    for path in sorted((ROOT / "benchmarks").glob("test_*.py")):
        module = importlib.import_module(f"benchmarks.{path.stem}")
        for name in sorted(vars(module)):
            if name.startswith("test_") and callable(getattr(module, name)):
                with contextlib.redirect_stdout(io.StringIO()):
                    getattr(module, name)(_StubBenchmark(), record)
                outcomes.append((name, 0))
    return outcomes


def _validation(scratch: Path) -> List[Tuple[str, int]]:
    from repro.validation import fuzz, parity

    return [
        ("parity --full", _run_cli(parity.main, ["--full", "--workers", "1"])),
        ("fuzz --budget 12", _run_cli(fuzz.main, ["--budget", "12", "--no-bank",
                                                  "--workers", "1"])),
        ("fuzz --break shootdown", _run_cli(fuzz.main, [
            "--budget", "12", "--no-bank", "--workers", "1", "--break", "shootdown"])),
        ("fuzz --replay-corpus", _run_cli(fuzz.main, ["--replay-corpus",
                                                      "--workers", "1"])),
    ]


def _examples(scratch: Path) -> List[Tuple[str, int]]:
    outcomes = []
    for path in sorted((ROOT / "examples").glob("*.py")):
        with contextlib.redirect_stdout(io.StringIO()):
            runpy.run_path(str(path), run_name="__main__")
        outcomes.append((f"examples/{path.name}", 0))
    return outcomes


def _services(scratch: Path) -> List[Tuple[str, int]]:
    from repro.analysis.lint.__main__ import main as lint_main
    from repro.experiments import server, service

    return [
        ("lint", _run_cli(lint_main, [])),
        ("service run --demo 4", _run_cli(service.main, [
            "run", "--demo", "4", "--workers", "1"])),
        ("service kill-resume-smoke", _run_cli(service.main, [
            "kill-resume-smoke", "--workers", "1", "--store", str(scratch / "smoke")])),
        ("server soak", _run_cli(server.main, ["soak"])),
    ]


ENTRY_GROUPS = (_perfbench, _figures, _validation, _examples, _services)


def audit(scratch: Path) -> Dict[str, object]:
    functions = defined_functions()
    outcomes: List[Tuple[str, int]] = []
    with Reach() as reach:
        for group in ENTRY_GROUPS:
            outcomes += group(scratch)
    unreached = sorted(key for key in functions if key not in reach.seen)

    def package(key: Tuple[str, int]) -> str:
        return Path(key[0]).relative_to(PACKAGE).parts[0]

    def summary(keys: List[Tuple[str, int]], total: int) -> Dict[str, int]:
        return {"functions": total, "unreached": len(keys),
                "unreached_lines": sum(functions[key][1] for key in keys)}

    simulator = [key for key in unreached if package(key) in SIMULATOR]
    simulator_total = sum(1 for key in functions if package(key) in SIMULATOR)
    return {
        "entry_points": [{"name": name, "exit": code} for name, code in outcomes],
        "all": summary(unreached, len(functions)),
        "simulator": summary(simulator, simulator_total),
        "unreached": [
            {"file": str(Path(key[0]).relative_to(SRC)), "line": key[1],
             "name": functions[key][0], "lines": functions[key][1]}
            for key in unreached],
    }


def main(argv: Sequence[str] = ()) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--json", type=str, default=None, metavar="PATH",
                        help="write the full result (every unreached function) here")
    args = parser.parse_args(list(argv))
    sys.path[:0] = [str(SRC), str(ROOT)]
    os.chdir(ROOT)
    started = time.monotonic()
    with tempfile.TemporaryDirectory(prefix="reach-audit-") as scratch:
        result = audit(Path(scratch))
    for entry in result["entry_points"]:
        if entry["exit"]:
            print(f"entry point {entry['name']} exited {entry['exit']}")
    for row in result["unreached"]:
        print(f"{row['file']}:{row['line']} {row['name']} ({row['lines']} lines)")
    for scope in ("all", "simulator"):
        counts = result[scope]
        print(f"{scope}: {counts['functions']} functions, {counts['unreached']} unreached "
              f"({counts['unreached_lines']} lines)")
    print(f"audit took {time.monotonic() - started:.0f} s")
    if args.json:
        Path(args.json).write_text(json.dumps(result, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
