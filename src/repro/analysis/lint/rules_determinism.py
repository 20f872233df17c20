"""R1 — determinism: no unseeded randomness or wall-clock reads in the model.

Every experiment in this repo must be a pure function of its
configuration and seed: the parity lattice diffs two runs
field-by-field, the fuzzer banks reproducers that must replay
identically, and the experiment store content-addresses results by
config hash.  One ``random.random()`` or ``time.time()`` in a
simulation package silently breaks all three.

Simulation packages (``core``, ``mmu``, ``mimicos``, ``pagetables``,
``memhier``, ``workloads``, plus the ``arch``/``storage``/``common``
models) are held to the strict contract:

* no ``random``-module free functions (``random.random``,
  ``random.choice``, ...) and no ``from random import ...`` aliases —
  draws go through a seeded :class:`repro.common.rng.DeterministicRNG`
  (or an explicitly seeded ``random.Random(seed)``, which is allowed);
* no wall-clock reads (``time.time``, ``time.time_ns``) — the only
  sanctioned host clock is ``time.perf_counter`` for the
  ``host_seconds`` cost metric, which parity excludes via
  ``HOST_ONLY_KEYS``;
* no ``os.urandom`` / ``uuid.*`` / ``secrets.*``;
* no ``hash(id(...))`` — object identities vary run to run, so an
  ``id()``-derived hash is a per-process accident.

The host layer (``validation``, ``experiments``) legitimately reads
wall clocks (lease deadlines, atime touches, backoff timers) but must
still seed its randomness — fault plans and lattice samples are part of
the reproducible experiment identity — so only the randomness checks
apply there.

``common/rng.py`` is the blessed wrapper and is exempt wholesale.
"""

from __future__ import annotations

from typing import List

from repro.analysis.lint.framework import (
    Finding,
    FunctionInfo,
    ModuleInfo,
    RepoIndex,
    Rule,
    in_scope,
)

#: Strict determinism scope: the simulated machine and its inputs.
SIM_SCOPE = ("core/", "mmu/", "mimicos/", "pagetables/", "memhier/",
             "workloads/", "arch/", "storage/", "common/")
#: Randomness-only scope: host-side harnesses that may read wall clocks.
HOST_SCOPE = ("validation/", "experiments/")
#: The seeded-RNG wrapper itself (wraps ``random.Random`` by design).
EXEMPT_FILES = ("common/rng.py",)

_WALL_CLOCKS = {"time.time", "time.time_ns"}
_ENTROPY_PREFIXES = ("os.urandom", "uuid.", "secrets.")


class DeterminismRule(Rule):
    rule_id = "R1"
    name = "determinism"
    description = ("no unseeded randomness anywhere; no wall-clock reads or "
                   "id()-derived hashes in simulation packages")

    def check(self, index: RepoIndex) -> List[Finding]:
        findings: List[Finding] = []
        for relpath, module in index.modules.items():
            if in_scope(relpath, EXEMPT_FILES):
                continue
            strict = in_scope(relpath, SIM_SCOPE)
            if not strict and not in_scope(relpath, HOST_SCOPE):
                continue
            for func in module.functions.values():
                findings.extend(self._check_function(module, func, strict))
        return findings

    def _check_function(self, module: ModuleInfo, func: FunctionInfo,
                        strict: bool) -> List[Finding]:
        findings: List[Finding] = []

        def finding(line: int, detail: str, message: str) -> None:
            findings.append(Finding(rule=self.rule_id, path=module.relpath,
                                    line=line, symbol=func.qualname,
                                    detail=detail, message=message))

        for call in func.calls:
            origin = module.from_imports.get(call.dotted, call.dotted)
            if origin.startswith("random."):
                member = origin.split(".", 1)[1]
                if member != "Random":
                    finding(call.line, origin,
                            f"unseeded random-module free function "
                            f"{origin}() — draw from a seeded "
                            f"DeterministicRNG (common/rng.py) instead")
                continue
            if not strict:
                continue
            if origin in _WALL_CLOCKS:
                finding(call.line, origin,
                        f"wall-clock read {origin}() in a simulation "
                        f"package — simulated behaviour must be a pure "
                        f"function of (config, seed); use time.perf_counter "
                        f"only for the host_seconds cost metric")
            elif any(origin.startswith(prefix)
                     for prefix in _ENTROPY_PREFIXES):
                finding(call.line, origin,
                        f"host entropy source {origin} in a simulation "
                        f"package — every random draw must come from a "
                        f"seeded DeterministicRNG")

        # hash(id(...)): walk each hash() call's argument subtree.
        if strict:
            findings.extend(self._id_in_hash(module, func))
        return findings

    def _id_in_hash(self, module: ModuleInfo,
                    func: FunctionInfo) -> List[Finding]:
        import ast
        findings: List[Finding] = []
        for node in ast.walk(func.node):
            if not (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                    and node.func.id == "hash"):
                continue
            for inner in ast.walk(node):
                if (inner is not node and isinstance(inner, ast.Call)
                        and isinstance(inner.func, ast.Name)
                        and inner.func.id == "id"):
                    findings.append(Finding(
                        rule=self.rule_id, path=module.relpath,
                        line=node.lineno, symbol=func.qualname,
                        detail="hash(id())",
                        message="hash(id(...)) — object identities differ "
                                "between runs, so the result is "
                                "process-specific; key on stable fields "
                                "instead"))
                    break
        return findings
