"""R5 — parity surface: every counter the report reads really exists.

A recorded report digest pins a report field that is a constant 0 just
as well as a live one, so no digest shows the field is dead.  This rule
checks the static precondition: each string literal fetched via
``.get("name")`` inside ``build_report`` must be written somewhere in the
tree (a ``counters.add("name")`` / ``counters.hot("name")`` binding, a
total named in a ``hot(..., part_of=("name", ...))`` binding, which the
counter writes as the sum of its parts, or a key of a dict built by a
``stats()`` / ``latency_breakdown()`` method).  A renamed counter otherwise
silently turns a report field into a constant 0.
"""

from __future__ import annotations

import ast
from typing import List, Optional, Set, Tuple

from repro.analysis.lint.framework import (
    Finding,
    FunctionInfo,
    ModuleInfo,
    RepoIndex,
    Rule,
)

#: Functions whose returned dict-literal keys count as counter writers
#: (the report reads them via ``breakdown.get("frontend")`` etc.).
_DICT_WRITER_FUNCTIONS = ("stats", "latency_breakdown")


def _string_arg(node: ast.Call) -> Optional[str]:
    if node.args and isinstance(node.args[0], ast.Constant) \
            and isinstance(node.args[0].value, str):
        return node.args[0].value
    return None


class ParitySurfaceRule(Rule):
    rule_id = "R5"
    name = "parity-surface"
    description = "counters read by build_report must be written somewhere"

    def check(self, index: RepoIndex) -> List[Finding]:
        findings: List[Finding] = []
        reads = self._report_reads(index)
        if reads:
            writers = self._writer_names(index)
            for module, func, name, line in reads:
                if name not in writers:
                    findings.append(Finding(
                        rule=self.rule_id, path=module.relpath, line=line,
                        symbol=func.qualname, detail=f"orphan:{name}",
                        message=f"build_report reads counter {name!r} but "
                                f"nothing in the tree ever writes it — the "
                                f"report field is a constant 0, which no "
                                f"recorded digest can catch"))
        return findings

    # -- read/write surface -------------------------------------------- #
    def _report_reads(self, index: RepoIndex,
                      ) -> List[Tuple[ModuleInfo, FunctionInfo, str, int]]:
        reads = []
        for module, func in index.find_functions("build_report"):
            for node in ast.walk(func.node):
                if (isinstance(node, ast.Call)
                        and isinstance(node.func, ast.Attribute)
                        and node.func.attr == "get"):
                    name = _string_arg(node)
                    if name is not None:
                        reads.append((module, func, name, node.lineno))
        return reads

    def _writer_names(self, index: RepoIndex) -> Set[str]:
        writers: Set[str] = set()
        for module in index.modules.values():
            for func in module.functions.values():
                for node in ast.walk(func.node):
                    if (isinstance(node, ast.Call)
                            and isinstance(node.func, ast.Attribute)
                            and node.func.attr in ("add", "hot")):
                        name = _string_arg(node)
                        if name is not None:
                            writers.add(name)
                        for keyword in node.keywords:
                            if keyword.arg == "part_of" \
                                    and isinstance(keyword.value, (ast.Tuple, ast.List)):
                                writers.update(
                                    element.value for element in keyword.value.elts
                                    if isinstance(element, ast.Constant)
                                    and isinstance(element.value, str))
                if func.name in _DICT_WRITER_FUNCTIONS:
                    for node in ast.walk(func.node):
                        if isinstance(node, ast.Dict):
                            for key in node.keys:
                                if isinstance(key, ast.Constant) \
                                        and isinstance(key.value, str):
                                    writers.add(key.value)
        return writers
