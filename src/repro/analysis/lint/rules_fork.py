"""R10 — fork/exec hygiene, whole-program: every fork entry detaches.

A forked worker inherits its parent's signal plumbing and open
descriptors.  The repo's one fork entry (``_attempt_entry`` in
``experiments/runner.py``, which the asyncio server forks through)
detaches the parent's asyncio self-pipe and closes the inherited
listening fd; a per-module check would miss an entry that delegates its
hygiene to a helper in another module, or a ``Process`` site in a module
that does not import asyncio.  This rule checks the contract over the
**whole-program** call graph:

* resolve every ``multiprocessing.Process(target=…)`` site's target —
  a bare function, an imported name, or a ``self.``-method — to its
  defining function anywhere in the tree;
* from that entry, ``signal.set_wakeup_fd`` **and** ``signal.signal``
  must both be transitively reachable (the effect summaries record
  both, so this is two lookups): a forked worker that keeps the
  parent's wakeup fd writes its signals into the parent's self-pipe and
  triggers spurious drains on the server;
* when the entry takes an inherited descriptor (a parameter whose name
  contains ``fd``), ``os.close`` must also be reachable — a worker that
  outlives a SIGKILLed server otherwise keeps the listening port bound
  and blocks the restart (the PR 8 rebind hang).

``threading.Thread`` targets are out of scope: threads share the
parent's signal plumbing by design.
"""

from __future__ import annotations

import ast
from typing import List, Optional, Tuple

from repro.analysis.lint.framework import (
    Finding,
    FunctionInfo,
    GlobalId,
    ModuleInfo,
    RepoIndex,
    Rule,
    dotted_name,
)


def _fork_sites(module: ModuleInfo,
                func: FunctionInfo) -> List[Tuple[int, ast.expr]]:
    """(line, target-expression) for each ``Process(target=…)`` in func."""
    sites: List[Tuple[int, ast.expr]] = []
    for node in ast.walk(func.node):
        if not isinstance(node, ast.Call):
            continue
        dotted = dotted_name(node.func)
        origin = module.from_imports.get(dotted, dotted)
        head = dotted.split(".", 1)[0]
        if head in module.module_aliases and "." in dotted:
            origin = module.module_aliases[head] + dotted[len(head):]
        if origin.rsplit(".", 1)[-1] != "Process" \
                or "multiprocessing" not in origin:
            continue
        for keyword in node.keywords:
            if keyword.arg == "target":
                sites.append((node.lineno, keyword.value))
    return sites


def _entry_params(entry: FunctionInfo) -> List[str]:
    node = entry.node
    args = getattr(node, "args", None)
    if args is None:
        return []
    names = [a.arg for a in args.posonlyargs + args.args + args.kwonlyargs]
    return names


class ForkHygieneRule(Rule):
    rule_id = "R10"
    name = "fork-hygiene"
    description = ("every multiprocessing.Process target must transitively "
                   "reach signal.set_wakeup_fd + signal.signal (and os.close "
                   "when handed an inherited fd), across modules")

    def check(self, index: RepoIndex) -> List[Finding]:
        findings: List[Finding] = []
        for relpath, module in index.modules.items():
            for func in module.functions.values():
                for line, target in _fork_sites(module, func):
                    entry = self._resolve_target(index, module, func, target)
                    if entry is None:
                        continue
                    findings.extend(self._check_entry(
                        index, relpath, func, line, entry))
        return findings

    @staticmethod
    def _resolve_target(index: RepoIndex, module: ModuleInfo,
                        func: FunctionInfo,
                        target: ast.expr) -> Optional[GlobalId]:
        if isinstance(target, ast.Name):
            name = target.id
            if name in module.functions:
                return (module.relpath, name)
            resolved = index._resolve_symbol(module, name)
            if resolved is not None:
                target_module, symbol = resolved
                if symbol in target_module.functions:
                    return (target_module.relpath, symbol)
            return None
        if (isinstance(target, ast.Attribute)
                and isinstance(target.value, ast.Name)):
            if target.value.id == "self" and func.class_name:
                return index._method_global(module, func.class_name,
                                            target.attr)
            imported = index._imported_module(module, target.value.id)
            if imported is not None and target.attr in imported.functions:
                return (imported.relpath, target.attr)
        return None

    def _check_entry(self, index: RepoIndex, relpath: str,
                     func: FunctionInfo, line: int,
                     entry: GlobalId) -> List[Finding]:
        effects = index.transitive_effects(*entry)
        entry_name = f"{entry[0]}:{entry[1]}"
        findings: List[Finding] = []
        missing = [name for name, witness in
                   (("signal.set_wakeup_fd", effects.wakeup_detach),
                    ("signal.signal", effects.signal_reset))
                   if witness is None]
        if missing:
            findings.append(Finding(
                rule=self.rule_id, path=relpath, line=line,
                symbol=func.qualname,
                detail=f"fork-hygiene:{entry[1]}:{','.join(missing)}",
                message=f"fork target {entry_name} never reaches "
                        f"{' or '.join(missing)} in the whole-program graph "
                        f"— the worker inherits the parent's wakeup fd and "
                        f"signal dispositions, so a SIGTERM aimed at the "
                        f"worker writes into the parent's self-pipe (the "
                        f"PR 8 spurious-drain shape)"))
        entry_func = index.function(entry)
        if entry_func is not None and effects.fd_close is None \
                and any("fd" in name for name in _entry_params(entry_func)):
            findings.append(Finding(
                rule=self.rule_id, path=relpath, line=line,
                symbol=func.qualname,
                detail=f"fork-fd-close:{entry[1]}",
                message=f"fork target {entry_name} is handed an inherited "
                        f"descriptor (an 'fd' parameter) but never reaches "
                        f"os.close — a worker outliving a SIGKILLed server "
                        f"keeps the port bound and blocks the restart bind "
                        f"(the PR 8 rebind hang)"))
        return findings
