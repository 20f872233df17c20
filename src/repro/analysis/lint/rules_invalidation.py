"""R2 — invalidation discipline: mapping mutations must reach a shootdown.

Every hard staleness bug this reproduction has shipped-and-fixed was a
mutation that forgot its invalidation: PR 4's kernel remaps left stale
TLB entries until ``MimicOS.tlb_shootdown`` broadcasts were wired into
khugepaged collapse, reclaim, munmap and the Utopia evictions; PR 4
also caught RMM's range-lookaside buffer translating through removed
ranges; PR 7's fuzzer caught the nested TLB invalidating only the exact
faulting key of a 2 MB combined translation.  This rule encodes the
discipline those fixes share, in two checks over the **whole-program**
call graph:

**Owned-cache check** (``pagetables``, ``mmu``, ``mimicos``): a class
whose ``__init__`` wires up a translation-cache attribute — ``self.X =
K(...)`` where ``K`` is a class (local or imported) exposing an
``invalidate``/``flush``-like method — must, from every mutating method
(``remove``/``unmap``/``evict``/``collapse``/… by name), reach a call
to one of those methods (or rebuild ``self.X`` outright) somewhere in
the whole-program call graph.  Deleting ``self.rlb.invalidate(...)``
from ``RMM._remove_structure`` re-introduces the PR 4 bug and fires
this check.  There is deliberately no caller escape here: an owned
cache is the owner's job, full stop.

**Broadcast check** (``mimicos``, ``mmu``): any mutating-named function
must reach *some* invalidation — a call whose name matches
``tlb_shootdown``/``invalidate*``/``flush*`` — anywhere in the
whole-program graph, **or** be provably
covered by its callers: a mutator with no witness of its own passes iff
it has at least one in-tree caller and *every* caller (transitively) is
covered.  This replaces PR 9's caller-holds-contract pragmas with
proof: ``VMAManager.munmap`` is clean because its only caller chain
(``Process.munmap`` ← ``MimicOS.munmap``) broadcasts the shootdown, and
the pragma that used to assert that by hand is gone.  A mutator with no
callers at all (an entry point) must carry its own witness.
"""

from __future__ import annotations

import re
from typing import Dict, List, Optional

from repro.analysis.lint.framework import (
    CACHE_INVALIDATION_TAIL_RE,
    INVALIDATION_TAIL_RE,
    Finding,
    FunctionInfo,
    GlobalId,
    ModuleInfo,
    RepoIndex,
    Rule,
    in_scope,
)

OWNED_CACHE_SCOPE = ("pagetables/", "mmu/", "mimicos/")
BROADCAST_SCOPE = ("mimicos/", "mmu/")

#: Method names that mutate the mapping state.
MUTATION_RE = re.compile(
    r"(^|_)(munmap|unmap|swap_out|collapse|remap|migrate|reclaim|remove)(_|$)")
#: Additional mutators only meaningful for owned-cache classes (a TLB's
#: own ``evict`` IS the invalidation, so ``evict`` stays out of the
#: broadcast check).
OWNED_MUTATION_RE = re.compile(
    r"(^|_)(munmap|unmap|swap_out|collapse|remap|migrate|reclaim|remove|evict)(_|$)")
#: Re-exported names (the canonical patterns live in the framework so
#: the effect summaries and this rule cannot drift apart).
INVALIDATION_RE = INVALIDATION_TAIL_RE
CACHE_INVALIDATION_RE = CACHE_INVALIDATION_TAIL_RE


def _is_invalidation_name(name: str) -> bool:
    return INVALIDATION_RE.search(name) is not None


class InvalidationRule(Rule):
    rule_id = "R2"
    name = "invalidation"
    description = ("mapping-mutation methods must reach a tlb_shootdown/"
                   "invalidate/version-bump in the whole-program graph (or "
                   "every caller must); owned translation caches must be "
                   "invalidated by their owner's mutators")

    def check(self, index: RepoIndex) -> List[Finding]:
        findings: List[Finding] = []
        for relpath, module in index.modules.items():
            if in_scope(relpath, OWNED_CACHE_SCOPE):
                findings.extend(self._check_owned_caches(index, module))
        findings.extend(self._check_broadcasts(index))
        return findings

    # -- owned-cache check --------------------------------------------- #
    def _cache_attrs(self, index: RepoIndex,
                     module: ModuleInfo, cls) -> List[str]:
        attrs = []
        for attr, class_name in cls.attr_classes.items():
            located = index._class_location(module, class_name)
            if located is None:
                continue
            target_module, target_name = located
            target = target_module.classes[target_name]
            if any(CACHE_INVALIDATION_RE.search(name)
                   for name in target.methods):
                attrs.append(attr)
        return attrs

    def _check_owned_caches(self, index: RepoIndex,
                            module: ModuleInfo) -> List[Finding]:
        findings: List[Finding] = []
        for cls in module.classes.values():
            cache_attrs = self._cache_attrs(index, module, cls)
            if not cache_attrs:
                continue
            witness = self._owned_witness(cache_attrs)
            for method in cls.methods.values():
                if method.name == "__init__":
                    continue
                if not OWNED_MUTATION_RE.search(method.name):
                    continue
                if _is_invalidation_name(method.name):
                    continue
                if index.reaches_global(module.relpath, method.qualname,
                                        witness) is None:
                    caches = ", ".join(
                        f"self.{attr} ({cls.attr_classes[attr]})"
                        for attr in cache_attrs)
                    findings.append(Finding(
                        rule=self.rule_id, path=module.relpath,
                        line=method.line, symbol=method.qualname,
                        detail="stale-cache:" + ",".join(cache_attrs),
                        message=f"mutating method {method.qualname} never "
                                f"invalidates the owned translation "
                                f"cache(s) {caches} — stale entries survive "
                                f"the mutation (the PR 4 RMM "
                                f"range-lookaside bug class)"))
        return findings

    @staticmethod
    def _owned_witness(cache_attrs: List[str]):
        rebuilds = {f"self.{attr}" for attr in cache_attrs}

        def predicate(module: ModuleInfo,
                      func: FunctionInfo) -> Optional[int]:
            for call in func.calls:
                # Accept an invalidation-shaped call on anything reachable:
                # owners routinely alias `self.pwc_pmd` into a loop local
                # before calling `.invalidate`, which a name-based pass
                # cannot track, and a spurious *other*-cache invalidation
                # alongside a forgotten one is not a bug shape this repo
                # has ever produced.
                if CACHE_INVALIDATION_RE.search(call.tail):
                    return call.line
            for event in func.events:
                # Rebuilding a cache object outright is a flush.
                if event.kind == "assign" and event.dotted in rebuilds:
                    return event.line
            return None
        return predicate

    # -- broadcast check ----------------------------------------------- #
    def _check_broadcasts(self, index: RepoIndex) -> List[Finding]:
        covered = self._caller_coverage(index)
        findings: List[Finding] = []
        for relpath, module in index.modules.items():
            if not in_scope(relpath, BROADCAST_SCOPE):
                continue
            for func in module.functions.values():
                if not MUTATION_RE.search(func.name):
                    continue
                if _is_invalidation_name(func.name):
                    continue
                gid = (relpath, func.qualname)
                if covered.get(gid, False):
                    continue
                callers = index.reverse_graph().get(gid, set())
                if callers:
                    offenders = ", ".join(sorted(
                        f"{c[0]}:{c[1]}" for c in callers
                        if not covered.get(c, False))[:3])
                    why = (f"and caller(s) {offenders} never broadcast one "
                           f"either")
                else:
                    why = "and it has no in-tree caller to hold the contract"
                findings.append(Finding(
                    rule=self.rule_id, path=module.relpath,
                    line=func.line, symbol=func.qualname,
                    detail="no-shootdown",
                    message=f"mapping mutation {func.qualname} never reaches "
                            f"a tlb_shootdown/invalidate/flush call or a "
                            f"version bump anywhere in the program, {why} — "
                            f"cached translations go stale (the PR 4 "
                            f"missing-shootdown bug class)"))
        return findings

    @staticmethod
    def _caller_coverage(index: RepoIndex) -> Dict[GlobalId, bool]:
        """``covered[f]``: f transitively invalidates, or all callers do.

        A monotone (False→True) fixpoint over the reverse graph; cycles
        of uncovered functions stay uncovered (sound), and the
        ``Process.munmap ← MimicOS.munmap`` chain converges in two
        sweeps.
        """
        graph = index.global_graph()
        reverse = index.reverse_graph()
        covered: Dict[GlobalId, bool] = {}
        for gid in graph:
            effects = index.transitive_effects(*gid)
            covered[gid] = effects.invalidation is not None
        changed = True
        while changed:
            changed = False
            for gid in graph:
                if covered[gid]:
                    continue
                callers = reverse.get(gid, ())
                if callers and all(covered.get(c, False) for c in callers):
                    covered[gid] = True
                    changed = True
        return covered
