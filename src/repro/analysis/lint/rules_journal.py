"""R7 — journal/store ordering: completion is journaled after it is durable.

The crash-recovery contract of the experiment service (PR 6) and the
lease server (PR 8) is write-ahead in one specific direction: the
result-store ``put`` must land *before* the ``job_completed`` journal
append.  Replay trusts the journal — a ``job_completed`` record whose
payload never reached the store resurrects as a permanently "done" job
with no bytes behind it, the exact torn-completion shape the PR 6 fault
matrix (``kill_after_journal`` vs ``kill_after_store``) exists to
exercise.  The inverse order is safe: a store object without a journal
record is garbage the next gc sweep collects.

Two checks, scoped to ``experiments/``:

* **ordering** — any function that journals a ``job_completed`` event
  must contain a result-store write (``store.put`` / ``atomic_write_*``)
  on an earlier line of the same function body.  The repo deliberately
  keeps its one commit point single-function (``JobRunner.commit`` in
  ``experiments/runner.py``, under both the service and the server), so
  same-body line order is the honest static approximation of "store
  first";
* **failure-path journaling** — in any module that journals at all,
  every failure-exit function (``fail``/``quarantine``/``requeue`` by
  name) must reach a journal append in the whole-program graph.  A
  retry or quarantine decision that skips the journal is invisible to
  replay: the job silently reverts to its previous state after a crash.
  Modules with no journal appends anywhere (e.g. the client) are out of
  scope — they delegate their durability to the server.
"""

from __future__ import annotations

import re
from typing import List

from repro.analysis.lint.framework import (
    Finding,
    FunctionInfo,
    RepoIndex,
    Rule,
    in_scope,
)

SCOPE = ("experiments/",)

#: The journal event that marks a job's durable completion.
COMPLETION_EVENT = "job_completed"

#: Function names that decide a failure outcome (retry, quarantine).
FAILURE_EXIT_RE = re.compile(r"(^|_)(fail|quarantine|requeue)(_|$)")


class JournalOrderingRule(Rule):
    rule_id = "R7"
    name = "journal-ordering"
    description = ("store writes must precede the job_completed journal "
                   "append; failure exits (fail/quarantine/requeue) must "
                   "reach a journal append")

    def check(self, index: RepoIndex) -> List[Finding]:
        findings: List[Finding] = []
        for relpath, module in index.modules.items():
            if not in_scope(relpath, SCOPE):
                continue
            journaling_module = any(
                index.effects(relpath, qualname).journal_appends
                for qualname in module.functions)
            for func in module.functions.values():
                summary = index.effects(relpath, func.qualname)
                findings.extend(self._check_ordering(relpath, func, summary))
                if journaling_module:
                    findings.extend(
                        self._check_failure_exit(index, relpath, func,
                                                 summary))
        return findings

    def _check_ordering(self, relpath: str, func: FunctionInfo,
                        summary) -> List[Finding]:
        findings: List[Finding] = []
        for append in summary.journal_appends:
            if COMPLETION_EVENT not in append.strings:
                continue
            if not any(line < append.line for line in summary.store_writes):
                findings.append(Finding(
                    rule=self.rule_id, path=relpath, line=append.line,
                    symbol=func.qualname,
                    detail="journal-before-store",
                    message=f"{func.qualname} journals "
                            f"'{COMPLETION_EVENT}' without a result-store "
                            f"write earlier in the same body — a crash "
                            f"between the two replays as a completed job "
                            f"with no stored result (the PR 6 "
                            f"kill_after_journal torn-completion shape); "
                            f"write the store first, then append"))
        return findings

    def _check_failure_exit(self, index: RepoIndex, relpath: str,
                            func: FunctionInfo, summary) -> List[Finding]:
        if not FAILURE_EXIT_RE.search(func.name):
            return []
        if func.name == "__init__":
            return []
        effects = index.transitive_effects(relpath, func.qualname)
        if effects.journal_append is not None:
            return []
        return [Finding(
            rule=self.rule_id, path=relpath, line=func.line,
            symbol=func.qualname,
            detail="unjournaled-failure-exit",
            message=f"failure exit {func.qualname} never reaches a journal "
                    f"append in the whole-program graph — the retry/"
                    f"quarantine decision is invisible to crash replay and "
                    f"the job reverts to its previous state after restart")]
