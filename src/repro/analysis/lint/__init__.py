"""Invariant lint: static enforcement of the repo's hard-won disciplines.

Ten AST rules over ``src/repro`` — each one encodes the discipline
behind a real bug the dynamic harnesses (parity lattice, fuzzer, fault
matrix) caught after the fact.  Since PR 10 the rules run over a
**whole-program** call graph with cached per-function effect summaries
(:mod:`.framework`), so a contract held three modules away still counts:

* **R1 determinism** — no unseeded randomness; no wall clocks in the
  simulated machine (:mod:`.rules_determinism`);
* **R2 invalidation** — mapping mutations reach a shootdown/invalidate/
  flush anywhere in the program, or every caller provably does
  (:mod:`.rules_invalidation`);
* **R3 durability** — durable writes go tmp + ``os.replace`` + fsync
  (:mod:`.rules_durability`);
* **R4 async/fork safety** — nothing blocks the server loop; forked
  workers detach inherited signal plumbing (:mod:`.rules_async`);
* **R5 parity surface** — every counter the report reads is written
  somewhere (:mod:`.rules_parity`);
* **R6 seed flow** — RNG constructions derive from the config/point
  seed chain; literal or missing seeds are flagged
  (:mod:`.rules_seeds`);
* **R7 journal/store ordering** — completion is journaled only after
  the store write; failure exits always journal
  (:mod:`.rules_journal`);
* **R8 protocol symmetry** — verbs, server handlers, client methods and
  structured-error paths stay in lockstep (:mod:`.rules_protocol`);
* **R9 resource lifecycle** — what ``experiments/`` opens, it provably
  releases (:mod:`.rules_resources`);
* **R10 fork hygiene** — whole-program R4: every ``Process`` target
  reaches the signal/fd detach, across modules (:mod:`.rules_fork`).

Run ``python -m repro.analysis.lint`` from the repo root; see
``docs/static_analysis.md`` for the rule catalog and baseline workflow.
"""

from repro.analysis.lint.baseline import (
    BASELINE_SCHEMA,
    load_baseline,
    save_baseline,
    split_findings,
)
from repro.analysis.lint.framework import (
    Finding,
    LintReport,
    ModuleInfo,
    RepoIndex,
    Rule,
    run_rules,
)
from repro.analysis.lint.rules_async import AsyncSafetyRule
from repro.analysis.lint.rules_determinism import DeterminismRule
from repro.analysis.lint.rules_durability import DurabilityRule
from repro.analysis.lint.rules_fork import ForkHygieneRule
from repro.analysis.lint.rules_invalidation import InvalidationRule
from repro.analysis.lint.rules_journal import JournalOrderingRule
from repro.analysis.lint.rules_parity import ParitySurfaceRule
from repro.analysis.lint.rules_protocol import ProtocolSymmetryRule
from repro.analysis.lint.rules_resources import ResourceLifecycleRule
from repro.analysis.lint.rules_seeds import SeedFlowRule

#: The shipped rule set, in id order.
ALL_RULES = (DeterminismRule, InvalidationRule, DurabilityRule,
             AsyncSafetyRule, ParitySurfaceRule, SeedFlowRule,
             JournalOrderingRule, ProtocolSymmetryRule,
             ResourceLifecycleRule, ForkHygieneRule)


def default_rules():
    """Fresh instances of every shipped rule."""
    return [rule() for rule in ALL_RULES]


__all__ = [
    "ALL_RULES",
    "AsyncSafetyRule",
    "BASELINE_SCHEMA",
    "DeterminismRule",
    "DurabilityRule",
    "Finding",
    "ForkHygieneRule",
    "InvalidationRule",
    "JournalOrderingRule",
    "LintReport",
    "ModuleInfo",
    "ParitySurfaceRule",
    "ProtocolSymmetryRule",
    "RepoIndex",
    "ResourceLifecycleRule",
    "Rule",
    "SeedFlowRule",
    "default_rules",
    "load_baseline",
    "run_rules",
    "save_baseline",
    "split_findings",
]
