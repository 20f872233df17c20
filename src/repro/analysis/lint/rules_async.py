"""R4 — async safety: never block the event loop.

The PR 8 server multiplexes every client onto one asyncio event loop:
a single synchronous ``time.sleep`` or ``subprocess.run`` inside an
``async def`` stalls every connection, heartbeat deadline and drain ack
at once — a failure mode invisible in unit tests and fatal in a soak.

One check over the experiments package: ``time.sleep``, the synchronous
``subprocess`` family and ``os.system`` are flagged inside ``async def``
bodies (nested synchronous ``def``s are excluded: they execute wherever
they are *called*, e.g. in an executor).  Fork-entry hygiene — the
worker detaching the parent's wakeup fd, signal handlers and listening
socket — is R10's, checked over the whole program.
"""

from __future__ import annotations

from typing import List

from repro.analysis.lint.framework import (
    Finding,
    ModuleInfo,
    RepoIndex,
    Rule,
    in_scope,
)

SCOPE = ("experiments/",)

#: Synchronous calls that stall the event loop.  ``time.sleep`` is the
#: classic; the subprocess family blocks until child exit; ``os.system``
#: is both.  File I/O and ``os.fsync`` are deliberately NOT listed: the
#: journal's fsync-per-append inside the server is a considered
#: durability-over-latency tradeoff.
BLOCKING_CALLS = {
    "time.sleep",
    "subprocess.run", "subprocess.call", "subprocess.check_call",
    "subprocess.check_output", "subprocess.getoutput",
    "os.system", "os.wait", "os.waitpid",
    "socket.create_connection",
}


class AsyncSafetyRule(Rule):
    rule_id = "R4"
    name = "async-safety"
    description = "no blocking calls inside async def"

    def check(self, index: RepoIndex) -> List[Finding]:
        findings: List[Finding] = []
        for relpath, module in index.modules.items():
            if in_scope(relpath, SCOPE):
                findings.extend(self._check_blocking(module))
        return findings

    def _check_blocking(self, module: ModuleInfo) -> List[Finding]:
        findings: List[Finding] = []
        for func in module.functions.values():
            if not func.is_async:
                continue
            for call in func.calls:
                origin = module.from_imports.get(call.dotted, call.dotted)
                if origin in BLOCKING_CALLS:
                    findings.append(Finding(
                        rule=self.rule_id, path=module.relpath,
                        line=call.line, symbol=func.qualname,
                        detail=f"blocking:{origin}",
                        message=f"blocking call {origin}() inside async "
                                f"{func.qualname} — it stalls every client, "
                                f"heartbeat deadline and drain ack on the "
                                f"loop; use the asyncio equivalent or an "
                                f"executor"))
        return findings
