"""Wire protocol of the long-lived experiment server.

The server (:mod:`repro.experiments.server`) and its clients
(:mod:`repro.experiments.client`) speak **newline-delimited JSON**: one
frame per line, each frame a single JSON object.  The format is chosen
for the same reason the journal uses JSONL — a torn or garbled line is
an isolated, recoverable event, never a parser desync: both sides skip
undecodable lines (counting them) and re-correlate by request id, which
is what lets the network fault injector
(:class:`repro.experiments.faultinject.NetworkFaultPlan`) write garbage
frames, drop frames, or cut the connection mid-exchange without either
side wedging.

Frame schema (requests)::

    {"id": <int>, "verb": <str>, ...verb fields...}

and responses echo the id::

    {"id": <int>, "ok": <bool>, ...}
    {"id": <int>, "ok": false, "error": <str>, ...}     # structured errors

Verbs
=====

``hello``     handshake: protocol version + client id -> server info
              (worker slots, queue limit, lease seconds, store root).
``submit``    {kind, name, payload[, key]} -> accepted | cached (digest
              inline) | duplicate (subscribed to in-flight job) |
              rejected (structured ``retry_after`` under overload or
              while draining — admission control never hangs a client).
``status``    server counters, or one job's state when ``key`` given.
``result``    {key, wait_seconds} -> done (digest) | failed (quarantine
              record) | pending (re-poll) | unknown_key (resubmit —
              the restart-recovery signal).
``cancel``    {key} -> dequeues a queued job; leased/done jobs report
              their state instead.
``drain``     stop admissions, finish leased jobs, then ack and shut
              down (the graceful-shutdown verb; SIGTERM is equivalent).
``gc``        run the result-store eviction pass (size budget, dry-run).
``ping``      liveness probe.

Unknown verbs get ``{"ok": false, "error": "unknown_verb"}`` — a newer
client against an older server degrades to a structured error, not a
hang.
"""

from __future__ import annotations

import json
from typing import Dict, Optional

from repro.experiments.runner import (  # noqa: F401  (re-exported)
    JOB_DONE,
    JOB_FAILED,
    JOB_LEASED,
    JOB_QUEUED,
)

#: Version tag exchanged in the ``hello`` handshake.  Bump on any
#: incompatible frame-schema change; the server rejects mismatches with
#: a structured error so a stale client fails fast and loud.
PROTOCOL_VERSION = "experiment-server/v1"

#: The complete verb inventory — the contract the static lint's R8
#: symmetry check enforces: every verb here must have a server dispatch
#: arm and a client method with a structured-error path, and no side may
#: speak a verb that is not here.  Adding a verb starts by adding it to
#: this tuple; the lint then points at whichever surface is missing.
VERBS = ("hello", "submit", "status", "result", "cancel", "drain", "gc",
         "ping")

#: Hard per-frame ceiling (bytes, including the newline).  A frame this
#: large is a bug or an attack, not a job digest; both sides drop the
#: connection rather than buffer unboundedly.
MAX_FRAME_BYTES = 8 * 1024 * 1024

#: Structured error codes a client is expected to branch on.
ERROR_OVERLOADED = "overloaded"
ERROR_DRAINING = "draining"
ERROR_UNKNOWN_KEY = "unknown_key"
ERROR_UNKNOWN_VERB = "unknown_verb"
ERROR_PROTOCOL = "protocol"
ERROR_BAD_REQUEST = "bad_request"

#: Job states reported by ``status``/``result``: the job runner's four,
#: plus the server-only ``cancelled``.
JOB_CANCELLED = "cancelled"


class ProtocolError(ValueError):
    """A frame that cannot be decoded into a protocol message."""


def encode_frame(message: Dict[str, object]) -> bytes:
    """One protocol frame: compact JSON, sorted keys, newline-terminated.

    Sorted keys keep frames canonical (two structurally equal messages
    are byte-equal), which makes captured exchanges diffable in tests.
    """
    line = json.dumps(message, sort_keys=True, separators=(",", ":"))
    data = line.encode("utf-8") + b"\n"
    if len(data) > MAX_FRAME_BYTES:
        raise ProtocolError(f"frame of {len(data)} bytes exceeds the "
                            f"{MAX_FRAME_BYTES}-byte frame ceiling")
    return data


def decode_frame(line: bytes) -> Dict[str, object]:
    """Decode one received line into a message dict.

    Raises :class:`ProtocolError` on anything that is not a single JSON
    object — callers count the line and move on (garbage tolerance),
    they never tear down the parser state.
    """
    if len(line) > MAX_FRAME_BYTES:
        raise ProtocolError("oversized frame")
    try:
        message = json.loads(line.decode("utf-8", errors="strict"))
    except (ValueError, UnicodeDecodeError) as exc:
        raise ProtocolError(f"undecodable frame: {exc}") from None
    if not isinstance(message, dict):
        raise ProtocolError(f"frame decodes to {type(message).__name__}, "
                            f"not an object")
    return message


def error_response(request_id: Optional[int], error: str,
                   **fields: object) -> Dict[str, object]:
    """A structured error frame (``retry_after`` etc. ride in fields)."""
    response: Dict[str, object] = {"id": request_id, "ok": False,
                                   "error": error}
    response.update(fields)
    return response


def ok_response(request_id: Optional[int],
                **fields: object) -> Dict[str, object]:
    response: Dict[str, object] = {"id": request_id, "ok": True}
    response.update(fields)
    return response
