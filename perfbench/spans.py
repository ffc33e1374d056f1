"""Spans recorded around the calls into each daxiot layer, for traced runs.

``install`` rebinds, in the current process, every name through which one
layer calls into another, so that each call records a span; ``restore`` puts
the original objects back. Names are imported by name in daxiot (``from
.crypto import aead_encrypt``), so each is rebound where it is used, not
where it is defined.

A span is ``[name, start_ns, end_ns, parent, op, tag]``: ``parent`` is the
index of the enclosing span or -1, ``op`` identifies the operation the span
belongs to (the load generator's op number, or the broker session id), and
``tag`` carries the one fact a layer metric needs beyond time (bytes framed,
did method and repeat, trust file changed). Spans stay in memory until the
process writes them out at the end of the run.

All daxiot calls are synchronous, so within one process spans nest strictly
and a single stack gives every span its parent even under asyncio.
"""

from __future__ import annotations

import json
import time
from collections import defaultdict
from pathlib import Path
from typing import Callable

import daxiot.broker_service
import daxiot.credential
import daxiot.crypto
import daxiot.did
import daxiot.protocol
import daxiot.wire
from daxiot.credential import RevocationRegistry, TrustedIssuerList
from daxiot.did import Resolver
from daxiot.protocol import DaxiotBroker, DaxiotClient

now = time.monotonic_ns  # CLOCK_MONOTONIC: comparable between the broker and load processes

NAME, START, END, PARENT, OP, TAG = range(6)

_CLIENT_STEPS = (
    "begin_connect", "handle_challenge", "handle_connack", "subscribe", "handle_suback",
    "publish", "handle_puback", "handle_publish", "disconnect",
)
_BROKER_STEPS = (
    "handle_connect", "handle_packet", "handle_auth_response", "handle_subscribe",
    "handle_publish", "handle_disconnect",
)
# (module, attribute, span name) for every module-level name a layer calls through.
_FUNCTIONS = (
    (daxiot.protocol, "aead_encrypt", "crypto.aead"),
    (daxiot.protocol, "aead_decrypt", "crypto.aead"),
    (daxiot.protocol, "ecdh_es", "crypto.ecdh"),
    (daxiot.protocol, "ecdh_1pu", "crypto.ecdh"),
    (daxiot.protocol, "ecdh_1pu_receiver", "crypto.ecdh"),
    (daxiot.protocol, "generate_signing_keypair", "crypto.keygen"),
    (daxiot.protocol, "present", "credential.present"),
    (daxiot.protocol, "verify_presentation", "credential.verify_presentation"),
    (daxiot.did, "convert_public_key", "crypto.convert_public_key"),
    (daxiot.crypto, "convert_public_key", "crypto.convert_public_key"),
    (daxiot.credential, "verify", "crypto.ed25519_verify"),
    (daxiot.wire, "encode_frame", "wire.encode"),
    (daxiot.wire, "decode_frame", "wire.decode"),
    (daxiot.broker_service, "encode_frame", "wire.encode"),
    (daxiot.broker_service, "decode_frame", "wire.decode"),
)

TAG_WEB = 1
TAG_REPEAT = 2


class Recorder:
    """In-memory span list plus the stack of spans currently open."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.op: object = None  # set by the caller before each top-level call
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    def wrap(self, name: str, fn: Callable, tagger: Callable | None = None, op_of: Callable | None = None) -> Callable:
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            parent = stack[-1] if stack else -1
            if parent >= 0:
                op = spans[parent][OP]
            else:
                op = op_of(args) if op_of is not None else self.op
            span = [name, 0, 0, parent, op, None]
            stack.append(len(spans))
            spans.append(span)
            span[START] = now()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[END] = now()
                stack.pop()
            if tagger is not None:
                span[TAG] = tagger(args, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def _patch(self, owner: object, attribute: str, replacement: object) -> None:
        # A class keeps its raw descriptor (a classmethod stays a classmethod).
        original = vars(owner)[attribute]
        self._patches.append((owner, attribute, original))
        setattr(owner, attribute, replacement)

    def install(self) -> None:
        """Rebind every traced name in this process."""
        for step in _CLIENT_STEPS:
            self._patch(DaxiotClient, step, self.wrap(f"protocol.client.{step}", DaxiotClient.__dict__[step]))
        for step in _BROKER_STEPS:
            self._patch(
                DaxiotBroker, step,
                self.wrap(f"protocol.broker.{step}", DaxiotBroker.__dict__[step], op_of=_broker_op),
            )
        for module, attribute, name in _FUNCTIONS:
            tagger = _frame_bytes if name.startswith("wire.") else None
            self._patch(module, attribute, self.wrap(name, getattr(module, attribute), tagger))
        self._patch(Resolver, "resolve", self.wrap("did.resolve", Resolver.__dict__["resolve"], _ResolveTagger()))
        changed = _ChangedTagger()
        for cls in (TrustedIssuerList, RevocationRegistry):
            loader = cls.__dict__["load"].__func__
            self._patch(cls, "load", classmethod(self.wrap("credential.trust_load", loader, changed)))
        self._patch(daxiot.crypto, "X25519PrivateKey", _CountedX25519(self, daxiot.crypto.X25519PrivateKey))

    def restore(self) -> None:
        """Put back every object ``install`` replaced, newest first."""
        while self._patches:
            owner, attribute, original = self._patches.pop()
            setattr(owner, attribute, original)

    def dump(self, path: Path) -> None:
        path.write_text(json.dumps(self.spans, separators=(",", ":")))


def _broker_op(args: tuple) -> object:
    # handle_connect(self, packet) keys its work by the client id it creates;
    # every other step is handle_*(self, session_id, ...).
    first = args[1]
    return getattr(first, "client_id", first)


def _frame_bytes(args: tuple, result: object) -> int:
    return len(result) if isinstance(result, bytes) else len(args[0])


class _ResolveTagger:
    """Marks a resolve as did:web and as a repeat of an earlier identical result."""

    def __init__(self) -> None:
        self._seen: set = set()

    def __call__(self, args: tuple, document) -> int:
        tag = TAG_WEB if document.id.method == "web" else 0
        if document in self._seen:
            tag |= TAG_REPEAT
        else:
            self._seen.add(document)
        return tag


class _ChangedTagger:
    """1 when a trust file load returns other content than the previous load of that file type."""

    def __init__(self) -> None:
        self._last: dict[type, object] = {}

    def __call__(self, args: tuple, loaded) -> int:
        changed = self._last.get(type(loaded)) != loaded
        self._last[type(loaded)] = loaded
        return int(changed)


class _CountedX25519:
    """Stands in for the X25519PrivateKey class inside daxiot.crypto so every
    agreement records a ``crypto.x25519`` span, wherever the key was built."""

    def __init__(self, recorder: Recorder, cls: type) -> None:
        self._recorder, self._cls = recorder, cls

    def from_private_bytes(self, data: bytes) -> "_CountedKey":
        return _CountedKey(self._recorder, self._cls.from_private_bytes(data))


class _CountedKey:
    def __init__(self, recorder: Recorder, key) -> None:
        self._key = key
        self.exchange = recorder.wrap("crypto.x25519", key.exchange)

    def __getattr__(self, attribute: str):
        return getattr(self._key, attribute)


# ---------------------------------------------------------------------------
# Analysis
# ---------------------------------------------------------------------------

def load(path: Path) -> list[list]:
    return json.loads(path.read_text())


def summarize(spans: list[list], start_ns: int, end_ns: int) -> dict[str, dict]:
    """Per span name, inside [start_ns, end_ns]: calls, total and self time, tags.

    Self time is a span's duration minus the time its child spans cover.
    ``top_ns`` is the time of spans no other span encloses.
    """
    child_ns = defaultdict(int)
    for span in spans:
        if span[PARENT] >= 0:
            child_ns[span[PARENT]] += span[END] - span[START]
    out: dict[str, dict] = defaultdict(lambda: {"calls": 0, "total_ns": 0, "self_ns": 0, "top_ns": 0, "tags": defaultdict(int), "tag_sum": 0})
    for index, span in enumerate(spans):
        if span[START] < start_ns or span[END] > end_ns:
            continue
        entry = out[span[NAME]]
        duration = span[END] - span[START]
        entry["calls"] += 1
        entry["total_ns"] += duration
        entry["self_ns"] += duration - child_ns[index]
        if span[PARENT] < 0:
            entry["top_ns"] += duration
        if span[TAG] is not None:
            entry["tags"][span[TAG]] += 1
            entry["tag_sum"] += span[TAG]
    return out
