"""Bytes from outside the package are decoded in one place and fail closed.

Every decode site routes through ``daxiot.errors.decode_text`` or
``decode_json``, and every host:port through ``decode_address``; a malformed
input ends in the site's ``DaxiotError`` (at the broker, in a refusal whose
event names that error's class) and never in a ``RecursionError``,
``ValueError`` or ``TypeError``.
"""

from __future__ import annotations

import ast
import base64
import copy
import sys
import tracemalloc

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import daxiot.protocol as protocol
from daxiot.broker_service import BrokerConfig, BrokerService
from daxiot.cli import _tcp_address
from daxiot.credential import (
    AuthorizationClaim,
    Disclosure,
    SdJwtCredential,
    TrustedIssuerList,
    issue,
    load_credential_files,
    save_credential_files,
)
from daxiot.crypto import XChaCha20Poly1305, aead_encrypt, ecdh_es, generate_signing_keypair, load_agreement_key, to_agreement_keypair
from daxiot.did import document_from_json, didkey_encode
from daxiot.errors import (
    MAX_JSON_DEPTH,
    ConfigError,
    DaxiotError,
    DidError,
    FramingError,
    MalformedCredential,
    ProtocolError,
    TrustFileError,
    decode_address,
)
from daxiot.protocol import DaxiotClient
from daxiot.scenario import build_scenario
from daxiot.transport import LoopbackNetwork
from daxiot.wire import MAX_FRAME, Packet, PacketKind, decode_frame

from conftest import establish, refusal
from helpers import source_nodes

DEEP = b"[" * 100_000
HUGE_INT = b'{"n": ' + b"7" * 5000 + b"}"
NOT_UTF8 = b"\xff\xfe"


def _b64(data: bytes) -> str:
    return base64.urlsafe_b64encode(data).rstrip(b"=").decode("ascii")


def _nested(depth: int) -> bytes:
    """A disclosure for did:web:broker.example whose value holds ``depth`` nested arrays."""
    return b'["salt","did:web:broker.example",{"x":' + b"[" * depth + b"]" * depth + b"}]"


@pytest.fixture(scope="module")
def trusted_env(tmp_path_factory):
    return build_scenario(tmp_path_factory.mktemp("decoding") / "env")


# ---------------------------------------------------------------------------
# Each decode site, one malformed input each
# ---------------------------------------------------------------------------

def _seal_to_broker(engine, session_id: str, kind: PacketKind, plaintext: bytes) -> Packet:
    (envelope,) = copy.copy(engine.sessions[session_id].c2b).seal(kind, plaintext)
    if kind is PacketKind.AUTH_RESPONSE:
        return Packet(kind=kind, auth_data=envelope)
    return Packet(kind=kind, topic=envelope)


def _static_did_site(env, tmp_path):
    ephemeral = generate_signing_keypair()
    ephemeral_did = str(didkey_encode(ephemeral.public))
    broker_key = env.resolver().resolve(env.broker_did).agreement_key
    key = ecdh_es(
        load_agreement_key(to_agreement_keypair(ephemeral).secret),
        broker_key,
        protocol._es_context(ephemeral_did, env.broker_did),
    )
    nonce = protocol._fresh_nonce()
    envelope = aead_encrypt(
        XChaCha20Poly1305(key, nonce[:16]), nonce, NOT_UTF8, protocol._aad(PacketKind.CONNECT, ephemeral_did)
    )
    packet = Packet(
        kind=PacketKind.CONNECT, client_id=ephemeral_did, auth_method=protocol.AUTH_METHOD, auth_data=envelope
    )
    events: list[dict] = []
    env.config.engine(event_sink=events.append).handle_connect(packet)
    return refusal(events)


def _presentation_site(env, tmp_path):
    engine, session_id, _, events = _challenged_fresh_identity(env)
    engine.handle_packet(session_id, _seal_to_broker(engine, session_id, PacketKind.AUTH_RESPONSE, NOT_UTF8))
    return refusal(events)


def _subscribe_topic_site(env, tmp_path):
    events: list[dict] = []
    network = LoopbackNetwork(env.config.engine(event_sink=events.append))
    client = env.subscriber_client()
    establish(network, client, env.broker_did)
    engine, session_id = network.engine, client.ephemeral_did
    engine.handle_packet(session_id, _seal_to_broker(engine, session_id, PacketKind.SUBSCRIBE, NOT_UTF8))
    return refusal(events)


def _client_publish_topic_site(env, tmp_path):
    network = LoopbackNetwork(env.config.engine())
    client = env.subscriber_client()
    establish(network, client, env.broker_did)
    session = network.engine.sessions[client.ephemeral_did]
    topic, payload = session.b2c.seal(PacketKind.PUBLISH, NOT_UTF8, b"payload")
    client.handle_publish(Packet(kind=PacketKind.PUBLISH, topic=topic, payload=payload))


def _frame_with_client_id(raw: bytes) -> bytes:
    body = bytes([PacketKind.CONNECT, 0x01]) + len(raw).to_bytes(4, "big") + raw
    return len(body).to_bytes(4, "big") + body


def _credential_segment_site(env, tmp_path):
    credential = env.publisher.credential
    SdJwtCredential(credential.header_b64, _b64(DEEP), credential.signature).payload


def _trust_file_site(env, tmp_path):
    path = tmp_path / "til.json"
    path.write_bytes(DEEP)
    TrustedIssuerList.load(path)


def _credential_file_site(env, tmp_path):
    save_credential_files(tmp_path / "cred", env.publisher.credential, env.publisher.disclosures)
    (tmp_path / "cred" / "credential.sdjwt").write_bytes(NOT_UTF8)
    load_credential_files(tmp_path / "cred")


def _broker_config_site(env, tmp_path):
    path = tmp_path / "broker.json"
    path.write_bytes(NOT_UTF8)
    BrokerConfig.from_file(path)


SITES = {
    "Disclosure.decode, too deep": (lambda env, tmp_path: Disclosure.decode(DEEP), MalformedCredential),
    "Disclosure.decode, huge integer": (
        lambda env, tmp_path: Disclosure.decode(b'["s","k",' + HUGE_INT + b"]"), MalformedCredential
    ),
    "Disclosure.decode, lone surrogate": (
        lambda env, tmp_path: Disclosure.decode(b'["s","k",{"pub":["\\ud800"]}]'), MalformedCredential
    ),
    "Disclosure.decode, past MAX_JSON_DEPTH": (
        lambda env, tmp_path: Disclosure.decode(_nested(MAX_JSON_DEPTH - 1)), MalformedCredential
    ),
    "AuthorizationClaim.from_value, list topic": (
        lambda env, tmp_path: Disclosure("s", env.broker_did, {"pub": [["x"]]}).claim(), MalformedCredential
    ),
    "AuthorizationClaim.from_value, integer topic": (
        lambda env, tmp_path: Disclosure("s", env.broker_did, {"sub": [7]}).claim(), MalformedCredential
    ),
    "SdJwtCredential._segment": (_credential_segment_site, MalformedCredential),
    "_read_trust_file": (_trust_file_site, TrustFileError),
    "load_credential_files": (_credential_file_site, MalformedCredential),
    "document_from_json": (lambda env, tmp_path: document_from_json(HUGE_INT), DidError),
    "BrokerConfig.from_file": (_broker_config_site, ConfigError),
    "wire client_id": (lambda env, tmp_path: decode_frame(_frame_with_client_id(NOT_UTF8)), FramingError),
    # The broker refuses what it cannot decode, and the refusal's event records it.
    "broker static DID": (_static_did_site, ("connect_rejected", "ProtocolError", "C")),
    "broker presentation": (_presentation_site, ("auth_rejected", "MalformedCredential", "H")),
    "broker subscribe topic": (_subscribe_topic_site, ("subscribe_rejected", "ProtocolError", "I")),
    "client publish topic": (_client_publish_topic_site, ProtocolError),
}


@pytest.mark.parametrize("site", SITES)
def test_each_decode_site_fails_closed(site, trusted_env, tmp_path):
    probe, expected = SITES[site]
    if isinstance(expected, tuple):
        assert probe(trusted_env, tmp_path) == expected
        return
    with pytest.raises(expected):
        probe(trusted_env, tmp_path)


def test_a_disclosure_max_json_depth_levels_deep_decodes():
    # _nested(n) is n + 2 levels deep: the outer array and the value object come first.
    assert Disclosure.decode(_nested(MAX_JSON_DEPTH - 2)).key == "did:web:broker.example"


# ---------------------------------------------------------------------------
# An AUTH_RESPONSE sealed by a fresh identity, whatever its plaintext
# ---------------------------------------------------------------------------

def _challenged_fresh_identity(env):
    """A loopback broker that has challenged a fresh identity with a trusted credential:
    the engine, the session id, the credential and the engine's event list."""
    events: list[dict] = []
    network = LoopbackNetwork(env.config.engine(event_sink=events.append))
    keypair = generate_signing_keypair()
    claim = AuthorizationClaim(env.broker_did, publish_topics=frozenset({env.topic}))
    credential, disclosures = issue(env.po_keypair, env.po_did, str(didkey_encode(keypair.public)), [claim], "AC-fresh")
    client = DaxiotClient(keypair, credential, disclosures, env.resolver())
    connection = network.open()
    connection.send(client.begin_connect(env.broker_did))
    connection.recv()
    return network.engine, client.ephemeral_did, credential, events


def _auth_response_outcome(env, body: bytes, where: str) -> tuple:
    """Seal ``body`` as (part of) the presentation of a fresh, trusted identity."""
    engine, session_id, credential, events = _challenged_fresh_identity(env)
    plaintext = {
        "presentation": body,
        "disclosure": f"{credential.compact()}~{_b64(body)}~".encode(),
        "payload": f"{credential.header_b64}.{_b64(body)}.{_b64(credential.signature)}~".encode(),
    }[where]
    engine.handle_packet(session_id, _seal_to_broker(engine, session_id, PacketKind.AUTH_RESPONSE, plaintext))
    return refusal(events)


@settings(max_examples=40, deadline=None)
@given(body=st.binary(max_size=256), where=st.sampled_from(["presentation", "disclosure", "payload"]))
@example(body=DEEP, where="disclosure")
@example(body=DEEP, where="payload")
@example(body=HUGE_INT, where="payload")
@example(body=NOT_UTF8, where="presentation")
@example(body=NOT_UTF8, where="disclosure")
@example(body=_nested(MAX_JSON_DEPTH - 1), where="disclosure")
@example(body=b'["salt","did:web:broker.example",{"pub":["\\ud800"]}]', where="disclosure")
def test_any_sealed_auth_response_is_refused(trusted_env, body, where):
    assert _auth_response_outcome(trusted_env, body, where) == ("auth_rejected", "MalformedCredential", "H")


def test_disclosure_nested_up_to_the_parser_limit_is_refused(trusted_env):
    # The parser's limit depends on the stack depth at the decode, so every
    # depth below the recursion limit is tried: one level under the parse
    # limit used to decode and then overflow the re-serialization in digest().
    limit = sys.getrecursionlimit()
    for depth in range(limit - 300, limit):
        assert _auth_response_outcome(trusted_env, _nested(depth), "disclosure") == ("auth_rejected", "MalformedCredential", "H")


@pytest.mark.parametrize("separator", ["~", "."])
def test_a_presentation_stuffed_with_separators_costs_little_memory(trusted_env, separator):
    # A frame's worth of a separator before step H refuses it. A real credential
    # and then '~': splitting it held a million empty segments, twice, about
    # 26 MiB. A credential of '.' held them once more, 11 times the frame.
    engine, session_id, credential, events = _challenged_fresh_identity(trusted_env)
    if separator == "~":
        plaintext = f"{credential.compact()}~".encode().ljust(MAX_FRAME - 1024, b"~")
    else:
        plaintext = b"." * (MAX_FRAME - 1025) + b"~"
    packet = _seal_to_broker(engine, session_id, PacketKind.AUTH_RESPONSE, plaintext)
    tracemalloc.start()
    try:
        engine.handle_packet(session_id, packet)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 * len(plaintext), peak
    assert refusal(events) == ("auth_rejected", "MalformedCredential", "H")


# ---------------------------------------------------------------------------
# Guard: no hand-written decode outside the two decoders
# ---------------------------------------------------------------------------

def _is_strict_decode(node: ast.AST) -> bool:
    if not isinstance(node, ast.Call) or not isinstance(node.func, ast.Attribute):
        return False
    function = node.func
    if function.attr == "loads" and isinstance(function.value, ast.Name) and function.value.id == "json":
        return True
    # ``.decode("utf-8", errors="replace")`` cannot fail; a strict decode can.
    arguments = [getattr(arg, "value", None) for arg in node.args]
    return function.attr == "decode" and arguments == ["utf-8"] and not node.keywords


def test_outside_bytes_are_decoded_only_by_the_two_decoders():
    found = {(path, function) for path, function, node in source_nodes() if _is_strict_decode(node)}
    assert found == {("errors.py", "decode_json"), ("errors.py", "decode_text")}


# ---------------------------------------------------------------------------
# host:port, for a listen address and after a service endpoint's tcp://
# ---------------------------------------------------------------------------

# Each text, and its host and port or None for a refusal. A comment names the
# side, listen address or endpoint, where the two former parsers differed from it.
ADDRESSES = {
    "IPv4": ("127.0.0.1:1883", ("127.0.0.1", 1883)),
    "IPv6 in brackets": ("[::1]:1883", ("::1", 1883)),
    "port 0": ("broker.example:0", ("broker.example", 0)),
    "highest port": ("broker.example:65535", ("broker.example", 65535)),
    "host in capitals": ("Broker.Example:1883", ("Broker.Example", 1883)),  # an endpoint lowercased it
    "IPv6 without brackets": ("::1:1883", None),  # a listen address bound it
    "IPv4 in brackets": ("[127.0.0.1]:1883", None),  # a listen address bound it; ValueError escaped an endpoint
    "unclosed bracket": ("[::1:1883", None),  # ValueError escaped an endpoint
    "a path": ("127.0.0.1:1883/path", None),  # an endpoint ignored it
    # An endpoint dropped the user part; the host user@127.0.0.1 does not resolve.
    "a user": ("user@127.0.0.1:1883", ("user@127.0.0.1", 1883)),
    "six digits": ("127.0.0.1:001883", None),  # both accepted it
    "5000 digits": ("127.0.0.1:" + "9" * 5000, None),  # ValueError escaped a listen address
    "port above 65535": ("127.0.0.1:65536", None),
    "superscript two": ("127.0.0.1:\u00b2", None),
    "no port": ("127.0.0.1", None),
    "no host": (":1883", None),
    "empty brackets": ("[]:1883", None),
    "nested brackets": ("[[::1]]:1883", None),
    # Name resolution refuses these with ValueError or UnicodeError, not OSError.
    "a NUL byte": ("a\x00b:1883", None),
    "a NUL byte in brackets": ("[::1\x00]:1883", None),
    "a 64-character label": ("a" * 64 + ".example:1883", None),
    "an empty label": ("a..example:1883", None),
    "a 64-character IPv6 zone": ("[fe80::1%" + "z" * 60 + "]:1883", None),
    "a 63-character label": ("a" * 63 + ".example:1883", ("a" * 63 + ".example", 1883)),
    "a trailing dot": ("broker.example.:1883", ("broker.example.", 1883)),
    "an IPv6 zone": ("[fe80::1%eth0]:1883", ("fe80::1%eth0", 1883)),
    "a non-ASCII name": ("b\u00fccher.example:1883", ("b\u00fccher.example", 1883)),
    "a non-ASCII label over 63 characters as IDNA": ("\u00fc" * 60 + ".example:1883", None),
}


@pytest.mark.parametrize("case", list(ADDRESSES))
def test_a_listen_address_and_an_endpoint_follow_one_rule(case):
    text, expected = ADDRESSES[case]
    if expected is None:
        with pytest.raises(ConfigError, match=r"^listen_address must be host:port or \[IPv6\]:port, port 0-65535"):
            BrokerService(text, None)
    else:
        assert decode_address(text, ConfigError, "listen_address") == expected
        assert BrokerService(text, None).port == expected[1]
    if expected is None or expected[1] == 0:  # a client cannot dial port 0
        with pytest.raises(DaxiotError, match="is not tcp://host:port$"):
            _tcp_address("did:web:broker.example", f"tcp://{text}")
    else:
        assert _tcp_address("did:web:broker.example", f"tcp://{text}") == expected


@settings(max_examples=300, deadline=None)
@given(host=st.text("a.\u00fc", min_size=1, max_size=140))
@example(host="a" * 64)
@example(host="a" * 63 + ".")
@example(host="a..")
def test_a_host_is_refused_exactly_when_the_idna_codec_refuses_it(host):
    # getaddrinfo encodes every host with the IDNA codec first.
    try:
        host.encode("idna")
        expected = (host, 1883)
    except UnicodeError:
        expected = None
    if expected is None:
        with pytest.raises(ConfigError):
            decode_address(f"{host}:1883", ConfigError, "listen_address")
    else:
        assert decode_address(f"{host}:1883", ConfigError, "listen_address") == expected


def test_addresses_are_split_only_by_decode_address():
    # No URL parser splits an address; urllib.parse only names did:web files.
    splits = {
        (path, function)
        for path, function, node in source_nodes()
        if isinstance(node, ast.Call)
        and getattr(node.func, "attr", None) in ("rpartition", "rsplit")
        and [getattr(arg, "value", None) for arg in node.args[:1]] == [":"]
    }
    assert splits == {("errors.py", "decode_address")}, splits
    urllib_parse = {
        (path, function, getattr(node, "attr", None))
        for path, function, node in source_nodes()
        if (isinstance(node, ast.Attribute) and ast.unparse(node.value) == "urllib.parse")
        or (isinstance(node, ast.ImportFrom) and node.module == "urllib.parse")
    }
    assert urllib_parse == {("did.py", "didweb_filename", "quote")}, urllib_parse
