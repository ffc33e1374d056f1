from __future__ import annotations

import socket

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from daxiot.errors import FramingError
from daxiot.transport import TcpClientConnection
from daxiot.wire import (
    MAX_FRAME,
    Packet,
    PacketKind,
    ReasonCode,
    decode_frame,
    encode_frame,
    frame_length,
)

packets = st.builds(
    Packet,
    kind=st.sampled_from(list(PacketKind)),
    client_id=st.none() | st.text(max_size=40),
    auth_method=st.none() | st.text(max_size=16),
    auth_data=st.none() | st.binary(max_size=128),
    topic=st.none() | st.binary(max_size=64),
    payload=st.none() | st.binary(max_size=128),
    reason_code=st.none() | st.sampled_from(list(ReasonCode)),
)


@settings(max_examples=200, deadline=None)
@given(packet=packets)
def test_roundtrip(packet):
    assert decode_frame(encode_frame(packet)) == packet


def _decodes_or_refuses(frame: bytes) -> None:
    """Only FramingError may escape decode_frame. An accepted frame round-trips:
    re-encoded, it decodes to the same packet, and it keeps its length, so
    no byte was dropped or read twice (fields may come back in tag order)."""
    try:
        packet = decode_frame(frame)
    except FramingError:
        return
    again = encode_frame(packet)
    assert decode_frame(again) == packet and len(again) == len(frame)


def _frame(body: bytes) -> bytes:
    return len(body).to_bytes(4, "big") + body


# Bodies of short fields with tags and kinds around the known ones, then up
# to 4 stray bytes, so every field check (truncated header, unknown tag,
# duplicate, reason length and value) is reached.
field_bodies = st.builds(
    lambda kind, fields, tail: bytes([kind])
    + b"".join(bytes([tag]) + len(v).to_bytes(4, "big") + v for tag, v in fields)
    + tail,
    st.integers(0, 10),
    st.lists(st.tuples(st.integers(0, 7), st.binary(max_size=3)), max_size=4),
    st.binary(max_size=4),
)


@settings(max_examples=500, deadline=None)
@given(frame=st.binary(max_size=64) | st.binary(max_size=60).map(_frame) | field_bodies.map(_frame))
def test_arbitrary_bytes_decode_or_raise_framing_error(frame):
    _decodes_or_refuses(frame)


@settings(max_examples=300, deadline=None)
@given(packet=packets, data=st.data())
def test_mutated_frames_decode_or_raise_framing_error(packet, data):
    frame = bytearray(encode_frame(packet))
    for _ in range(data.draw(st.integers(1, 3))):
        frame[data.draw(st.integers(0, len(frame) - 1))] = data.draw(st.integers(0, 255))
    _decodes_or_refuses(bytes(frame))


def test_bit_exact_layout():
    packet = Packet(
        kind=PacketKind.CONNECT,
        client_id="ab",
        auth_method="DAXiot",
        auth_data=b"\x01\x02\x03",
        reason_code=ReasonCode.SUCCESS,
    )
    expected = (
        (1 + 7 + 11 + 8 + 6).to_bytes(4, "big")
        + b"\x01"  # kind
        + b"\x01" + (2).to_bytes(4, "big") + b"ab"
        + b"\x02" + (6).to_bytes(4, "big") + b"DAXiot"
        + b"\x03" + (3).to_bytes(4, "big") + b"\x01\x02\x03"
        + b"\x06" + (1).to_bytes(4, "big") + b"\x00"
    )
    assert encode_frame(packet) == expected


def test_declared_length_must_match():
    frame = bytearray(encode_frame(Packet(kind=PacketKind.DISCONNECT)))
    frame[3] += 1
    with pytest.raises(FramingError):
        decode_frame(bytes(frame))


def test_truncated_frame():
    frame = encode_frame(Packet(kind=PacketKind.CONNECT, client_id="abc"))
    with pytest.raises(FramingError):
        decode_frame(frame[:7])


def test_unknown_kind():
    with pytest.raises(FramingError):
        decode_frame((1).to_bytes(4, "big") + b"\x7f")


def test_unknown_field_tag():
    frame = (6).to_bytes(4, "big") + b"\x01" + b"\x7f" + (0).to_bytes(4, "big")
    with pytest.raises(FramingError):
        decode_frame(frame)


def test_retired_nonce_prefix_tag_is_an_unknown_field():
    # 0x07 once carried a nonce prefix; the b2c prefix travels in the CONNACK envelope.
    frame = (22).to_bytes(4, "big") + b"\x04" + b"\x07" + (16).to_bytes(4, "big") + bytes(16)
    with pytest.raises(FramingError, match="unknown field tag 0x07"):
        decode_frame(frame)


def test_duplicate_field():
    body = b"\x01" + (b"\x01" + (1).to_bytes(4, "big") + b"a") * 2
    frame = len(body).to_bytes(4, "big") + body
    with pytest.raises(FramingError):
        decode_frame(frame)


def test_field_overrun():
    body = b"\x01" + b"\x01" + (9).to_bytes(4, "big") + b"a"
    frame = len(body).to_bytes(4, "big") + body
    with pytest.raises(FramingError):
        decode_frame(frame)


def test_bad_reason_code_length():
    body = b"\x04" + b"\x06" + (2).to_bytes(4, "big") + b"\x00\x00"
    frame = len(body).to_bytes(4, "big") + body
    with pytest.raises(FramingError):
        decode_frame(frame)


def test_unknown_reason_code_value():
    body = b"\x04" + b"\x06" + (1).to_bytes(4, "big") + b"\x55"
    frame = len(body).to_bytes(4, "big") + body
    with pytest.raises(FramingError):
        decode_frame(frame)


def test_non_utf8_string_field():
    body = b"\x01" + b"\x01" + (2).to_bytes(4, "big") + b"\xff\xfe"
    frame = len(body).to_bytes(4, "big") + body
    with pytest.raises(FramingError):
        decode_frame(frame)


def test_oversized_declared_length():
    frame = (MAX_FRAME + 1).to_bytes(4, "big") + b"\x01"
    with pytest.raises(FramingError):
        decode_frame(frame)


def test_frame_length_bounds():
    assert frame_length((1).to_bytes(4, "big")) == 1
    assert frame_length(MAX_FRAME.to_bytes(4, "big")) == MAX_FRAME
    for length in (0, MAX_FRAME + 1):
        with pytest.raises(FramingError, match="invalid frame length"):
            frame_length(length.to_bytes(4, "big"))


@pytest.fixture
def client_and_peer():
    """A TcpClientConnection and the raw socket on the other end of it."""
    with socket.create_server(("127.0.0.1", 0)) as server:
        connection = TcpClientConnection("127.0.0.1", server.getsockname()[1], timeout=2)
        peer, _ = server.accept()
    with connection, peer:
        yield connection, peer


def test_client_reads_a_frame(client_and_peer):
    connection, peer = client_and_peer
    packet = Packet(kind=PacketKind.PUBACK, reason_code=ReasonCode.SUCCESS)
    peer.sendall(encode_frame(packet) * 2)
    assert connection.recv() == packet
    assert connection.recv() == packet


@pytest.mark.parametrize("length", [0, MAX_FRAME + 1])
def test_client_refuses_a_bad_length_before_reading_a_body(client_and_peer, length):
    connection, peer = client_and_peer
    peer.sendall(length.to_bytes(4, "big"))  # no body follows; reading one would time out
    with pytest.raises(FramingError, match="invalid frame length"):
        connection.recv()


@pytest.mark.parametrize(
    "sent, message",
    [
        (b"", "closed by the broker"),
        (b"\x00\x00", "closed mid-frame"),
        (b"\x00\x00\x00\x05\x07", "closed mid-frame"),
    ],
)
def test_client_tells_clean_eof_from_a_torn_frame(client_and_peer, sent, message):
    connection, peer = client_and_peer
    peer.sendall(sent)
    peer.shutdown(socket.SHUT_WR)
    with pytest.raises(FramingError, match=message):
        connection.recv()
