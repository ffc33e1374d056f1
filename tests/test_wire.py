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
    nonce_prefix=st.none() | st.binary(min_size=16, max_size=16),
)


@settings(max_examples=200, deadline=None)
@given(packet=packets)
def test_roundtrip(packet):
    assert decode_frame(encode_frame(packet)) == packet


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
