"""Length-prefixed binary wire framing.

Frame layout: 4-byte big-endian length || 1-byte packet kind || field
section, where length counts everything after itself. The field section is a
sequence of (1-byte tag, 4-byte big-endian length, value bytes) entries.
Strings are UTF-8; encrypted fields carry serialized AEAD envelopes.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import IntEnum

from .errors import FramingError, decode_text

MAX_FRAME = 1 << 20


class PacketKind(IntEnum):
    CONNECT = 0x01
    AUTH_CHALLENGE = 0x02
    AUTH_RESPONSE = 0x03
    CONNACK = 0x04
    SUBSCRIBE = 0x05
    SUBACK = 0x06
    PUBLISH = 0x07
    PUBACK = 0x08
    DISCONNECT = 0x09


class ReasonCode(IntEnum):
    # Deliberately coarse on the wire; fine-grained causes stay in broker logs.
    SUCCESS = 0x00
    PROTOCOL_ERROR = 0x82
    NOT_AUTHORIZED = 0x87


FIELD_CLIENT_ID = 0x01
FIELD_AUTH_METHOD = 0x02
FIELD_AUTH_DATA = 0x03
FIELD_TOPIC = 0x04
FIELD_PAYLOAD = 0x05
FIELD_REASON_CODE = 0x06


@dataclass
class Packet:
    """One wire message; unset fields are simply absent from the frame."""

    kind: PacketKind
    client_id: str | None = None
    auth_method: str | None = None
    auth_data: bytes | None = None
    topic: bytes | None = None
    payload: bytes | None = None
    reason_code: ReasonCode | None = None


def _field(tag: int, value: bytes) -> bytes:
    if len(value) > MAX_FRAME:
        raise FramingError(f"field 0x{tag:02x} too large")
    return bytes([tag]) + len(value).to_bytes(4, "big") + value


def encode_frame(packet: Packet) -> bytes:
    body = bytearray([packet.kind])
    if packet.client_id is not None:
        body += _field(FIELD_CLIENT_ID, packet.client_id.encode("utf-8"))
    if packet.auth_method is not None:
        body += _field(FIELD_AUTH_METHOD, packet.auth_method.encode("utf-8"))
    if packet.auth_data is not None:
        body += _field(FIELD_AUTH_DATA, packet.auth_data)
    if packet.topic is not None:
        body += _field(FIELD_TOPIC, packet.topic)
    if packet.payload is not None:
        body += _field(FIELD_PAYLOAD, packet.payload)
    if packet.reason_code is not None:
        body += _field(FIELD_REASON_CODE, bytes([packet.reason_code]))
    if len(body) > MAX_FRAME:
        raise FramingError("frame exceeds maximum size")
    return len(body).to_bytes(4, "big") + bytes(body)


def frame_length(header: bytes) -> int:
    """Body length a 4-byte frame header declares; checked before any body is read."""
    length = int.from_bytes(header, "big")
    if length == 0 or length > MAX_FRAME:
        raise FramingError(f"invalid frame length {length}")
    return length


def decode_frame(frame: bytes) -> Packet:
    if len(frame) < 5:
        raise FramingError("frame shorter than header")
    declared = int.from_bytes(frame[:4], "big")
    if declared > MAX_FRAME:
        raise FramingError("declared frame length exceeds maximum")
    if declared != len(frame) - 4:
        raise FramingError("declared frame length does not match data")
    try:
        kind = PacketKind(frame[4])
    except ValueError as exc:
        raise FramingError(f"unknown packet kind 0x{frame[4]:02x}") from exc

    packet = Packet(kind=kind)
    seen: set[int] = set()
    offset = 5
    while offset < len(frame):
        if offset + 5 > len(frame):
            raise FramingError("truncated field header")
        tag = frame[offset]
        length = int.from_bytes(frame[offset + 1 : offset + 5], "big")
        offset += 5
        if offset + length > len(frame):
            raise FramingError(f"field 0x{tag:02x} overruns the frame")
        value = frame[offset : offset + length]
        offset += length
        if tag in seen:
            raise FramingError(f"duplicate field 0x{tag:02x}")
        seen.add(tag)
        if tag == FIELD_CLIENT_ID:
            packet.client_id = decode_text(value, FramingError, "client_id")
        elif tag == FIELD_AUTH_METHOD:
            packet.auth_method = decode_text(value, FramingError, "auth_method")
        elif tag == FIELD_AUTH_DATA:
            packet.auth_data = value
        elif tag == FIELD_TOPIC:
            packet.topic = value
        elif tag == FIELD_PAYLOAD:
            packet.payload = value
        elif tag == FIELD_REASON_CODE:
            if length != 1:
                raise FramingError("reason_code must be one byte")
            try:
                packet.reason_code = ReasonCode(value[0])
            except ValueError as exc:
                raise FramingError(f"unknown reason code 0x{value[0]:02x}") from exc
        else:
            raise FramingError(f"unknown field tag 0x{tag:02x}")
    return packet
