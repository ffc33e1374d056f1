"""Length-prefixed binary wire framing.

Frame layout: 4-byte big-endian length || 1-byte packet kind || field
section, where length counts everything after itself. The field section is a
sequence of (1-byte tag, 4-byte big-endian length, value bytes) entries.
Strings are UTF-8; encrypted fields carry serialized AEAD envelopes.
"""

from __future__ import annotations

import struct
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


@dataclass(slots=True)
class Packet:
    """One wire message; unset fields are simply absent from the frame."""

    kind: PacketKind
    client_id: str | None = None
    auth_method: str | None = None
    auth_data: bytes | None = None
    topic: bytes | None = None
    payload: bytes | None = None
    reason_code: ReasonCode | None = None


_FIELD_HEADER = struct.Struct(">BI")  # tag, value length
_FRAME_HEADER = struct.Struct(">IB")  # body length, packet kind
# Byte values to members, so decoding never calls an Enum constructor.
_KINDS = {kind.value: kind for kind in PacketKind}
_REASONS = {code.value: code for code in ReasonCode}


def encode_frame(packet: Packet) -> bytes:
    parts = [b""]  # the frame header, once the body length is known
    pack = _FIELD_HEADER.pack
    if packet.client_id is not None:
        value = packet.client_id.encode("utf-8")
        parts += (pack(FIELD_CLIENT_ID, len(value)), value)
    if packet.auth_method is not None:
        value = packet.auth_method.encode("utf-8")
        parts += (pack(FIELD_AUTH_METHOD, len(value)), value)
    if packet.auth_data is not None:
        parts += (pack(FIELD_AUTH_DATA, len(packet.auth_data)), packet.auth_data)
    if packet.topic is not None:
        parts += (pack(FIELD_TOPIC, len(packet.topic)), packet.topic)
    if packet.payload is not None:
        parts += (pack(FIELD_PAYLOAD, len(packet.payload)), packet.payload)
    if packet.reason_code is not None:
        parts += (pack(FIELD_REASON_CODE, 1), bytes((packet.reason_code,)))
    length = 1 + sum(map(len, parts))  # the kind byte, then every field
    if length > MAX_FRAME:
        raise FramingError("frame exceeds maximum size")
    parts[0] = _FRAME_HEADER.pack(length, packet.kind)
    return b"".join(parts)


def frame_length(header: bytes) -> int:
    """Body length a 4-byte frame header declares; checked before any body is read."""
    length = int.from_bytes(header, "big")
    if length == 0 or length > MAX_FRAME:
        raise FramingError(f"invalid frame length {length}")
    return length


def decode_frame(frame: bytes) -> Packet:
    """Parse one whole frame in a single pass; anything malformed raises :class:`FramingError`."""
    end = len(frame)
    if end < 5:
        raise FramingError("frame shorter than header")
    declared, kind_byte = _FRAME_HEADER.unpack_from(frame)
    if declared > MAX_FRAME:
        raise FramingError("declared frame length exceeds maximum")
    if declared != end - 4:
        raise FramingError("declared frame length does not match data")
    kind = _KINDS.get(kind_byte)
    if kind is None:
        raise FramingError(f"unknown packet kind 0x{kind_byte:02x}")

    values: list[bytes | None] = [None] * (FIELD_REASON_CODE + 1)  # indexed by tag
    unpack = _FIELD_HEADER.unpack_from
    offset = 5
    while offset < end:
        if offset + 5 > end:
            raise FramingError("truncated field header")
        tag, length = unpack(frame, offset)
        offset += 5
        if offset + length > end:
            raise FramingError(f"field 0x{tag:02x} overruns the frame")
        if not FIELD_CLIENT_ID <= tag <= FIELD_REASON_CODE:
            raise FramingError(f"unknown field tag 0x{tag:02x}")
        if values[tag] is not None:
            raise FramingError(f"duplicate field 0x{tag:02x}")
        values[tag] = frame[offset : offset + length]
        offset += length

    _, client_id, auth_method, auth_data, topic, payload, reason = values
    if client_id is not None:
        client_id = decode_text(client_id, FramingError, "client_id")
    if auth_method is not None:
        auth_method = decode_text(auth_method, FramingError, "auth_method")
    if reason is not None:
        if len(reason) != 1:
            raise FramingError("reason_code must be one byte")
        code = _REASONS.get(reason[0])
        if code is None:
            raise FramingError(f"unknown reason code 0x{reason[0]:02x}")
        reason = code
    return Packet(kind, client_id, auth_method, auth_data, topic, payload, reason)
