"""Independent oracles used to check the production code paths.

Everything here is deliberately implemented from first principles (or from a
different library code path) so that a defect in the package cannot hide
behind the same defect in its tests. :func:`source_nodes` walks the package
source for the guards on where a call may appear.
"""

from __future__ import annotations

import ast
import base64
import hashlib
import hmac
import json
import struct
from pathlib import Path
from typing import Iterator

from cryptography.hazmat.primitives.asymmetric.x25519 import X25519PrivateKey

import daxiot

B58_ALPHABET = "123456789ABCDEFGHJKLMNPQRSTUVWXYZabcdefghijkmnopqrstuvwxyz"


def base58_oracle(data: bytes) -> str:
    """Independent base58btc encoder: per-byte accumulation, no divmod loop order shared."""
    digits: list[int] = []
    for byte in data:
        carry = byte
        for i in range(len(digits)):
            carry += digits[i] << 8
            digits[i] = carry % 58
            carry //= 58
        while carry:
            digits.append(carry % 58)
            carry //= 58
    pad = 0
    for byte in data:
        if byte:
            break
        pad += 1
    return "1" * pad + "".join(B58_ALPHABET[d] for d in reversed(digits))


def hkdf_sha256_oracle(ikm: bytes, info: bytes, length: int = 32, salt: bytes = b"") -> bytes:
    """RFC 5869 expressed directly in HMAC calls."""
    if not salt:
        salt = b"\x00" * hashlib.sha256().digest_size
    prk = hmac.new(salt, ikm, hashlib.sha256).digest()
    okm, block, counter = b"", b"", 1
    while len(okm) < length:
        block = hmac.new(prk, block + info + bytes([counter]), hashlib.sha256).digest()
        okm += block
        counter += 1
    return okm[:length]


# --- pure-python ChaCha20 core for the HChaCha20 oracle ---------------------

def _rotl32(value: int, count: int) -> int:
    return ((value << count) & 0xFFFFFFFF) | (value >> (32 - count))


def _quarter(state: list[int], a: int, b: int, c: int, d: int) -> None:
    state[a] = (state[a] + state[b]) & 0xFFFFFFFF
    state[d] = _rotl32(state[d] ^ state[a], 16)
    state[c] = (state[c] + state[d]) & 0xFFFFFFFF
    state[b] = _rotl32(state[b] ^ state[c], 12)
    state[a] = (state[a] + state[b]) & 0xFFFFFFFF
    state[d] = _rotl32(state[d] ^ state[a], 8)
    state[c] = (state[c] + state[d]) & 0xFFFFFFFF
    state[b] = _rotl32(state[b] ^ state[c], 7)


def hchacha20_oracle(key: bytes, input16: bytes) -> bytes:
    state = [0x61707865, 0x3320646E, 0x79622D32, 0x6B206574]
    state += list(struct.unpack("<8L", key))
    state += list(struct.unpack("<4L", input16))
    for _ in range(10):
        _quarter(state, 0, 4, 8, 12)
        _quarter(state, 1, 5, 9, 13)
        _quarter(state, 2, 6, 10, 14)
        _quarter(state, 3, 7, 11, 15)
        _quarter(state, 0, 5, 10, 15)
        _quarter(state, 1, 6, 11, 12)
        _quarter(state, 2, 7, 8, 13)
        _quarter(state, 3, 4, 9, 14)
    return struct.pack("<4L", *state[0:4]) + struct.pack("<4L", *state[12:16])


# --- key conversion oracle ----------------------------------------------------

def x25519_public_from_seed(seed: bytes) -> bytes:
    """Derive the agreement public key by scalar multiplication, not by the
    Edwards-to-Montgomery point map the package uses."""
    scalar = bytearray(hashlib.sha512(seed).digest()[:32])
    scalar[0] &= 248
    scalar[31] &= 127
    scalar[31] |= 64
    return X25519PrivateKey.from_private_bytes(bytes(scalar)).public_key().public_bytes_raw()


def montgomery_u_oracle(y: int) -> bytes:
    """The Edwards-to-Montgomery map u = (1 + y) / (1 - y), inverting by
    Fermat's little theorem rather than by the extended Euclid the package uses."""
    p = 2**255 - 19
    return ((1 + y) * pow(1 - y, p - 2, p) % p).to_bytes(32, "little")


# --- disclosure digest oracle ---------------------------------------------------

def disclosure_digest_oracle(salt: str, key: str, value: dict) -> str:
    serialized = json.dumps([salt, key, value], separators=(",", ":"), ensure_ascii=False)
    digest = hashlib.sha256(serialized.encode("utf-8")).digest()
    return base64.urlsafe_b64encode(digest).rstrip(b"=").decode("ascii")


# --- brute-force permission oracle ------------------------------------------------

class PermissionOracle:
    """Reference authorization decision: a flat lookup over issued claims."""

    def __init__(self) -> None:
        self._allowed: set[tuple[str, str, str]] = set()

    def grant(self, client: str, action: str, topic: str) -> None:
        self._allowed.add((client, action, topic))

    def allowed(self, client: str, action: str, topic: str) -> bool:
        return (client, action, topic) in self._allowed


def source_nodes() -> Iterator[tuple[str, str, ast.AST]]:
    """Every AST node of the daxiot package as (file name, innermost
    enclosing function name or "<module>", node), for guards on where a
    call may appear."""
    for path in sorted(Path(daxiot.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text("utf-8"))
        owner: dict[ast.AST, str] = {}
        for function in ast.walk(tree):  # outer functions first, so the innermost name wins
            if isinstance(function, (ast.FunctionDef, ast.AsyncFunctionDef)):
                owner.update((node, function.name) for node in ast.walk(function))
        for node in ast.walk(tree):
            yield path.name, owner.get(node, "<module>"), node
