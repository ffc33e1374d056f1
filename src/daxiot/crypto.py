"""Cryptographic core: Ed25519 identities, derived X25519 agreement keys,
ECDH-ES / ECDH-1PU key agreement with HKDF, and XChaCha20-Poly1305
authenticated encryption under prefix||counter nonces.

One Ed25519 key pair serves both signing and key agreement: the agreement
pair is derived deterministically (secret via SHA-512-then-clamp, public via
the birational Edwards-to-Montgomery map), so a single identifier can carry
both capabilities.

The agreements take X25519 private-key objects, built by
:func:`load_agreement_key`, not raw secrets: loading a key makes the library
derive its public point, which costs about as much as an agreement, so each
caller loads a key once and keeps it as long as the secret itself is needed.
The broker loads its static key on its first connect and keeps it for its
lifetime; a client loads its static and ephemeral keys when it starts a
connection and drops them when the connection ends.

Each :class:`SessionKey` memoizes the ChaCha20-Poly1305 cipher of every
nonce prefix it has been used with. A prefix stays fixed for a whole run of
nonces, so its HChaCha20 subkey is derived once rather than on every AEAD
call. The memo holds nothing more secret than the key itself, lives exactly
as long as the key, and keeps at most :data:`_CIPHERS_PER_KEY` entries: the
protocol uses no more prefixes than that under one key. Two threads racing on
one key at worst derive the same subkey twice.
"""

from __future__ import annotations

import hashlib
import os
import struct
from dataclasses import dataclass, field

from cryptography.exceptions import InvalidSignature, InvalidTag
from cryptography.hazmat.primitives import hashes, serialization
from cryptography.hazmat.primitives.asymmetric.ed25519 import (
    Ed25519PrivateKey,
    Ed25519PublicKey,
)
from cryptography.hazmat.primitives.asymmetric.x25519 import (
    X25519PrivateKey,
    X25519PublicKey,
)
from cryptography.hazmat.primitives.ciphers import Cipher, algorithms
from cryptography.hazmat.primitives.ciphers.aead import ChaCha20Poly1305
from cryptography.hazmat.primitives.kdf.hkdf import HKDF

from .errors import CryptoError, IntegrityError, NonceOverflowError

KEY_LEN = 32
SIGNATURE_LEN = 64
NONCE_PREFIX_LEN = 16
NONCE_LEN = 24  # prefix || 8-byte big-endian counter
TAG_LEN = 16

_MAX_COUNTER = 2**64 - 1
_CURVE25519_P = 2**255 - 19
_CHACHA_CONSTANTS = (0x61707865, 0x3320646E, 0x79622D32, 0x6B206574)
# The challenge prefix, c2b and b2c: the most prefixes one key ever serves.
_CIPHERS_PER_KEY = 3


# ---------------------------------------------------------------------------
# Value types
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SigningKeyPair:
    """Ed25519 identity key pair (32-byte seed and raw public key)."""

    secret: bytes
    public: bytes

    def __post_init__(self) -> None:
        if len(self.secret) != KEY_LEN:
            raise CryptoError(f"signing secret must be {KEY_LEN} bytes, got {len(self.secret)}")
        if len(self.public) != KEY_LEN:
            raise CryptoError(f"signing public key must be {KEY_LEN} bytes, got {len(self.public)}")


@dataclass(frozen=True)
class AgreementKeyPair:
    """X25519 key pair derived from a :class:`SigningKeyPair`."""

    secret: bytes
    public: bytes

    def __post_init__(self) -> None:
        if len(self.secret) != KEY_LEN or len(self.public) != KEY_LEN:
            raise CryptoError("agreement keys must be 32 bytes")


@dataclass(frozen=True)
class SessionKey:
    """A 32-byte AEAD key derived by one of the ``ecdh_*`` agreements."""

    key: bytes
    _ciphers: dict[bytes, ChaCha20Poly1305] = field(
        default_factory=dict, init=False, repr=False, compare=False
    )

    def __post_init__(self) -> None:
        if len(self.key) != KEY_LEN:
            raise CryptoError("session key must be 32 bytes")

    def _cipher(self, prefix: bytes) -> ChaCha20Poly1305:
        """The ChaCha20-Poly1305 cipher under HChaCha20(key, prefix), derived once."""
        cipher = self._ciphers.get(prefix)
        if cipher is None:
            if len(self._ciphers) >= _CIPHERS_PER_KEY:
                self._ciphers.clear()
            cipher = self._ciphers[prefix] = ChaCha20Poly1305(_hchacha20(self.key, prefix))
        return cipher


@dataclass(frozen=True)
class Nonce:
    """24-byte AEAD nonce: 16-byte random prefix || 64-bit big-endian counter.

    Counters advance by exactly one per use and never wrap; an increment at
    the maximum raises :class:`NonceOverflowError`.
    """

    prefix: bytes
    counter: int

    def __post_init__(self) -> None:
        if len(self.prefix) != NONCE_PREFIX_LEN:
            raise CryptoError(f"nonce prefix must be {NONCE_PREFIX_LEN} bytes")
        if not 0 <= self.counter <= _MAX_COUNTER:
            raise CryptoError("nonce counter out of range for uint64")

    @classmethod
    def fresh(cls) -> "Nonce":
        return cls(prefix=os.urandom(NONCE_PREFIX_LEN), counter=0)

    @classmethod
    def from_bytes(cls, data: bytes) -> "Nonce":
        if len(data) != NONCE_LEN:
            raise CryptoError(f"nonce must be {NONCE_LEN} bytes, got {len(data)}")
        return cls(prefix=data[:NONCE_PREFIX_LEN], counter=int.from_bytes(data[NONCE_PREFIX_LEN:], "big"))

    def to_bytes(self) -> bytes:
        return self.prefix + self.counter.to_bytes(8, "big")

    def next(self) -> "Nonce":
        if self.counter >= _MAX_COUNTER:
            raise NonceOverflowError("nonce counter exhausted; terminate the session")
        return Nonce(prefix=self.prefix, counter=self.counter + 1)


@dataclass(frozen=True)
class AeadEnvelope:
    """Serialized ciphertext unit: nonce || ciphertext+tag."""

    nonce: Nonce
    ciphertext: bytes

    def __post_init__(self) -> None:
        if len(self.ciphertext) < TAG_LEN:
            raise CryptoError("ciphertext shorter than the authentication tag")

    @classmethod
    def from_bytes(cls, data: bytes) -> "AeadEnvelope":
        if len(data) < NONCE_LEN + TAG_LEN:
            raise CryptoError("envelope too short")
        return cls(nonce=Nonce.from_bytes(data[:NONCE_LEN]), ciphertext=data[NONCE_LEN:])

    def to_bytes(self) -> bytes:
        return self.nonce.to_bytes() + self.ciphertext


# ---------------------------------------------------------------------------
# Key generation, conversion, signatures
# ---------------------------------------------------------------------------

def generate_signing_keypair(seed: bytes | None = None) -> SigningKeyPair:
    """Generate an Ed25519 pair, from a CSPRNG or deterministically from a seed.

    Deterministic generation exists for reproducible tests and for loading
    identities from key files; the same seed always yields the same pair.
    """
    if seed is None:
        seed = os.urandom(KEY_LEN)
    elif len(seed) != KEY_LEN:
        raise CryptoError(f"seed must be {KEY_LEN} bytes, got {len(seed)}")
    private = Ed25519PrivateKey.from_private_bytes(seed)
    public = private.public_key().public_bytes(
        serialization.Encoding.Raw, serialization.PublicFormat.Raw
    )
    return SigningKeyPair(secret=seed, public=public)


def convert_public_key(ed25519_public: bytes) -> bytes:
    """Map an Ed25519 public key to its X25519 counterpart.

    Uses the birational map u = (1 + y) / (1 - y) over GF(2^255 - 19), where
    y is the Edwards y-coordinate carried by the Ed25519 encoding.
    """
    if len(ed25519_public) != KEY_LEN:
        raise CryptoError("Ed25519 public key must be 32 bytes")
    y = int.from_bytes(ed25519_public, "little") & ((1 << 255) - 1)
    if y >= _CURVE25519_P:
        raise CryptoError("Ed25519 public key encodes an out-of-range coordinate")
    denominator = (1 - y) % _CURVE25519_P
    if denominator == 0:
        raise CryptoError("Ed25519 public key has no Montgomery equivalent")
    u = (1 + y) * pow(denominator, -1, _CURVE25519_P) % _CURVE25519_P
    return u.to_bytes(32, "little")


def agreement_secret(keypair: SigningKeyPair) -> bytes:
    """The X25519 secret of an Ed25519 signing pair: the clamped SHA-512
    prefix of the seed, exactly the scalar Ed25519 itself signs with."""
    scalar = bytearray(hashlib.sha512(keypair.secret).digest()[:KEY_LEN])
    scalar[0] &= 248
    scalar[31] &= 127
    scalar[31] |= 64
    return bytes(scalar)


def to_agreement_keypair(keypair: SigningKeyPair) -> AgreementKeyPair:
    """Derive the X25519 agreement pair from an Ed25519 signing pair.

    The converted public key equals the X25519 public key of
    :func:`agreement_secret`, so any two converted pairs agree under
    Diffie-Hellman.
    """
    return AgreementKeyPair(secret=agreement_secret(keypair), public=convert_public_key(keypair.public))


def sign(keypair: SigningKeyPair, message: bytes) -> bytes:
    """Produce a deterministic 64-byte Ed25519 signature."""
    return Ed25519PrivateKey.from_private_bytes(keypair.secret).sign(message)


def verify(public: bytes, message: bytes, signature: bytes) -> bool:
    """Check an Ed25519 signature; malformed signatures are rejected, not raised."""
    if len(public) != KEY_LEN:
        raise CryptoError("verification key must be 32 bytes")
    if len(signature) != SIGNATURE_LEN:
        return False
    try:
        Ed25519PublicKey.from_public_bytes(public).verify(signature, message)
    except InvalidSignature:
        return False
    return True


# ---------------------------------------------------------------------------
# Diffie-Hellman agreements and key derivation
# ---------------------------------------------------------------------------

def load_agreement_key(secret: bytes) -> X25519PrivateKey:
    """Load a 32-byte X25519 secret as the key object the agreements take.

    Loading derives the public point, so callers keep the object rather
    than load the same secret again.
    """
    if len(secret) != KEY_LEN:
        raise CryptoError(f"X25519 secret must be {KEY_LEN} bytes, got {len(secret)}")
    return X25519PrivateKey.from_private_bytes(secret)


def _dh(private_key: X25519PrivateKey, peer_public: bytes) -> bytes:
    if len(peer_public) != KEY_LEN:
        raise CryptoError("X25519 public keys must be 32 bytes")
    try:
        shared = private_key.exchange(X25519PublicKey.from_public_bytes(peer_public))
    except ValueError as exc:
        # OpenSSL refuses low-order peer points that would yield all zeros.
        raise CryptoError(f"X25519 agreement rejected: {exc}") from exc
    if shared == bytes(KEY_LEN):
        raise CryptoError("X25519 agreement produced an all-zero shared secret")
    return shared


def kdf(secret: bytes, context: bytes) -> bytes:
    """Derive a 32-byte key from raw Diffie-Hellman output with HKDF-SHA-256.

    Empty salt, context as info; ``secret`` is one 32-byte agreement or the
    concatenated ephemeral-then-static pair of the one-pass unified model.
    """
    if not context:
        raise CryptoError("KDF context must not be empty")
    return HKDF(algorithm=hashes.SHA256(), length=KEY_LEN, salt=None, info=context).derive(secret)


def ecdh_es(ephemeral_key: X25519PrivateKey, peer_static_public: bytes, context: bytes) -> SessionKey:
    """Ephemeral-static agreement: anonymous sender, implicitly authenticated receiver.

    Symmetric between the two party forms: the receiver calls this with its
    static key and the sender's ephemeral public key.
    """
    return SessionKey(key=kdf(_dh(ephemeral_key, peer_static_public), context))


def ecdh_1pu(
    sender_static_key: X25519PrivateKey,
    sender_ephemeral_key: X25519PrivateKey,
    receiver_static_public: bytes,
    context: bytes,
) -> SessionKey:
    """One-pass unified model, sender form.

    Ze = DH(ephemeral, receiver static), Zs = DH(sender static, receiver
    static); the derived key authenticates both parties without signatures.
    The concatenation order Ze || Zs is normative.
    """
    z_e = _dh(sender_ephemeral_key, receiver_static_public)
    z_s = _dh(sender_static_key, receiver_static_public)
    return SessionKey(key=kdf(z_e + z_s, context))


def ecdh_1pu_receiver(
    receiver_static_key: X25519PrivateKey,
    sender_ephemeral_public: bytes,
    sender_static_public: bytes,
    context: bytes,
) -> SessionKey:
    """One-pass unified model, receiver form; yields the sender-form key."""
    z_e = _dh(receiver_static_key, sender_ephemeral_public)
    z_s = _dh(receiver_static_key, sender_static_public)
    return SessionKey(key=kdf(z_e + z_s, context))


# ---------------------------------------------------------------------------
# Authenticated encryption (XChaCha20-Poly1305)
# ---------------------------------------------------------------------------

def _hchacha20(key: bytes, nonce16: bytes) -> bytes:
    """HChaCha20 subkey derivation built on the library's ChaCha20 core.

    The library returns keystream = initial_state + permuted_state; the
    HChaCha20 output is words 0-3 and 12-15 of the permuted state alone, so
    the initial state is subtracted back out word-wise.
    """
    keystream = (
        Cipher(algorithms.ChaCha20(key, nonce16), mode=None).encryptor().update(b"\x00" * 64)
    )
    out_words = struct.unpack("<16L", keystream)
    init_words = (
        list(_CHACHA_CONSTANTS)
        + list(struct.unpack("<8L", key))
        + list(struct.unpack("<4L", nonce16))
    )
    permuted = [(o - i) & 0xFFFFFFFF for o, i in zip(out_words, init_words)]
    return struct.pack("<4L", *permuted[0:4]) + struct.pack("<4L", *permuted[12:16])


def _chacha_nonce(nonce: Nonce) -> bytes:
    # XChaCha20 runs ChaCha20 under 4 zero bytes || the last 8 nonce bytes,
    # which here are the big-endian counter.
    return nonce.counter.to_bytes(12, "big")


def aead_encrypt(key: SessionKey, nonce: Nonce, plaintext: bytes, aad: bytes) -> AeadEnvelope:
    """Encrypt under XChaCha20-Poly1305; the caller must never reuse a nonce per key."""
    ciphertext = key._cipher(nonce.prefix).encrypt(_chacha_nonce(nonce), plaintext, aad)
    return AeadEnvelope(nonce=nonce, ciphertext=ciphertext)


def aead_decrypt(key: SessionKey, envelope: AeadEnvelope, aad: bytes) -> bytes:
    """Decrypt and authenticate; any bit flip in nonce, ciphertext, or aad fails."""
    cipher = key._cipher(envelope.nonce.prefix)
    try:
        return cipher.decrypt(_chacha_nonce(envelope.nonce), envelope.ciphertext, aad)
    except InvalidTag as exc:
        raise IntegrityError("AEAD authentication failed") from exc
