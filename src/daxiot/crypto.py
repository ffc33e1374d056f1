"""Cryptographic core: Ed25519 identities and their key files, derived X25519
agreement keys, ECDH-ES / ECDH-1PU key agreement with HKDF, and
XChaCha20-Poly1305 authenticated encryption under prefix||counter nonces.

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
connection and drops them when the connection ends. Signing keys are loaded
once too: loading an Ed25519 seed hashes it and multiplies the base point
(RFC 8032 section 5.1.5), which costs as much as the signature itself, so each
:class:`SigningKeyPair` loads its key on its first :func:`sign` and keeps it.
A pair that never signs, such as a device's or a per-connection ephemeral,
holds nothing more than its two byte strings. Two threads signing at once
with a fresh pair at worst load its key twice.

No ``repr`` shows a secret: secret fields and memos are left out of it.

An AEAD envelope is plain bytes, laid out as XChaCha20-Poly1305 defines it
(draft-irtf-cfrg-xchacha): the 24-byte nonce, then ciphertext and tag. The
nonce is a 16-byte prefix and an 8-byte big-endian counter. An
:class:`XChaCha20Poly1305` is the cipher of one key and one prefix, so its
HChaCha20 subkey is derived once for a whole run of nonces; the run's owner,
``protocol.Channel``, builds it and drops it with the run. :func:`aead_encrypt`
and :func:`aead_decrypt` refuse a nonce or an envelope of any other prefix;
which nonce comes next, and that none repeats, is decided by the channel alone.

Two results depend on nothing but their input bytes, and a peer that
reconnects asks for them again, so each is memoized in a bounded table
inside the function that computes it. :func:`verify` keeps the SHA-256 of
``public || signature || message`` for the last :data:`_VERDICTS` signatures
that verified; a hit stands for the same check on the same bytes, and a
signature that fails is checked again every time, because nothing about a
failure is kept. :func:`convert_public_key` keeps its last
:data:`_VERDICTS` results too: the static keys of peers resolved from their
did:key. A connection's ephemeral key never returns, and a holder converts
its own keys once, so both are converted with ``remember=False`` and take no
entry; a device's reconnections then never push its static key out. Neither
table holds a secret; together they stay under 0.4 MiB. Two threads racing
on one entry at worst compute it twice.
"""

from __future__ import annotations

import hashlib
import os
from collections import OrderedDict
from dataclasses import dataclass, field
from functools import lru_cache
from pathlib import Path

from cryptography.exceptions import InvalidSignature, InvalidTag
from cryptography.hazmat.primitives import hashes
from cryptography.hazmat.primitives.asymmetric.ed25519 import (
    Ed25519PrivateKey,
    Ed25519PublicKey,
)
from cryptography.hazmat.primitives.asymmetric.x25519 import (
    X25519PrivateKey,
    X25519PublicKey,
)
from cryptography.hazmat.primitives.ciphers import Cipher
from cryptography.hazmat.primitives.ciphers.algorithms import ChaCha20
from cryptography.hazmat.primitives.ciphers.aead import ChaCha20Poly1305
from cryptography.hazmat.primitives.kdf.hkdf import HKDF

from .errors import ConfigError, CryptoError, IntegrityError
from .snapshot import replace_file

KEY_LEN = 32
SIGNATURE_LEN = 64
NONCE_PREFIX_LEN = 16
NONCE_LEN = 24  # prefix || 8-byte big-endian counter
TAG_LEN = 16

_CURVE25519_P = 2**255 - 19
# ChaCha20's four constant words, "expand 32-byte k", as one little-endian integer.
_SIGMA = int.from_bytes(b"expand 32-byte k", "little")
_LANE_TOPS = 0x80000000_80000000_80000000_80000000  # the top bit of each 32-bit lane
_ZERO_BLOCK = bytes(64)
# XChaCha20 runs ChaCha20 under 4 zero bytes || the last 8 nonce bytes.
_CHACHA_NONCE_PAD = bytes(4)
# Verified signatures and did:key conversions kept for returning peers: a
# broker's working set is one credential and one static key per device. A
# verdict costs about 150 bytes and a conversion about 240, so both tables
# together stay under 0.4 MiB.
_VERDICTS = 1024


# ---------------------------------------------------------------------------
# Value types
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SigningKeyPair:
    """Ed25519 identity key pair (32-byte seed and raw public key)."""

    secret: bytes = field(repr=False)
    public: bytes
    _private_key: Ed25519PrivateKey | None = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if len(self.secret) != KEY_LEN:
            raise CryptoError(f"signing secret must be {KEY_LEN} bytes, got {len(self.secret)}")
        if len(self.public) != KEY_LEN:
            raise CryptoError(f"signing public key must be {KEY_LEN} bytes, got {len(self.public)}")

    def _signer(self) -> Ed25519PrivateKey:
        """The Ed25519 key object of :attr:`secret`, loaded on first use."""
        private_key = self._private_key
        if private_key is None:
            private_key = Ed25519PrivateKey.from_private_bytes(self.secret)
            object.__setattr__(self, "_private_key", private_key)
        return private_key


@dataclass(frozen=True)
class AgreementKeyPair:
    """X25519 key pair derived from a :class:`SigningKeyPair`."""

    secret: bytes = field(repr=False)
    public: bytes

    def __post_init__(self) -> None:
        if len(self.secret) != KEY_LEN or len(self.public) != KEY_LEN:
            raise CryptoError("agreement keys must be 32 bytes")


@dataclass(frozen=True)
class SessionKey:
    """A 32-byte AEAD key derived by one of the ``ecdh_*`` agreements."""

    key: bytes = field(repr=False)

    def __post_init__(self) -> None:
        if len(self.key) != KEY_LEN:
            raise CryptoError("session key must be 32 bytes")


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
    public = private.public_key().public_bytes_raw()
    return SigningKeyPair(secret=seed, public=public)


def save_signing_key(path: Path | str, keypair: SigningKeyPair) -> None:
    """Write an identity as its hex seed on one line, the file :func:`load_signing_key` reads.

    The file is replaced whole and readable by its owner alone (mode 0600),
    also when it already existed with a wider mode.
    """
    replace_file(path, keypair.secret.hex().encode() + b"\n", 0o600)


def load_signing_key(path: Path | str) -> SigningKeyPair:
    """Load an identity from a hex seed file written by :func:`save_signing_key`."""
    try:
        text = Path(path).read_text("utf-8").strip()
        return generate_signing_keypair(bytes.fromhex(text))
    except (OSError, ValueError, CryptoError) as exc:
        raise ConfigError(f"cannot load signing key from {path}: {exc}") from exc


def convert_public_key(ed25519_public: bytes, *, remember: bool = True) -> bytes:
    """Map an Ed25519 public key to its X25519 counterpart.

    Uses the birational map u = (1 + y) / (1 - y) over GF(2^255 - 19), where
    y is the Edwards y-coordinate carried by the Ed25519 encoding. With
    ``remember=False`` the result is not memoized, for a key that is not
    converted again; the refusals are the same.
    """
    if len(ed25519_public) != KEY_LEN:
        raise CryptoError("Ed25519 public key must be 32 bytes")
    convert = _montgomery_u if remember else _montgomery_u.__wrapped__
    return convert(bytes(ed25519_public))


@lru_cache(maxsize=_VERDICTS)  # an exception is not cached, so a bad key is refused every time
def _montgomery_u(ed25519_public: bytes) -> bytes:
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
    Diffie-Hellman. The pair is a holder's own, so its conversion is not
    memoized: the memo is for peers' keys.
    """
    return AgreementKeyPair(
        secret=agreement_secret(keypair), public=convert_public_key(keypair.public, remember=False)
    )


def sign(keypair: SigningKeyPair, message: bytes) -> bytes:
    """Produce a deterministic 64-byte Ed25519 signature."""
    return keypair._signer().sign(message)


# Digests of the signatures that verified, least recently used first.
_verified: OrderedDict[bytes, bool] = OrderedDict()


def verify(public: bytes, message: bytes, signature: bytes) -> bool:
    """Check an Ed25519 signature; malformed signatures are rejected, not raised.

    A signature that verified before on the same key and message is not
    checked again; see the module docstring.
    """
    if len(public) != KEY_LEN:
        raise CryptoError("verification key must be 32 bytes")
    if len(signature) != SIGNATURE_LEN:
        return False
    digest = hashlib.sha256(public + signature + message).digest()
    if not _verified.pop(digest, False):
        try:
            Ed25519PublicKey.from_public_bytes(public).verify(signature, message)
        except InvalidSignature:
            return False
    _verified[digest] = True  # (re)inserted as the most recently used
    if len(_verified) > _VERDICTS:
        _verified.popitem(last=False)
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
    the initial state of just those words (the constants, then the 16-byte
    input) is subtracted back out, four 32-bit lanes at a time.
    """
    keystream = Cipher(ChaCha20(key, nonce16), mode=None).encryptor().update(_ZERO_BLOCK)
    first = _lanes_minus(int.from_bytes(keystream[:16], "little"), _SIGMA)
    last = _lanes_minus(int.from_bytes(keystream[48:], "little"), int.from_bytes(nonce16, "little"))
    return first.to_bytes(16, "little") + last.to_bytes(16, "little")


def _lanes_minus(x: int, y: int) -> int:
    """Four independent 32-bit subtractions mod 2**32, packed little-endian
    in 128-bit integers: setting every lane's top bit in ``x`` and clearing it
    in ``y`` keeps any borrow inside its lane, and the XOR puts the top bits right."""
    return ((x | _LANE_TOPS) - (y & ~_LANE_TOPS)) ^ ((x ^ ~y) & _LANE_TOPS)


class XChaCha20Poly1305:
    """ChaCha20-Poly1305 under HChaCha20(key, prefix): one key and one nonce prefix."""

    __slots__ = ("prefix", "_aead")

    def __init__(self, key: SessionKey, prefix: bytes) -> None:
        if len(prefix) != NONCE_PREFIX_LEN:
            raise CryptoError(f"nonce prefix must be {NONCE_PREFIX_LEN} bytes, got {len(prefix)}")
        self.prefix = prefix
        self._aead = ChaCha20Poly1305(_hchacha20(key.key, prefix))


def aead_encrypt(cipher: XChaCha20Poly1305, nonce: bytes, plaintext: bytes, aad: bytes) -> bytes:
    """Encrypt under XChaCha20-Poly1305 into the envelope nonce || ciphertext+tag.

    The caller must never reuse a nonce under one key.
    """
    if len(nonce) != NONCE_LEN:
        raise CryptoError(f"nonce must be {NONCE_LEN} bytes, got {len(nonce)}")
    if not nonce.startswith(cipher.prefix):
        raise CryptoError("nonce has another prefix than the cipher")
    return nonce + cipher._aead.encrypt(_CHACHA_NONCE_PAD + nonce[NONCE_PREFIX_LEN:], plaintext, aad)


def aead_decrypt(cipher: XChaCha20Poly1305, envelope: bytes, aad: bytes) -> bytes:
    """Decrypt and authenticate an envelope; any bit flip in nonce, ciphertext, or aad fails."""
    if len(envelope) < NONCE_LEN + TAG_LEN:
        raise CryptoError(f"envelope must be at least {NONCE_LEN + TAG_LEN} bytes, got {len(envelope)}")
    if not envelope.startswith(cipher.prefix):
        raise IntegrityError("AEAD authentication failed: the nonce has another prefix")
    try:
        return cipher._aead.decrypt(
            _CHACHA_NONCE_PAD + envelope[NONCE_PREFIX_LEN:NONCE_LEN], envelope[NONCE_LEN:], aad
        )
    except InvalidTag as exc:
        raise IntegrityError("AEAD authentication failed") from exc
