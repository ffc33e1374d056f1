"""Published reference vectors for every primitive the package relies on.

Sources: RFC 8032 (Ed25519), RFC 7748 (X25519), RFC 5869 (HKDF-SHA-256), and
the IRTF CFRG XChaCha20-Poly1305 draft (HChaCha20 and the AEAD itself).
"""

from __future__ import annotations

import pytest

from daxiot.crypto import (
    SessionKey,
    XChaCha20Poly1305,
    _dh,
    _hchacha20,
    aead_decrypt,
    aead_encrypt,
    generate_signing_keypair,
    kdf,
    load_agreement_key,
    sign,
    to_agreement_keypair,
    verify,
)
from helpers import hchacha20_oracle, hkdf_sha256_oracle

ED25519_VECTORS = [
    # (seed, public key, message, signature) from RFC 8032 section 7.1
    (
        "9d61b19deffd5a60ba844af492ec2cc44449c5697b326919703bac031cae7f60",
        "d75a980182b10ab7d54bfed3c964073a0ee172f3daa62325af021a68f707511a",
        "",
        "e5564300c360ac729086e2cc806e828a84877f1eb8e5d974d873e065224901555fb8821590a33bacc61e39701cf9b46bd25bf5f0595bbe24655141438e7a100b",
    ),
    (
        "4ccd089b28ff96da9db6c346ec114e0f5b8a319f35aba624da8cf6ed4fb8a6fb",
        "3d4017c3e843895a92b70aa74d1b7ebc9c982ccf2ec4968cc0cd55f12af4660c",
        "72",
        "92a009a9f0d4cab8720e820b5f642540a2b27b5416503f8fb3762223ebdb69da085ac1e43e15996e458f3613d0f11d8c387b2eaeb4302aeeb00d291612bb0c00",
    ),
    (
        "c5aa8df43f9f837bedb7442f31dcb7b166d38535076f094b85ce3a2e0b4458f7",
        "fc51cd8e6218a1a38da47ed00230f0580816ed13ba3303ac5deb911548908025",
        "af82",
        "6291d657deec24024827e69c3abe01a30ce548a284743a445e3680d7db5ac3ac18ff9b538d16f290ae67f760984dc6594a7c15e9716ed28dc027beceea1ec40a",
    ),
]


@pytest.mark.parametrize("seed,public,message,signature", ED25519_VECTORS)
def test_ed25519_rfc8032(seed, public, message, signature):
    keypair = generate_signing_keypair(bytes.fromhex(seed))
    assert keypair.public.hex() == public
    produced = sign(keypair, bytes.fromhex(message))
    assert produced.hex() == signature
    assert verify(keypair.public, bytes.fromhex(message), produced)
    other = generate_signing_keypair(b"\x07" * 32)
    assert not verify(other.public, bytes.fromhex(message), produced)


X25519_VECTORS = [
    # (scalar, u-coordinate, output) from RFC 7748 section 5.2
    (
        "a546e36bf0527c9d3b16154b82465edd62144c0ac1fc5a18506a2244ba449ac4",
        "e6db6867583030db3594c1a424b15f7c726624ec26b3353b10a903a6d0ab1c4c",
        "c3da55379de9c6908e94ea4df28d084f32eccf03491c71f754b4075577a28552",
    ),
    (
        "4b66e9d4d1b4673c5ad22691957d6af5c11b6421e0ea01d42ca4169e7918ba0d",
        "e5210f12786811d3f4b7959d0538ae2c31dbe7106fc03c3efc4cd549c715a413",
        "95cbde9476e8907d7aade45cb4b873f88b595a68799fa152e6f8f7647aac7957",
    ),
]


@pytest.mark.parametrize("scalar,u,expected", X25519_VECTORS)
def test_x25519_rfc7748_scalarmult(scalar, u, expected):
    assert _dh(load_agreement_key(bytes.fromhex(scalar)), bytes.fromhex(u)).hex() == expected


def test_x25519_rfc7748_diffie_hellman():
    alice_secret = bytes.fromhex("77076d0a7318a57d3c16c17251b26645df4c2f87ebc0992ab177fba51db92c2a")
    alice_public = bytes.fromhex("8520f0098930a754748b7ddcb43ef75a0dbf3a0d26381af4eba4a98eaa9b4e6a")
    bob_secret = bytes.fromhex("5dab087e624a8a4b79e17f8b83800ee66f3bb1292618b6fd1c2f8b27ff88e0eb")
    bob_public = bytes.fromhex("de9edb7d7b7dc1b4d35b61c2ece435373f8343c85b78674dadfc7e146f882b4f")
    shared = "4a5d9d5ba4ce2de1728e3bf480350f25e07e21c947d19e3376f09b3c1e161742"
    assert _dh(load_agreement_key(alice_secret), bob_public).hex() == shared
    assert _dh(load_agreement_key(bob_secret), alice_public).hex() == shared


def test_hkdf_rfc5869_case_1():
    ikm = bytes.fromhex("0b" * 22)
    salt = bytes.fromhex("000102030405060708090a0b0c")
    info = bytes.fromhex("f0f1f2f3f4f5f6f7f8f9")
    okm = (
        "3cb25f25faacd57a90434f64d0362f2a2d2d0a90cf1a5a4c5db02d56ecc4c5bf"
        "34007208d5b887185865"
    )
    assert hkdf_sha256_oracle(ikm, info, length=42, salt=salt).hex() == okm


def test_kdf_matches_hkdf_reference():
    secret = bytes(range(64))
    context = b"reference-check"
    assert kdf(secret, context) == hkdf_sha256_oracle(secret, context)
    assert len(kdf(secret, context)) == 32


HCHACHA_KEY = bytes.fromhex("000102030405060708090a0b0c0d0e0f101112131415161718191a1b1c1d1e1f")
HCHACHA_INPUT = bytes.fromhex("000000090000004a0000000031415927")
HCHACHA_SUBKEY = "82413b4227b27bfed30e42508a877d73a0f9e4d58a74a853c12ec41326d3ecdc"


def test_hchacha20_draft_vector():
    assert _hchacha20(HCHACHA_KEY, HCHACHA_INPUT).hex() == HCHACHA_SUBKEY
    assert hchacha20_oracle(HCHACHA_KEY, HCHACHA_INPUT).hex() == HCHACHA_SUBKEY


XCHACHA_KEY = bytes.fromhex("808182838485868788898a8b8c8d8e8f909192939495969798999a9b9c9d9e9f")
XCHACHA_NONCE = bytes.fromhex("404142434445464748494a4b4c4d4e4f5051525354555657")
XCHACHA_AAD = bytes.fromhex("50515253c0c1c2c3c4c5c6c7")
XCHACHA_PLAINTEXT = (
    b"Ladies and Gentlemen of the class of '99: If I could offer you "
    b"only one tip for the future, sunscreen would be it."
)
XCHACHA_CIPHERTEXT = (
    "bd6d179d3e83d43b9576579493c0e939572a1700252bfaccbed2902c21396cbb"
    "731c7f1b0b4aa6440bf3a82f4eda7e39ae64c6708c54c216cb96b72e1213b452"
    "2f8c9ba40db5d945b11b69b982c1bb9e3f3fac2bc369488f76b2383565d3fff9"
    "21f9664c97637da9768812f615c68b13b52e"
)
XCHACHA_TAG = "c0875924c1c7987947deafd8780acf49"


def test_xchacha20poly1305_draft_vector():
    cipher = XChaCha20Poly1305(SessionKey(key=XCHACHA_KEY), XCHACHA_NONCE[:16])
    envelope = aead_encrypt(cipher, XCHACHA_NONCE, XCHACHA_PLAINTEXT, XCHACHA_AAD)
    assert envelope[:24] == XCHACHA_NONCE
    assert envelope[24:].hex() == XCHACHA_CIPHERTEXT + XCHACHA_TAG
    assert aead_decrypt(cipher, envelope, XCHACHA_AAD) == XCHACHA_PLAINTEXT


def test_xchacha20poly1305_draft_vector_on_a_warm_key():
    key = SessionKey(key=XCHACHA_KEY)
    warm = XChaCha20Poly1305(key, b"\xff" * 16)
    aead_encrypt(warm, b"\xff" * 16 + bytes(8), b"warm-up", b"")
    cipher = XChaCha20Poly1305(key, XCHACHA_NONCE[:16])
    envelope = aead_encrypt(cipher, XCHACHA_NONCE, XCHACHA_PLAINTEXT, XCHACHA_AAD)
    assert envelope == XCHACHA_NONCE + bytes.fromhex(XCHACHA_CIPHERTEXT + XCHACHA_TAG)
    assert aead_decrypt(cipher, envelope, XCHACHA_AAD) == XCHACHA_PLAINTEXT


ZERO_SEED_ED25519_PUBLIC = "3b6a27bcceb6a42d62a3a8d02a6f0d73653215771de243a63ac048a18b59da29"
ZERO_SEED_X25519_PUBLIC = "5bf55c73b82ebe22be80f3430667af570fae2556a6415e6b30d4065300aa947d"


def test_zero_seed_reference_keys():
    keypair = generate_signing_keypair(b"\x00" * 32)
    assert keypair.public.hex() == ZERO_SEED_ED25519_PUBLIC
    assert to_agreement_keypair(keypair).public.hex() == ZERO_SEED_X25519_PUBLIC
