from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from daxiot.crypto import (
    AeadEnvelope,
    Nonce,
    SessionKey,
    aead_decrypt,
    aead_encrypt,
    convert_public_key,
    ecdh_1pu,
    ecdh_1pu_receiver,
    ecdh_es,
    generate_signing_keypair,
    kdf,
    sign,
    to_agreement_keypair,
    verify,
)
from daxiot.errors import CryptoError, IntegrityError, NonceOverflowError
from helpers import hkdf_sha256_oracle, x25519_public_from_seed

seeds = st.binary(min_size=32, max_size=32)


class TestKeyGeneration:
    def test_deterministic_from_seed(self):
        a = generate_signing_keypair(b"\x01" * 32)
        b = generate_signing_keypair(b"\x01" * 32)
        assert a == b

    def test_random_pairs_differ(self):
        assert generate_signing_keypair().public != generate_signing_keypair().public

    def test_wrong_seed_length(self):
        with pytest.raises(CryptoError):
            generate_signing_keypair(b"\x01" * 31)

    def test_sign_verify_roundtrip(self):
        keypair = generate_signing_keypair()
        signature = sign(keypair, b"abc")
        assert verify(keypair.public, b"abc", signature)

    def test_verify_rejects_other_key(self):
        keypair = generate_signing_keypair()
        signature = sign(keypair, b"abc")
        assert not verify(generate_signing_keypair().public, b"abc", signature)

    def test_verify_rejects_malformed_signature(self):
        keypair = generate_signing_keypair()
        assert not verify(keypair.public, b"abc", b"\x00" * 63)

    def test_signature_determinism(self):
        keypair = generate_signing_keypair()
        assert sign(keypair, b"same") == sign(keypair, b"same")


class TestConversion:
    def test_deterministic(self):
        keypair = generate_signing_keypair(b"\x05" * 32)
        assert to_agreement_keypair(keypair) == to_agreement_keypair(keypair)

    @settings(max_examples=60, deadline=None)
    @given(seed=seeds)
    def test_point_map_agrees_with_scalar_derivation(self, seed):
        keypair = generate_signing_keypair(seed)
        assert to_agreement_keypair(keypair).public == x25519_public_from_seed(seed)

    @settings(max_examples=40, deadline=None)
    @given(seed_a=seeds, seed_b=seeds)
    def test_converted_pairs_always_agree(self, seed_a, seed_b):
        a = to_agreement_keypair(generate_signing_keypair(seed_a))
        b = to_agreement_keypair(generate_signing_keypair(seed_b))
        context = b"pairwise"
        assert ecdh_es(a.secret, b.public, context).key == ecdh_es(b.secret, a.public, context).key

    def test_bad_public_length(self):
        with pytest.raises(CryptoError):
            convert_public_key(b"\x00" * 31)


class TestAgreements:
    def test_es_symmetry(self):
        client = to_agreement_keypair(generate_signing_keypair())
        broker = to_agreement_keypair(generate_signing_keypair())
        context = b"es-context"
        sender = ecdh_es(client.secret, broker.public, context)
        receiver = ecdh_es(broker.secret, client.public, context)
        assert sender.key == receiver.key

    def test_es_context_separation(self):
        client = to_agreement_keypair(generate_signing_keypair())
        broker = to_agreement_keypair(generate_signing_keypair())
        assert ecdh_es(client.secret, broker.public, b"DAXiot-ES").key != ecdh_es(
            client.secret, broker.public, b"other"
        ).key

    def test_es_fixed_vector(self):
        # Frozen via an independent X25519 + HMAC-HKDF reference composition.
        key = ecdh_es(
            bytes([1]) * 32,
            x25519_public_from_scalar(bytes([2]) * 32),
            b"vector-context",
        )
        assert key.key.hex() == "2537b786a4681aab493f9172fe4c09774def801315fd738867d3fb04aad946b0"

    def test_1pu_both_forms_agree(self):
        sender_static = to_agreement_keypair(generate_signing_keypair())
        sender_ephemeral = to_agreement_keypair(generate_signing_keypair())
        receiver = to_agreement_keypair(generate_signing_keypair())
        context = b"1pu-context"
        sender_key = ecdh_1pu(sender_static.secret, sender_ephemeral.secret, receiver.public, context)
        receiver_key = ecdh_1pu_receiver(
            receiver.secret, sender_ephemeral.public, sender_static.public, context
        )
        assert sender_key.key == receiver_key.key

    def test_1pu_concatenation_order_is_normative(self):
        sender_static = to_agreement_keypair(generate_signing_keypair())
        sender_ephemeral = to_agreement_keypair(generate_signing_keypair())
        receiver = to_agreement_keypair(generate_signing_keypair())
        context = b"order"
        from daxiot.crypto import _dh

        z_e = _dh(sender_ephemeral.secret, receiver.public)
        z_s = _dh(sender_static.secret, receiver.public)
        forward = ecdh_1pu(sender_static.secret, sender_ephemeral.secret, receiver.public, context)
        swapped = kdf(z_s + z_e, context)
        assert forward.key == kdf(z_e + z_s, context)
        assert forward.key != swapped

    def test_1pu_fixed_vector(self):
        key = ecdh_1pu(
            bytes([3]) * 32,
            bytes([1]) * 32,
            x25519_public_from_scalar(bytes([2]) * 32),
            b"vector-context",
        )
        assert key.key.hex() == "e08c482e18781d0dca8aa680ec4a794721d38a3d048a07d86cd561e6f2665512"

    def test_low_order_point_rejected(self):
        pair = to_agreement_keypair(generate_signing_keypair())
        with pytest.raises(CryptoError):
            ecdh_es(pair.secret, b"\x00" * 32, b"ctx")


def x25519_public_from_scalar(scalar: bytes) -> bytes:
    from cryptography.hazmat.primitives.asymmetric.x25519 import X25519PrivateKey

    return X25519PrivateKey.from_private_bytes(scalar).public_key().public_bytes_raw()


class TestKdf:
    def test_deterministic(self):
        secret = b"\x09" * 32
        assert kdf(secret, b"ctx") == kdf(secret, b"ctx")

    def test_one_byte_context_difference(self):
        secret = b"\x09" * 32
        assert kdf(secret, b"ctxA") != kdf(secret, b"ctxB")

    def test_empty_context_rejected(self):
        with pytest.raises(CryptoError):
            kdf(b"\x09" * 32, b"")

    def test_64_byte_input(self):
        secret = bytes(range(64))
        out = kdf(secret, b"ctx")
        assert len(out) == 32
        assert out == hkdf_sha256_oracle(secret, b"ctx")

    @settings(max_examples=50, deadline=None)
    @given(data=st.binary(min_size=64, max_size=64), context=st.binary(min_size=1, max_size=32))
    def test_never_emits_input_slices(self, data, context):
        out = kdf(data, context)
        for start in range(len(data) - 31):
            assert out != data[start : start + 32]


class TestAead:
    def _key(self):
        return SessionKey(key=b"\x42" * 32)

    @settings(max_examples=60, deadline=None)
    @given(plaintext=st.binary(max_size=256), aad=st.binary(max_size=64))
    def test_roundtrip(self, plaintext, aad):
        envelope = aead_encrypt(self._key(), Nonce.fresh(), plaintext, aad)
        assert aead_decrypt(self._key(), envelope, aad) == plaintext

    def test_tampered_ciphertext_rejected(self):
        envelope = aead_encrypt(self._key(), Nonce.fresh(), b"hello", b"aad")
        flipped = bytearray(envelope.ciphertext)
        flipped[0] ^= 0x01
        with pytest.raises(IntegrityError):
            aead_decrypt(self._key(), AeadEnvelope(envelope.nonce, bytes(flipped)), b"aad")

    def test_tampered_nonce_rejected(self):
        envelope = aead_encrypt(self._key(), Nonce.fresh(), b"hello", b"aad")
        raw = bytearray(envelope.to_bytes())
        raw[0] ^= 0x01
        with pytest.raises(IntegrityError):
            aead_decrypt(self._key(), AeadEnvelope.from_bytes(bytes(raw)), b"aad")

    def test_wrong_aad_rejected(self):
        envelope = aead_encrypt(self._key(), Nonce.fresh(), b"hello", b"aad")
        with pytest.raises(IntegrityError):
            aead_decrypt(self._key(), envelope, b"other")

    def test_wrong_key_rejected(self):
        envelope = aead_encrypt(self._key(), Nonce.fresh(), b"hello", b"aad")
        other = SessionKey(key=b"\x43" * 32)
        with pytest.raises(IntegrityError):
            aead_decrypt(other, envelope, b"aad")

    def test_fixed_inputs_fixed_ciphertext(self):
        nonce = Nonce(prefix=b"\xaa" * 16, counter=7)
        one = aead_encrypt(self._key(), nonce, b"payload", b"aad")
        two = aead_encrypt(self._key(), nonce, b"payload", b"aad")
        assert one == two

    def test_envelope_serialization(self):
        envelope = aead_encrypt(self._key(), Nonce.fresh(), b"payload", b"")
        raw = envelope.to_bytes()
        assert raw[:24] == envelope.nonce.to_bytes()
        assert AeadEnvelope.from_bytes(raw) == envelope

    def test_envelope_too_short(self):
        with pytest.raises(CryptoError):
            AeadEnvelope.from_bytes(b"\x00" * 30)


class TestNonce:
    def test_layout(self):
        nonce = Nonce(prefix=b"\x01" * 16, counter=0x0102030405060708)
        raw = nonce.to_bytes()
        assert len(raw) == 24
        assert raw == b"\x01" * 16 + bytes.fromhex("0102030405060708")
        assert Nonce.from_bytes(raw) == nonce

    def test_next_increments_counter_only(self):
        nonce = Nonce(prefix=b"\x02" * 16, counter=41)
        advanced = nonce.next()
        assert advanced.counter == 42
        assert advanced.prefix == nonce.prefix

    def test_zero_to_one(self):
        assert Nonce(prefix=b"\x00" * 16, counter=0).next().counter == 1

    def test_overflow_is_an_error(self):
        nonce = Nonce(prefix=b"\x00" * 16, counter=2**64 - 1)
        with pytest.raises(NonceOverflowError):
            nonce.next()

    def test_bad_lengths(self):
        with pytest.raises(CryptoError):
            Nonce(prefix=b"\x00" * 15, counter=0)
        with pytest.raises(CryptoError):
            Nonce.from_bytes(b"\x00" * 23)
        with pytest.raises(CryptoError):
            Nonce(prefix=b"\x00" * 16, counter=2**64)
