from __future__ import annotations

import ast
import os

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cryptography.hazmat.primitives.asymmetric.ed25519 import Ed25519PrivateKey, Ed25519PublicKey
from cryptography.hazmat.primitives.ciphers.aead import ChaCha20Poly1305

import daxiot.crypto
from daxiot.credential import AuthorizationClaim, issue
from daxiot.crypto import (
    _VERDICTS,
    SessionKey,
    XChaCha20Poly1305,
    aead_decrypt,
    aead_encrypt,
    convert_public_key,
    ecdh_1pu,
    ecdh_1pu_receiver,
    ecdh_es,
    generate_signing_keypair,
    kdf,
    load_agreement_key,
    sign,
    to_agreement_keypair,
    verify,
)
from daxiot.errors import CryptoError, IntegrityError
from daxiot.protocol import Channel
from daxiot.wire import PacketKind
from helpers import (
    hchacha20_oracle,
    hkdf_sha256_oracle,
    montgomery_u_oracle,
    source_nodes,
    x25519_public_from_seed,
)

seeds = st.binary(min_size=32, max_size=32)
P = 2**255 - 19


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


class _CountingEd25519:
    """Stands in for ``Ed25519PrivateKey`` in daxiot.crypto and counts key loads."""

    def __init__(self) -> None:
        self.loads = 0

    def from_private_bytes(self, data: bytes) -> Ed25519PrivateKey:
        self.loads += 1
        return Ed25519PrivateKey.from_private_bytes(data)


class TestSignerMemo:
    def test_many_signatures_load_the_key_once(self, monkeypatch):
        keypair = generate_signing_keypair(b"\x05" * 32)
        counting = _CountingEd25519()
        monkeypatch.setattr(daxiot.crypto, "Ed25519PrivateKey", counting)
        messages = [bytes([index]) * index for index in range(6)]
        signatures = [sign(keypair, message) for message in messages]
        assert counting.loads == 1
        assert all(verify(keypair.public, m, sig) for m, sig in zip(messages, signatures))

    def test_memo_is_not_part_of_pair_identity(self):
        used, fresh = generate_signing_keypair(b"\x06" * 32), generate_signing_keypair(b"\x06" * 32)
        sign(used, b"x")
        assert used == fresh and hash(used) == hash(fresh) and repr(used) == repr(fresh)

    def test_a_pair_that_never_signs_holds_no_key_object(self):
        keypair = generate_signing_keypair()
        to_agreement_keypair(keypair)
        assert keypair._private_key is None


class _CountingEd25519Public:
    """Stands in for ``Ed25519PublicKey`` in daxiot.crypto and counts verifier loads."""

    def __init__(self) -> None:
        self.loads = 0

    def from_public_bytes(self, data: bytes) -> Ed25519PublicKey:
        self.loads += 1
        return Ed25519PublicKey.from_public_bytes(data)


class TestVerdictMemo:
    def test_only_a_signature_that_verified_is_remembered(self, monkeypatch):
        keypair = generate_signing_keypair()
        message = os.urandom(48)
        signature = sign(keypair, message)
        forged = bytes([signature[0] ^ 1]) + signature[1:]
        counting = _CountingEd25519Public()
        monkeypatch.setattr(daxiot.crypto, "Ed25519PublicKey", counting)

        assert [verify(keypair.public, message, forged) for _ in range(3)] == [False] * 3
        assert counting.loads == 3
        assert verify(keypair.public, message, signature) and verify(keypair.public, message, signature)
        assert counting.loads == 4
        assert not verify(keypair.public, message + b"!", signature)
        assert not verify(generate_signing_keypair().public, message, signature)
        assert counting.loads == 6

    def test_the_memo_stays_at_its_bound(self, monkeypatch):
        issuer = generate_signing_keypair()
        claims = [AuthorizationClaim("did:web:broker.example", publish_topics={"t"})]
        subject_did = "did:key:z6MkBoundTestSubject"
        credentials = [
            issue(issuer, "did:web:issuer.example", subject_did, claims, f"jti-{index}")[0]
            for index in range(_VERDICTS + 100)
        ]
        for credential in credentials:
            assert verify(issuer.public, credential.signing_input(), credential.signature)
        assert len(daxiot.crypto._verified) == _VERDICTS
        counting = _CountingEd25519Public()
        monkeypatch.setattr(daxiot.crypto, "Ed25519PublicKey", counting)
        for credential in (credentials[-1], credentials[0]):  # the newest is kept, the oldest went
            assert verify(issuer.public, credential.signing_input(), credential.signature)
        assert counting.loads == 1
        assert len(daxiot.crypto._verified) == _VERDICTS


def _shows(text: str, secret: bytes) -> bool:
    return repr(secret)[2:-1] in text or secret.hex() in text


class TestNoKeyInRepr:
    def test_key_types(self):
        keypair = generate_signing_keypair(bytes(range(32)))
        sign(keypair, b"load the memo")
        agreement = to_agreement_keypair(keypair)
        session = SessionKey(key=bytes(range(100, 132)))
        nonce = os.urandom(24)
        cipher = XChaCha20Poly1305(session, nonce[:16])
        aead_encrypt(cipher, nonce, b"x", b"")
        for text, secret in (
            (repr(keypair), keypair.secret),
            (repr(agreement), agreement.secret),
            (repr(session), session.key),
            (repr(cipher), session.key),
        ):
            assert not _shows(text, secret)
        assert repr(keypair.public) in repr(keypair)

    def test_scenario_holds_no_seed_in_repr(self, env):
        keypairs = (env.po_keypair, env.publisher.keypair, env.subscriber.keypair)
        for keypair in keypairs:
            sign(keypair, b"load the memo")
        text = repr(env)
        assert not any(_shows(text, keypair.secret) for keypair in keypairs)


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
        assert (
            ecdh_es(load_agreement_key(a.secret), b.public, context).key
            == ecdh_es(load_agreement_key(b.secret), a.public, context).key
        )

    def test_bad_public_length(self):
        with pytest.raises(CryptoError):
            convert_public_key(b"\x00" * 31)

    # y = 1 is the Edwards identity (denominator 0); y = p and 2^255 - 1 are out of range.
    @pytest.mark.parametrize("y", [1, P, 2**255 - 1])
    def test_unmappable_coordinates_rejected(self, y):
        for _ in range(2):  # a refusal is not memoized
            with pytest.raises(CryptoError):
                convert_public_key(y.to_bytes(32, "little"))

    def test_a_repeated_key_is_converted_once(self):
        public = generate_signing_keypair().public
        before = daxiot.crypto._montgomery_u.cache_info()
        assert convert_public_key(public) == convert_public_key(bytearray(public))
        after = daxiot.crypto._montgomery_u.cache_info()
        assert (after.misses - before.misses, after.hits - before.hits) == (1, 1)

    def test_static_keys_outlast_one_ephemeral_per_handshake(self):
        # A broker converts one fresh ephemeral key, outside the memo, and one
        # static key per handshake: with as many devices as there are
        # verdicts, reconnecting in turn, every static key must still be in
        # the memo on its return.
        statics = [os.urandom(32) for _ in range(_VERDICTS)]
        for static in statics:
            convert_public_key(os.urandom(32), remember=False)
            convert_public_key(static)
        hits = 0
        for static in statics:
            convert_public_key(os.urandom(32), remember=False)
            before = daxiot.crypto._montgomery_u.cache_info().hits
            convert_public_key(static)
            hits += daxiot.crypto._montgomery_u.cache_info().hits - before
        assert hits == _VERDICTS

    def test_an_unremembered_conversion_takes_no_entry(self):
        public = generate_signing_keypair().public
        before = daxiot.crypto._montgomery_u.cache_info()
        assert convert_public_key(public, remember=False) == montgomery_u_oracle(
            int.from_bytes(public, "little") & ((1 << 255) - 1)
        )
        for _ in range(2):
            with pytest.raises(CryptoError):
                convert_public_key((1).to_bytes(32, "little"), remember=False)
        assert daxiot.crypto._montgomery_u.cache_info() == before

    @settings(max_examples=200, deadline=None)
    @given(y=st.integers(min_value=0, max_value=P - 1).filter(lambda y: y != 1))
    def test_inverse_matches_fermat_oracle_and_ignores_sign_bit(self, y):
        assert convert_public_key(y.to_bytes(32, "little")) == montgomery_u_oracle(y)
        assert convert_public_key((y | 1 << 255).to_bytes(32, "little")) == montgomery_u_oracle(y)

    def test_short_agreement_secret_rejected(self):
        with pytest.raises(CryptoError):
            load_agreement_key(b"\x01" * 31)


class TestAgreements:
    def test_es_symmetry(self):
        client = to_agreement_keypair(generate_signing_keypair())
        broker = to_agreement_keypair(generate_signing_keypair())
        context = b"es-context"
        sender = ecdh_es(load_agreement_key(client.secret), broker.public, context)
        receiver = ecdh_es(load_agreement_key(broker.secret), client.public, context)
        assert sender.key == receiver.key

    def test_es_context_separation(self):
        client = to_agreement_keypair(generate_signing_keypair())
        broker = to_agreement_keypair(generate_signing_keypair())
        assert ecdh_es(load_agreement_key(client.secret), broker.public, b"DAXiot-ES").key != ecdh_es(
            load_agreement_key(client.secret), broker.public, b"other"
        ).key

    def test_es_fixed_vector(self):
        # Frozen via an independent X25519 + HMAC-HKDF reference composition.
        key = ecdh_es(
            load_agreement_key(bytes([1]) * 32),
            x25519_public_from_scalar(bytes([2]) * 32),
            b"vector-context",
        )
        assert key.key.hex() == "2537b786a4681aab493f9172fe4c09774def801315fd738867d3fb04aad946b0"

    def test_1pu_both_forms_agree(self):
        sender_static = to_agreement_keypair(generate_signing_keypair())
        sender_ephemeral = to_agreement_keypair(generate_signing_keypair())
        receiver = to_agreement_keypair(generate_signing_keypair())
        context = b"1pu-context"
        sender_key = ecdh_1pu(
            load_agreement_key(sender_static.secret),
            load_agreement_key(sender_ephemeral.secret),
            receiver.public,
            context,
        )
        receiver_key = ecdh_1pu_receiver(
            load_agreement_key(receiver.secret), sender_ephemeral.public, sender_static.public, context
        )
        assert sender_key.key == receiver_key.key

    def test_1pu_concatenation_order_is_normative(self):
        sender_static = to_agreement_keypair(generate_signing_keypair())
        sender_ephemeral = to_agreement_keypair(generate_signing_keypair())
        receiver = to_agreement_keypair(generate_signing_keypair())
        context = b"order"
        from daxiot.crypto import _dh

        z_e = _dh(load_agreement_key(sender_ephemeral.secret), receiver.public)
        z_s = _dh(load_agreement_key(sender_static.secret), receiver.public)
        forward = ecdh_1pu(
            load_agreement_key(sender_static.secret),
            load_agreement_key(sender_ephemeral.secret),
            receiver.public,
            context,
        )
        swapped = kdf(z_s + z_e, context)
        assert forward.key == kdf(z_e + z_s, context)
        assert forward.key != swapped

    def test_1pu_fixed_vector(self):
        key = ecdh_1pu(
            load_agreement_key(bytes([3]) * 32),
            load_agreement_key(bytes([1]) * 32),
            x25519_public_from_scalar(bytes([2]) * 32),
            b"vector-context",
        )
        assert key.key.hex() == "e08c482e18781d0dca8aa680ec4a794721d38a3d048a07d86cd561e6f2665512"

    def test_low_order_point_rejected(self):
        pair = to_agreement_keypair(generate_signing_keypair())
        with pytest.raises(CryptoError):
            ecdh_es(load_agreement_key(pair.secret), b"\x00" * 32, b"ctx")


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


def _nonce(prefix: bytes, counter: int) -> bytes:
    return prefix + counter.to_bytes(8, "big")


def _flip(data: bytes, position: int, mask: int = 0x01) -> bytes:
    flipped = bytearray(data)
    flipped[position] ^= mask
    return bytes(flipped)


class TestAead:
    def _cipher(self, nonce: bytes, key: bytes = b"\x42" * 32) -> XChaCha20Poly1305:
        return XChaCha20Poly1305(SessionKey(key=key), nonce[:16])

    @settings(max_examples=60, deadline=None)
    @given(plaintext=st.binary(max_size=256), aad=st.binary(max_size=64))
    def test_roundtrip(self, plaintext, aad):
        nonce = os.urandom(24)
        envelope = aead_encrypt(self._cipher(nonce), nonce, plaintext, aad)
        assert aead_decrypt(self._cipher(nonce), envelope, aad) == plaintext

    def test_tampered_ciphertext_rejected(self):
        nonce = os.urandom(24)
        envelope = aead_encrypt(self._cipher(nonce), nonce, b"hello", b"aad")
        with pytest.raises(IntegrityError):
            aead_decrypt(self._cipher(nonce), _flip(envelope, 24), b"aad")

    def test_tampered_nonce_rejected(self):
        nonce = os.urandom(24)
        envelope = aead_encrypt(self._cipher(nonce), nonce, b"hello", b"aad")
        for position in (0, 23):  # the prefix and the counter
            with pytest.raises(IntegrityError):
                aead_decrypt(self._cipher(nonce), _flip(envelope, position), b"aad")

    def test_wrong_aad_rejected(self):
        nonce = os.urandom(24)
        envelope = aead_encrypt(self._cipher(nonce), nonce, b"hello", b"aad")
        with pytest.raises(IntegrityError):
            aead_decrypt(self._cipher(nonce), envelope, b"other")

    def test_wrong_key_rejected(self):
        nonce = os.urandom(24)
        envelope = aead_encrypt(self._cipher(nonce), nonce, b"hello", b"aad")
        other = self._cipher(nonce, key=b"\x43" * 32)
        with pytest.raises(IntegrityError):
            aead_decrypt(other, envelope, b"aad")

    def test_fixed_inputs_fixed_ciphertext(self):
        nonce = _nonce(b"\xaa" * 16, 7)
        one = aead_encrypt(self._cipher(nonce), nonce, b"payload", b"aad")
        two = aead_encrypt(self._cipher(nonce), nonce, b"payload", b"aad")
        assert one == two

    def test_envelope_serialization(self):
        nonce = os.urandom(24)
        envelope = aead_encrypt(self._cipher(nonce), nonce, b"payload", b"")
        assert envelope[:24] == nonce
        assert len(envelope) == 24 + len(b"payload") + 16

    def test_envelope_too_short(self):
        cipher = self._cipher(bytes(24))
        for length in (0, 30, 39):
            with pytest.raises(CryptoError) as refused:
                aead_decrypt(cipher, b"\x00" * length, b"")
            assert refused.type is CryptoError
        with pytest.raises(IntegrityError):  # long enough: refused by its tag
            aead_decrypt(cipher, b"\x00" * 40, b"")

    def test_nonce_of_wrong_length_refused(self):
        cipher = self._cipher(bytes(24))
        for length in (0, 16, 23, 25):
            with pytest.raises(CryptoError):
                aead_encrypt(cipher, b"\x00" * length, b"x", b"")


class TestPrefixBinding:
    """A cipher serves one key and one nonce prefix, the run a ``Channel`` owns."""

    KEY = SessionKey(key=b"\x42" * 32)

    def test_each_prefix_matches_the_independent_path(self):
        key = SessionKey(key=bytes(range(32)))
        ciphers = [XChaCha20Poly1305(key, b"\x01" * 16), XChaCha20Poly1305(key, b"\x02" * 16)]
        for counter in range(20):
            for cipher in ciphers:
                nonce = _nonce(cipher.prefix, counter)
                envelope = aead_encrypt(cipher, nonce, b"reading %d" % counter, b"aad")
                reference = ChaCha20Poly1305(hchacha20_oracle(key.key, cipher.prefix)).encrypt(
                    bytes(4) + counter.to_bytes(8, "big"), b"reading %d" % counter, b"aad"
                )
                assert envelope == nonce + reference
                assert aead_decrypt(cipher, envelope, b"aad") == b"reading %d" % counter

    def test_a_used_cipher_still_refuses_a_bit_flip(self):
        nonce = os.urandom(24)
        cipher = XChaCha20Poly1305(self.KEY, nonce[:16])
        envelope = aead_encrypt(cipher, nonce, b"hello", b"aad")
        assert aead_decrypt(cipher, envelope, b"aad") == b"hello"
        for position in (24, len(envelope) - 1):
            with pytest.raises(IntegrityError):
                aead_decrypt(cipher, _flip(envelope, position, 0x80), b"aad")
        assert aead_decrypt(cipher, envelope, b"aad") == b"hello"

    @settings(max_examples=40, deadline=None)
    @given(prefix=st.binary(min_size=16, max_size=16), other=st.binary(min_size=16, max_size=16))
    def test_a_nonce_of_another_prefix_is_refused(self, prefix, other):
        if other == prefix:
            other = bytes(b ^ 0xFF for b in prefix)
        with pytest.raises(CryptoError) as refused:
            aead_encrypt(XChaCha20Poly1305(self.KEY, prefix), _nonce(other, 0), b"x", b"")
        assert refused.type is CryptoError

    @settings(max_examples=40, deadline=None)
    @given(prefix=st.binary(min_size=16, max_size=16), other=st.binary(min_size=16, max_size=16))
    def test_an_envelope_of_another_prefix_is_refused(self, prefix, other):
        # Sealed under the same key, so only the prefix tells the two ciphers apart.
        if other == prefix:
            other = bytes(b ^ 0xFF for b in prefix)
        envelope = aead_encrypt(XChaCha20Poly1305(self.KEY, other), _nonce(other, 0), b"x", b"")
        with pytest.raises(IntegrityError):
            aead_decrypt(XChaCha20Poly1305(self.KEY, prefix), envelope, b"")

    def test_a_prefix_of_the_wrong_length_is_refused(self):
        for length in (0, 15, 17, 24):
            with pytest.raises(CryptoError):
                XChaCha20Poly1305(self.KEY, bytes(length))


class TestNonce:
    """The nonce layout, kept by :class:`daxiot.protocol.Channel`: ``prefix || counter``."""

    def _channel(self, nonce: bytes) -> Channel:
        return Channel(SessionKey(key=b"\x42" * 32), "did:key:z6MkNonceTest", nonce)

    def test_layout(self):
        raw = b"\x01" * 16 + bytes.fromhex("0102030405060708")
        channel = self._channel(raw)
        assert len(channel.nonce) == 24
        assert channel.nonce == raw
        assert channel.cipher.prefix == b"\x01" * 16
        assert channel.counter == 0x0102030405060708
        (envelope,) = channel.seal(PacketKind.PUBLISH, b"x")
        assert envelope[:24] == raw

    def test_next_increments_counter_only(self):
        channel = self._channel(_nonce(b"\x02" * 16, 41))
        (envelope,) = channel.seal(PacketKind.PUBLISH, b"x")
        assert envelope[:24] == _nonce(b"\x02" * 16, 41)
        assert channel.counter == 42
        assert channel.cipher.prefix == b"\x02" * 16
        assert channel.nonce == _nonce(b"\x02" * 16, 42)

    def test_zero_to_one(self):
        channel = self._channel(bytes(24))
        (envelope,) = channel.seal(PacketKind.PUBLISH, b"x")
        assert envelope[:24] == bytes(24)
        assert channel.counter == 1


def test_private_keys_are_loaded_only_where_they_are_kept():
    loads = {
        (path, function, ast.unparse(node.func.value))
        for path, function, node in source_nodes()
        if isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and node.func.attr == "from_private_bytes"
    }
    assert loads == {
        ("crypto.py", "generate_signing_keypair", "Ed25519PrivateKey"),
        ("crypto.py", "_signer", "Ed25519PrivateKey"),
        ("crypto.py", "load_agreement_key", "X25519PrivateKey"),
    }


def test_envelopes_are_sealed_and_opened_only_in_channel():
    # Nonce discipline, the AAD binding and what a failed decrypt means are
    # written once: in protocol.py only Channel calls the AEAD or builds an AAD.
    nodes = [node for path, _, node in source_nodes() if path == "protocol.py"]
    (channel,) = [node for node in nodes if isinstance(node, ast.ClassDef) and node.name == "Channel"]
    inside = {id(node) for node in ast.walk(channel)}
    users = [node for node in nodes if isinstance(node, ast.Name) and node.id in ("aead_encrypt", "aead_decrypt", "_aad")]
    assert {node.id for node in users} == {"aead_encrypt", "aead_decrypt", "_aad"}
    assert [(node.id, node.lineno) for node in users if id(node) not in inside] == []


def test_signatures_are_verified_only_in_verify():
    # The verdict memo sits inside crypto.verify, so no other code may
    # check a signature past it.
    users = {
        (path, function)
        for path, function, node in source_nodes()
        if isinstance(node, ast.Name) and node.id == "Ed25519PublicKey"
    }
    assert users == {("crypto.py", "verify")}, users
