from __future__ import annotations

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from daxiot.crypto import generate_signing_keypair, to_agreement_keypair
from daxiot.did import (
    Did,
    DirectoryWebSource,
    Resolver,
    base58btc_decode,
    base58btc_encode,
    didkey_decode,
    didkey_encode,
    didweb_filename,
    document_from_json,
    multibase_encode,
    write_didweb_document,
    X25519_MULTICODEC,
)
from daxiot.errors import DidError, DidResolutionError
from helpers import base58_oracle

keys = st.binary(min_size=32, max_size=32)


class TestBase58:
    @settings(max_examples=80, deadline=None)
    @given(data=st.binary(max_size=48))
    def test_matches_independent_encoder(self, data):
        assert base58btc_encode(data) == base58_oracle(data)

    @settings(max_examples=80, deadline=None)
    @given(data=st.binary(max_size=48))
    def test_roundtrip(self, data):
        assert base58btc_decode(base58btc_encode(data)) == data

    def test_rejects_invalid_characters(self):
        with pytest.raises(DidError):
            base58btc_decode("0OIl")


class TestDidKey:
    @settings(max_examples=40, deadline=None)
    @given(seed=keys)
    def test_prefix_and_oracle(self, seed):
        public = generate_signing_keypair(seed).public
        did = didkey_encode(public)
        assert str(did).startswith("did:key:z6Mk")
        assert did.identifier == "z" + base58_oracle(b"\xed\x01" + public)

    @settings(max_examples=40, deadline=None)
    @given(seed=keys)
    def test_roundtrip(self, seed):
        public = generate_signing_keypair(seed).public
        assert didkey_decode(didkey_encode(public)) == public

    def test_distinct_keys_distinct_dids(self):
        a = didkey_encode(generate_signing_keypair().public)
        b = didkey_encode(generate_signing_keypair().public)
        assert a != b

    def test_wrong_key_length(self):
        with pytest.raises(DidError):
            didkey_encode(b"\x00" * 31)

    def test_bad_multibase_prefix(self):
        did = didkey_encode(generate_signing_keypair().public)
        broken = Did(method="key", identifier="x" + did.identifier[1:])
        with pytest.raises(DidError):
            didkey_decode(broken)

    def test_truncated_identifier(self):
        did = didkey_encode(generate_signing_keypair().public)
        with pytest.raises(DidError):
            didkey_decode(Did(method="key", identifier=did.identifier[:-4]))

    def test_wrong_multicodec(self):
        payload = X25519_MULTICODEC + b"\x01" * 32
        with pytest.raises(DidError):
            didkey_decode(Did(method="key", identifier=multibase_encode(payload)))


class TestDidParsing:
    def test_parse_roundtrip(self):
        did = Did.parse("did:web:broker1.com")
        assert (did.method, did.identifier) == ("web", "broker1.com")
        assert str(did) == "did:web:broker1.com"

    def test_rejects_non_did(self):
        with pytest.raises(DidError):
            Did.parse("not-a-did")

    def test_rejects_unsupported_method(self):
        with pytest.raises(DidError):
            Did.parse("did:ethr:0xabc")

    def test_rejects_empty_identifier(self):
        with pytest.raises(DidError):
            Did.parse("did:key:")


class _ExplodingSource:
    def document(self, identifier):  # pragma: no cover - must never run
        raise AssertionError("did:key resolution must not touch the web source")


class TestResolution:
    def test_didkey_is_local_and_consistent(self):
        keypair = generate_signing_keypair()
        resolver = Resolver(web_source=_ExplodingSource())
        document = resolver.resolve(didkey_encode(keypair.public))
        assert document.verification_key == keypair.public
        assert document.agreement_key == to_agreement_keypair(keypair).public
        assert document.service_endpoint is None

    def test_didweb_directory_source(self, tmp_path):
        keypair = generate_signing_keypair()
        write_didweb_document(tmp_path, keypair, "did:web:broker1.com", "tcp://127.0.0.1:1883")
        document = Resolver(DirectoryWebSource(tmp_path)).resolve("did:web:broker1.com")
        assert document.service_endpoint == "tcp://127.0.0.1:1883"
        assert document.verification_key == keypair.public
        assert document.agreement_key == to_agreement_keypair(keypair).public

    def test_didweb_miss(self, tmp_path):
        with pytest.raises(DidResolutionError):
            Resolver(DirectoryWebSource(tmp_path)).resolve("did:web:absent.example")

    def test_malformed_document(self, tmp_path):
        (tmp_path / didweb_filename("bad.example")).write_text("not json")
        with pytest.raises(DidError):
            Resolver(DirectoryWebSource(tmp_path)).resolve("did:web:bad.example")

    def test_document_missing_agreement_key(self, tmp_path):
        keypair = generate_signing_keypair()
        path = tmp_path / didweb_filename("partial.example")
        data = {
            "id": "did:web:partial.example",
            "verificationMethod": multibase_encode(b"\xed\x01" + keypair.public),
        }
        path.write_text(json.dumps(data))
        with pytest.raises(DidError):
            Resolver(DirectoryWebSource(tmp_path)).resolve("did:web:partial.example")

    def test_document_id_mismatch(self, tmp_path):
        keypair = generate_signing_keypair()
        write_didweb_document(tmp_path, keypair, "did:web:one.example")
        source_path = tmp_path / didweb_filename("one.example")
        (tmp_path / didweb_filename("two.example")).write_bytes(source_path.read_bytes())
        with pytest.raises(DidError):
            Resolver(DirectoryWebSource(tmp_path)).resolve("did:web:two.example")

    def test_percent_encoded_filename(self, tmp_path):
        keypair = generate_signing_keypair()
        identifier = "broker.example%3A8443"
        path = write_didweb_document(tmp_path, keypair, f"did:web:{identifier}")
        assert path.name == "broker.example%253A8443.json"
        document = Resolver(DirectoryWebSource(tmp_path)).resolve(f"did:web:{identifier}")
        assert document.id.identifier == identifier


class TestDocumentJson:
    def test_field_names(self, tmp_path):
        keypair = generate_signing_keypair()
        path = write_didweb_document(tmp_path, keypair, "did:web:fields.example", "tcp://h:1")
        data = json.loads(path.read_text())
        assert set(data) == {"id", "verificationMethod", "keyAgreement", "service"}
        assert data["verificationMethod"].startswith("z6Mk")
        assert data["keyAgreement"].startswith("z6LS")
        assert data["service"] == {"serviceEndpoint": "tcp://h:1"}

    def test_roundtrip(self, tmp_path):
        keypair = generate_signing_keypair()
        path = write_didweb_document(tmp_path, keypair, "did:web:round.example")
        document = document_from_json(path.read_bytes())
        assert document.verification_key == keypair.public
        assert document.service_endpoint is None
