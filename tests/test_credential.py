from __future__ import annotations

import json

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import daxiot.credential
from daxiot.credential import (
    MAX_DISCLOSURES,
    MAX_SEGMENT_LEN,
    AuthorizationClaim,
    Disclosure,
    Presentation,
    RevocationRegistry,
    SdJwtCredential,
    TrustedIssuerList,
    issue,
    load_credential_files,
    present,
    save_credential_files,
    verify_presentation,
)
from daxiot.crypto import generate_signing_keypair
from daxiot.did import DirectoryWebSource, Resolver, didkey_encode, write_didweb_document
from daxiot.errors import (
    BadSignature,
    CredentialError,
    MalformedCredential,
    NothingToPresent,
    Revoked,
    SubjectMismatch,
    UnknownDisclosure,
    UntrustedIssuer,
)
from helpers import disclosure_digest_oracle

BROKER_1 = "did:web:broker1.com"
BROKER_2 = "did:web:broker2.com"

LISTING_CLAIMS = [
    AuthorizationClaim(BROKER_1, publish_topics={"t2"}, subscribe_topics={"t1"}),
    AuthorizationClaim(BROKER_2, publish_topics={"t3", "t4"}),
]


@pytest.fixture
def issuer_setup(tmp_path):
    issuer_keypair = generate_signing_keypair()
    issuer_did = "did:web:issuer.com"
    write_didweb_document(tmp_path, issuer_keypair, issuer_did)
    subject_keypair = generate_signing_keypair()
    subject_did = str(didkey_encode(subject_keypair.public))
    resolver = Resolver(DirectoryWebSource(tmp_path))
    til = TrustedIssuerList(frozenset({issuer_did}))
    return issuer_keypair, issuer_did, subject_did, resolver, til


class TestIssue:
    def test_two_claim_shape(self, issuer_setup):
        issuer_keypair, issuer_did, subject_did, _, _ = issuer_setup
        credential, disclosures = issue(
            issuer_keypair, issuer_did, subject_did, LISTING_CLAIMS, "AC_ID_123456789"
        )
        payload = credential.payload
        assert payload["iss"] == issuer_did
        assert payload["sub"] == subject_did
        assert payload["type"] == "AuthorizationCredential"
        assert payload["jti"] == "AC_ID_123456789"
        assert len(payload["_sd"]) == 2
        assert [d.digest() for d in disclosures] == payload["_sd"]

    def test_payload_contains_no_plaintext_claims(self, issuer_setup):
        # The payload holds only fixed fields, the subject, and the disclosure
        # digests. Short names like "t3" show up by chance inside the random
        # did:key and base64url digests, so those are checked by value and
        # only the remaining text is scanned for claim names.
        issuer_keypair, issuer_did, subject_did, _, _ = issuer_setup
        credential, disclosures = issue(
            issuer_keypair, issuer_did, subject_did, LISTING_CLAIMS, "jti-1"
        )
        payload = credential.payload
        assert set(payload) == {"iss", "sub", "type", "jti", "_sd"}
        assert payload["sub"] == subject_did
        assert payload["_sd"] == [d.digest() for d in disclosures]
        scanned = daxiot.credential._b64url_decode(credential.header_b64).decode() + json.dumps(
            [sorted(payload), payload["iss"], payload["type"], payload["jti"]]
        )
        for secret in ("t1", "t2", "t3", "t4", BROKER_1, BROKER_2):
            assert secret not in scanned

    def test_single_claim_containment(self, issuer_setup):
        issuer_keypair, issuer_did, subject_did, _, _ = issuer_setup
        credential, disclosures = issue(
            issuer_keypair, issuer_did, subject_did, LISTING_CLAIMS[:1], "jti-2"
        )
        assert len(credential.payload["_sd"]) == 1
        assert disclosures[0].digest() in credential.payload["_sd"]

    def test_fresh_salts_give_fresh_digests(self, issuer_setup):
        issuer_keypair, issuer_did, subject_did, _, _ = issuer_setup
        _, first = issue(issuer_keypair, issuer_did, subject_did, LISTING_CLAIMS[:1], "jti-3")
        _, second = issue(issuer_keypair, issuer_did, subject_did, LISTING_CLAIMS[:1], "jti-4")
        assert first[0].digest() != second[0].digest()

    def test_empty_claims_rejected(self, issuer_setup):
        issuer_keypair, issuer_did, subject_did, _, _ = issuer_setup
        with pytest.raises(CredentialError):
            issue(issuer_keypair, issuer_did, subject_did, [], "jti-5")

    def test_self_issuance_is_permitted_but_logged(self, issuer_setup, caplog):
        issuer_keypair, issuer_did, _, _, _ = issuer_setup
        with caplog.at_level("WARNING"):
            issue(issuer_keypair, issuer_did, issuer_did, LISTING_CLAIMS[:1], "jti-6")
        assert any("self-credential" in message for message in caplog.messages)

    def test_fixed_inputs_give_recorded_bytes(self, monkeypatch):
        # Bytes recorded from an earlier issue(): issued bytes must not drift
        # between versions, and a second issue with the loaded key repeats them.
        salts = iter(range(1, 10))
        monkeypatch.setattr("daxiot.credential.os.urandom", lambda n: bytes([next(salts)]) * n)
        issuer_keypair = generate_signing_keypair(bytes(range(32)))
        subject_did = str(didkey_encode(generate_signing_keypair(b"\x07" * 32).public))
        claims = [
            AuthorizationClaim(BROKER_1, publish_topics={"t2"}, subscribe_topics={"t1"}),
            AuthorizationClaim(BROKER_2, publish_topics={"käfer/°C", "t3"}),
        ]
        credential, disclosures = issue(
            issuer_keypair, "did:web:issuer.example", subject_did, claims, "AC_golden_1"
        )
        assert subject_did == "did:key:z6MkvDqGT54cXesYGvABpF1UapVNwjCqRcafi4Px6Thv5T3Z"
        assert credential.compact() == (
            "eyJhbGciOiJFZERTQSIsInR5cCI6InNkLWp3dCJ9"
            ".eyJpc3MiOiJkaWQ6d2ViOmlzc3Vlci5leGFtcGxlIiwic3ViIjoiZGlkOmtleTp6Nk1rdkRxR1Q1NGNYZXNZR3ZBQnBGMV"
            "VhcFZOd2pDcVJjYWZpNFB4NlRodjVUM1oiLCJ0eXBlIjoiQXV0aG9yaXphdGlvbkNyZWRlbnRpYWwiLCJqdGkiOiJBQ19nb2"
            "xkZW5fMSIsIl9zZCI6WyJicDJKOU9wTllDeTB6UmR5NXdjeVFuZEFCTGtON0RKc3NFQlJwbWgwLTRBIiwiV21sdTViZkxuX2"
            "5zemZzOHVtREdhOGRiWmNnZ3IzODFWZGRPRTJhU3BYayJdfQ"
            ".nLFbrkhYj1H0E4z_BmDcNPZZJFlLYF3t9SaSGKnTRv3pYCXebrNUPQHO9yq7_Ke2T17J_SNwpiXPHz_gZuPuDQ"
        )
        assert [d.serialize() for d in disclosures] == [
            b'["AQEBAQEBAQEBAQEBAQEBAQ","did:web:broker1.com",{"sub":["t1"],"pub":["t2"]}]',
            '["AgICAgICAgICAgICAgICAg","did:web:broker2.com",{"pub":["käfer/°C","t3"]}]'.encode(),
        ]
        salts = iter(range(1, 10))
        again, _ = issue(issuer_keypair, "did:web:issuer.example", subject_did, claims, "AC_golden_1")
        assert again == credential


class TestHashDisclosure:
    def test_frozen_vector(self):
        disclosure = Disclosure(
            salt="2GLC42sKQveCfGfryNRN9w",
            key=BROKER_1,
            value={"sub": ["t1"], "pub": ["t2"]},
        )
        assert disclosure.serialize() == (
            b'["2GLC42sKQveCfGfryNRN9w","did:web:broker1.com",{"sub":["t1"],"pub":["t2"]}]'
        )
        assert disclosure.digest() == "gzeP7HGRxonHlR1sUkn_a7bHOSQHuLVeRdWNdFMhRVw"

    @settings(max_examples=60, deadline=None)
    @given(
        salt=st.text(st.characters(min_codepoint=33, max_codepoint=126), min_size=1, max_size=24),
        broker=st.sampled_from([BROKER_1, BROKER_2]),
        topics=st.lists(st.text(min_size=1, max_size=12), min_size=1, max_size=4),
    )
    def test_matches_independent_oracle(self, salt, broker, topics):
        value = {"pub": topics}
        disclosure = Disclosure(salt=salt, key=broker, value=value)
        assert disclosure.digest() == disclosure_digest_oracle(salt, broker, value)

    def test_salt_change_changes_digest(self):
        base = Disclosure(salt="aaaa", key=BROKER_1, value={"pub": ["t2"]})
        other = Disclosure(salt="aaab", key=BROKER_1, value={"pub": ["t2"]})
        assert base.digest() != other.digest()

    def test_deterministic(self):
        disclosure = Disclosure(salt="s", key=BROKER_1, value={"pub": ["t2"]})
        assert disclosure.digest() == disclosure.digest()


class TestPresent:
    def _issued(self, issuer_setup):
        issuer_keypair, issuer_did, subject_did, _, _ = issuer_setup
        return issue(issuer_keypair, issuer_did, subject_did, LISTING_CLAIMS, "jti-p")

    def test_selects_only_requested_broker(self, issuer_setup):
        credential, disclosures = self._issued(issuer_setup)
        presentation = present(credential, disclosures, BROKER_1)
        assert len(presentation.disclosures) == 1
        assert presentation.disclosures[0].key == BROKER_1
        assert presentation.compact().endswith("~")

    def test_presentation_hides_other_brokers_claims(self, issuer_setup):
        # Long, distinctive strings: scanning for short names like "t3" would
        # trip over incidental base64 character runs.
        issuer_keypair, issuer_did, subject_did, _, _ = issuer_setup
        hidden_topic = "warehouse-9/forklift-fleet/battery-status"
        claims = [
            AuthorizationClaim(BROKER_1, publish_topics={"building-7/hvac/setpoint"}),
            AuthorizationClaim(BROKER_2, publish_topics={hidden_topic}),
        ]
        credential, disclosures = issue(issuer_keypair, issuer_did, subject_did, claims, "jti-priv")
        compact = present(credential, disclosures, BROKER_1).compact()
        assert hidden_topic not in compact
        assert BROKER_2 not in compact
        # The revealed side stays intact inside the disclosed part.
        parsed = Presentation.parse(compact)
        assert parsed.disclosures[0].value == {"pub": ["building-7/hvac/setpoint"]}

    def test_other_broker_symmetric(self, issuer_setup):
        credential, disclosures = self._issued(issuer_setup)
        presentation = present(credential, disclosures, BROKER_2)
        assert [d.key for d in presentation.disclosures] == [BROKER_2]

    def test_unknown_broker(self, issuer_setup):
        credential, disclosures = self._issued(issuer_setup)
        with pytest.raises(NothingToPresent):
            present(credential, disclosures, "did:web:stranger.com")

    def test_compact_parse_roundtrip(self, issuer_setup):
        credential, disclosures = self._issued(issuer_setup)
        presentation = present(credential, disclosures, BROKER_1)
        parsed = Presentation.parse(presentation.compact())
        assert parsed.credential.compact() == credential.compact()
        assert parsed.disclosures == presentation.disclosures

    def test_parse_requires_trailing_tilde(self):
        with pytest.raises(MalformedCredential):
            Presentation.parse("a.b.c")


class TestVerifyPresentation:
    def _verify(self, issuer_setup, presentation, subject, til=None, rr=None):
        _, _, _, resolver, default_til = issuer_setup
        return verify_presentation(
            presentation,
            expected_subject=subject,
            verifier_did=BROKER_1,
            til=til if til is not None else default_til,
            rr=rr if rr is not None else RevocationRegistry(),
            resolver=resolver,
        )

    def test_happy_path_grant(self, issuer_setup):
        issuer_keypair, issuer_did, subject_did, _, _ = issuer_setup
        credential, disclosures = issue(issuer_keypair, issuer_did, subject_did, LISTING_CLAIMS, "jti-v")
        grant = self._verify(issuer_setup, present(credential, disclosures, BROKER_1), subject_did)
        assert grant.publish_topics == frozenset({"t2"})
        assert grant.subscribe_topics == frozenset({"t1"})

    def test_subject_mismatch(self, issuer_setup):
        issuer_keypair, issuer_did, subject_did, _, _ = issuer_setup
        credential, disclosures = issue(issuer_keypair, issuer_did, subject_did, LISTING_CLAIMS, "jti-v")
        other = str(didkey_encode(generate_signing_keypair().public))
        with pytest.raises(SubjectMismatch):
            self._verify(issuer_setup, present(credential, disclosures, BROKER_1), other)

    def test_untrusted_issuer_checked_before_signature(self, issuer_setup):
        # The issuer is unknown to the resolver AND carries a garbage signature;
        # only the trust check may fire, proving signature work never started.
        unknown_keypair = generate_signing_keypair()
        credential, disclosures = issue(
            unknown_keypair, "did:web:unknown-issuer.com", "did:key:z6Mkfoo", LISTING_CLAIMS, "jti-u"
        )
        broken = SdJwtCredential(credential.header_b64, credential.payload_b64, b"\x00" * 64)
        presentation = Presentation(broken, present(credential, disclosures, BROKER_1).segments)
        with pytest.raises(UntrustedIssuer):
            self._verify(issuer_setup, presentation, "did:key:z6Mkfoo")

    def test_bad_signature(self, issuer_setup):
        issuer_keypair, issuer_did, subject_did, _, _ = issuer_setup
        credential, disclosures = issue(issuer_keypair, issuer_did, subject_did, LISTING_CLAIMS, "jti-v")
        forged = SdJwtCredential(credential.header_b64, credential.payload_b64, b"\x00" * 64)
        with pytest.raises(BadSignature):
            self._verify(issuer_setup, present(forged, disclosures, BROKER_1), subject_did)

    def test_a_trusted_issuer_without_a_document(self, issuer_setup):
        _, _, subject_did, _, _ = issuer_setup
        ghost = "did:web:ghost-issuer.com"  # trusted, but no document under the resolver's directory
        credential, disclosures = issue(generate_signing_keypair(), ghost, subject_did, LISTING_CLAIMS, "jti-g")
        til = TrustedIssuerList(frozenset({ghost}))
        with pytest.raises(BadSignature, match="^issuer document unavailable"):
            self._verify(issuer_setup, present(credential, disclosures, BROKER_1), subject_did, til=til)

    @pytest.mark.parametrize(
        "changes, message",
        [
            ({"jti": None}, "jti missing"),
            ({"jti": 7}, "jti missing"),
            ({"_sd": None}, "_sd missing"),
            ({"_sd": "digest"}, "_sd missing"),
        ],
        ids=["no jti", "integer jti", "no _sd", "string _sd"],
    )
    def test_a_signed_payload_without_a_string_jti_or_an_sd_list(self, issuer_setup, changes, message):
        # Signed by the trusted issuer, so only the fields' shapes are wrong; None drops a field.
        issuer_keypair, issuer_did, subject_did, _, _ = issuer_setup
        credential, disclosures = issue(issuer_keypair, issuer_did, subject_did, LISTING_CLAIMS, "jti-p")
        payload = {key: value for key, value in {**credential.payload, **changes}.items() if value is not None}
        payload_b64 = daxiot.credential._b64url(daxiot.credential._canonical_json(payload))
        signature = daxiot.credential.sign(issuer_keypair, daxiot.credential._signing_input(credential.header_b64, payload_b64))
        signed = SdJwtCredential(credential.header_b64, payload_b64, signature)
        with pytest.raises(MalformedCredential, match=f"^credential {message}$"):
            self._verify(issuer_setup, present(signed, disclosures, BROKER_1), subject_did)

    def test_an_oversized_payload_is_refused_before_decoding(self, issuer_setup, monkeypatch):
        # A flat JSON list past the cap, as any peer holding a did:key can send.
        _, _, subject_did, _, _ = issuer_setup
        payload_b64 = daxiot.credential._b64url(b"[" + b"0," * (MAX_SEGMENT_LEN // 2) + b"0]")
        presentation = Presentation(SdJwtCredential("e30", payload_b64, bytes(64)), ("e30",))
        monkeypatch.setattr(daxiot.credential, "_b64url_decode", lambda text: pytest.fail("segment decoded"))
        with pytest.raises(MalformedCredential, match="longer than"):
            self._verify(issuer_setup, presentation, subject_did)

    def test_the_most_claims_issue_makes_verify(self, issuer_setup):
        # One claim per broker; the cap admits the largest payload issue() signs.
        issuer_keypair, issuer_did, subject_did, _, _ = issuer_setup

        def credential(count):
            filler = [AuthorizationClaim(f"did:web:b{i}.example", subscribe_topics={"t"}) for i in range(count - 1)]
            return issue(issuer_keypair, issuer_did, subject_did, [*LISTING_CLAIMS[:1], *filler], "jti-cap")

        single, _ = credential(1)
        count = 1 + (MAX_SEGMENT_LEN - len(single.payload_b64)) * 3 // (4 * 46)  # 46 JSON bytes per digest
        with pytest.raises(CredentialError, match="no verifier accepts"):
            credential(count + 1)
        near, disclosures = credential(count)
        assert MAX_SEGMENT_LEN - 100 < len(near.payload_b64) <= MAX_SEGMENT_LEN
        grant = self._verify(issuer_setup, present(near, disclosures, BROKER_1), subject_did)
        assert grant.publish_topics == frozenset({"t2"})
        # All its disclosures at once, as the holder's file keeps them, stay within the '~' bound.
        assert len(disclosures) <= MAX_DISCLOSURES
        everything = Presentation.parse(Presentation(near, tuple(d.encoded() for d in disclosures)).compact())
        assert len(everything.segments) == count
        assert self._verify(issuer_setup, everything, subject_did) == grant

    def test_revoked(self, issuer_setup):
        issuer_keypair, issuer_did, subject_did, _, _ = issuer_setup
        credential, disclosures = issue(issuer_keypair, issuer_did, subject_did, LISTING_CLAIMS, "jti-r")
        registry = RevocationRegistry().revoke("jti-r")
        with pytest.raises(Revoked):
            self._verify(issuer_setup, present(credential, disclosures, BROKER_1), subject_did, rr=registry)

    def test_forged_disclosure(self, issuer_setup):
        issuer_keypair, issuer_did, subject_did, _, _ = issuer_setup
        credential, disclosures = issue(issuer_keypair, issuer_did, subject_did, LISTING_CLAIMS, "jti-f")
        original = disclosures[0]
        resalted = Disclosure(salt=original.salt + "x", key=original.key, value=original.value)
        assert resalted.digest() != original.digest()
        presentation = Presentation(credential, (resalted.encoded(),))
        with pytest.raises(UnknownDisclosure):
            self._verify(issuer_setup, presentation, subject_did)

    @staticmethod
    def _decodes(monkeypatch) -> list[bytes]:
        """Every disclosure Disclosure.decode is asked to parse from now on."""
        calls: list[bytes] = []
        decode = Disclosure.decode.__func__
        monkeypatch.setattr(Disclosure, "decode", classmethod(lambda cls, raw: calls.append(raw) or decode(cls, raw)))
        return calls

    def test_more_disclosures_than_digests_are_refused_before_decoding(self, issuer_setup, monkeypatch):
        issuer_keypair, issuer_did, subject_did, _, _ = issuer_setup
        credential, disclosures = issue(issuer_keypair, issuer_did, subject_did, LISTING_CLAIMS, "jti-n")
        committed = tuple(disclosure.encoded() for disclosure in disclosures)
        decodes = self._decodes(monkeypatch)
        with pytest.raises(UnknownDisclosure):
            self._verify(issuer_setup, Presentation(credential, committed + committed[:1]), subject_did)
        assert decodes == []

    def test_decoding_stops_at_the_first_uncommitted_disclosure(self, issuer_setup, monkeypatch):
        issuer_keypair, issuer_did, subject_did, _, _ = issuer_setup
        credential, disclosures = issue(issuer_keypair, issuer_did, subject_did, LISTING_CLAIMS, "jti-s")
        original = disclosures[0]
        resalted = Disclosure(salt=original.salt + "x", key=original.key, value=original.value)
        decodes = self._decodes(monkeypatch)
        with pytest.raises(UnknownDisclosure):
            self._verify(issuer_setup, Presentation(credential, (resalted.encoded(), original.encoded())), subject_did)
        assert len(decodes) == 1

    def test_a_repeated_disclosure_is_refused(self, issuer_setup, monkeypatch):
        issuer_keypair, issuer_did, subject_did, _, _ = issuer_setup
        credential, disclosures = issue(issuer_keypair, issuer_did, subject_did, LISTING_CLAIMS, "jti-d")
        mine = present(credential, disclosures, BROKER_1).segments
        assert len(mine) == 1 and len(disclosures) == 2  # two segments stay within the two digests
        decodes = self._decodes(monkeypatch)
        with pytest.raises(UnknownDisclosure):
            self._verify(issuer_setup, Presentation(credential, mine * 2), subject_did)
        assert len(decodes) == 2

    def test_verification_order(self, issuer_setup):
        # Failing step k must never surface an error from a later step.
        issuer_keypair, issuer_did, subject_did, _, til = issuer_setup
        credential, disclosures = issue(issuer_keypair, issuer_did, subject_did, LISTING_CLAIMS, "jti-o")
        revoked = RevocationRegistry().revoke("jti-o")
        other = str(didkey_encode(generate_signing_keypair().public))

        # subject mismatch + revoked -> subject mismatch (step 1 before step 4)
        with pytest.raises(SubjectMismatch):
            self._verify(issuer_setup, present(credential, disclosures, BROKER_1), other, rr=revoked)
        # revoked + forged disclosure -> revoked (step 4 before step 5)
        original = disclosures[0]
        resalted = Disclosure(salt="zz" + original.salt, key=original.key, value=original.value)
        with pytest.raises(Revoked):
            self._verify(issuer_setup, Presentation(credential, (resalted.encoded(),)), subject_did, rr=revoked)

    def test_any_single_byte_tamper_is_rejected(self, issuer_setup):
        issuer_keypair, issuer_did, subject_did, _, _ = issuer_setup
        credential, disclosures = issue(issuer_keypair, issuer_did, subject_did, LISTING_CLAIMS, "jti-t")
        compact = present(credential, disclosures, BROKER_1).compact()
        for position in range(0, len(compact), 7):
            mutated = compact[:position] + chr((ord(compact[position]) % 93) + 33) + compact[position + 1 :]
            if mutated == compact:
                mutated = compact[:position] + "!" + compact[position + 1 :]
            try:
                presentation = Presentation.parse(mutated)
                self._verify(issuer_setup, presentation, subject_did)
            except CredentialError:
                continue
            raise AssertionError(f"tampered byte at {position} was accepted")

    def test_claim_key_collision_unions_topics(self, issuer_setup):
        issuer_keypair, issuer_did, subject_did, _, _ = issuer_setup
        claims = [
            AuthorizationClaim(BROKER_1, publish_topics={"a"}),
            AuthorizationClaim(BROKER_1, publish_topics={"b"}, subscribe_topics={"c"}),
        ]
        credential, disclosures = issue(issuer_keypair, issuer_did, subject_did, claims, "jti-c")
        grant = self._verify(issuer_setup, present(credential, disclosures, BROKER_1), subject_did)
        assert grant.publish_topics == frozenset({"a", "b"})
        assert grant.subscribe_topics == frozenset({"c"})

    # The issuer fixture is read-only key material, safe to share across examples.
    @settings(
        max_examples=25, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture]
    )
    @given(
        publish=st.sets(st.text(min_size=1, max_size=10), max_size=3),
        subscribe=st.sets(st.text(min_size=1, max_size=10), max_size=3),
    )
    def test_roundtrip_property(self, issuer_setup, publish, subscribe):
        if not publish and not subscribe:
            publish = {"fallback"}
        issuer_keypair, issuer_did, subject_did, resolver, til = issuer_setup
        claims = [
            AuthorizationClaim(BROKER_1, frozenset(publish), frozenset(subscribe)),
            AuthorizationClaim(BROKER_2, publish_topics={"elsewhere"}),
        ]
        credential, disclosures = issue(issuer_keypair, issuer_did, subject_did, claims, "jti-h")
        grant = verify_presentation(
            present(credential, disclosures, BROKER_1),
            expected_subject=subject_did,
            verifier_did=BROKER_1,
            til=til,
            rr=RevocationRegistry(),
            resolver=resolver,
        )
        assert grant.publish_topics == frozenset(publish)
        assert grant.subscribe_topics == frozenset(subscribe)


class TestClaims:
    def test_requires_some_topic(self):
        with pytest.raises(CredentialError):
            AuthorizationClaim(BROKER_1)

    def test_rejects_empty_topic_strings(self):
        with pytest.raises(CredentialError):
            AuthorizationClaim(BROKER_1, publish_topics={""})

    def test_value_object_shape(self):
        claim = AuthorizationClaim(BROKER_1, publish_topics={"t2"}, subscribe_topics={"t1"})
        assert claim.value_object() == {"sub": ["t1"], "pub": ["t2"]}


class TestRegistries:
    def test_absent_jti_is_active(self):
        assert "X" not in RevocationRegistry()

    def test_revoke_then_status(self):
        registry = RevocationRegistry().revoke("X")
        assert "X" in registry

    def test_revoke_idempotent(self):
        registry = RevocationRegistry().revoke("X").revoke("X")
        assert "X" in registry

    def test_registry_file_roundtrip(self, tmp_path):
        path = tmp_path / "rr.json"
        RevocationRegistry().revoke("A").save(path)
        assert json.loads(path.read_text()) == {"A": "REVOKED"}
        assert "A" in RevocationRegistry.load(path)

    def test_til_membership_and_files(self, tmp_path):
        til = TrustedIssuerList().with_member("did:web:a.com").with_member("did:web:a.com")
        assert til.contains("did:web:a.com")
        assert not til.contains("did:web:b.com")
        path = tmp_path / "til.json"
        til.save(path)
        assert json.loads(path.read_text()) == ["did:web:a.com"]
        assert TrustedIssuerList.load(path).without_member("did:web:a.com").members == frozenset()


class TestCredentialFiles:
    def test_roundtrip(self, tmp_path, issuer_setup):
        issuer_keypair, issuer_did, subject_did, _, _ = issuer_setup
        credential, disclosures = issue(issuer_keypair, issuer_did, subject_did, LISTING_CLAIMS, "jti-io")
        save_credential_files(tmp_path / "cred", credential, disclosures)
        loaded_credential, loaded_disclosures = load_credential_files(tmp_path / "cred")
        assert loaded_credential.compact() == credential.compact()
        assert loaded_disclosures == disclosures
        assert [d.digest() for d in loaded_disclosures] == credential.payload["_sd"]
