"""Decentralized identifiers: did:key codec, DID documents, and resolution.

did:key identifiers are resolved locally by decoding the multibase-encoded
public key they carry. did:web identifiers are resolved through a pluggable
document source, a directory of JSON files, so nothing here ever needs a
network; :func:`write_didweb_document` writes the files that source reads.
"""

from __future__ import annotations

import json
import os
import urllib.parse
from dataclasses import dataclass
from pathlib import Path

from .crypto import KEY_LEN, SigningKeyPair, convert_public_key, to_agreement_keypair
from .errors import DidError, DidResolutionError, decode_json
from .snapshot import FileSnapshot, replace_file

_B58_ALPHABET = "123456789ABCDEFGHJKLMNPQRSTUVWXYZabcdefghijkmnopqrstuvwxyz"
_B58_INDEX = {ch: i for i, ch in enumerate(_B58_ALPHABET)}

ED25519_MULTICODEC = b"\xed\x01"
X25519_MULTICODEC = b"\xec\x01"

# "z" + base58btc of the 34-byte multicodec-prefixed key; always this long.
_DIDKEY_ED25519_LEN = 48


def base58btc_encode(data: bytes) -> str:
    num = int.from_bytes(data, "big")
    digits: list[str] = []
    while num:
        num, rem = divmod(num, 58)
        digits.append(_B58_ALPHABET[rem])
    pad = len(data) - len(data.lstrip(b"\x00"))
    return "1" * pad + "".join(reversed(digits))


def base58btc_decode(text: str) -> bytes:
    num = 0
    for ch in text:
        if ch not in _B58_INDEX:
            raise DidError(f"invalid base58 character {ch!r}")
        num = num * 58 + _B58_INDEX[ch]
    body = num.to_bytes((num.bit_length() + 7) // 8, "big")
    pad = len(text) - len(text.lstrip("1"))
    return b"\x00" * pad + body


def multibase_encode(data: bytes) -> str:
    """base58btc with the 'z' multibase prefix."""
    return "z" + base58btc_encode(data)


def multibase_decode(text: str) -> bytes:
    if not text.startswith("z"):
        raise DidError(f"unsupported multibase prefix in {text[:4]!r}")
    return base58btc_decode(text[1:])


@dataclass(frozen=True)
class Did:
    """A parsed DID; only the key and web methods are supported."""

    method: str
    identifier: str

    def __post_init__(self) -> None:
        if self.method not in ("key", "web"):
            raise DidError(f"unsupported DID method {self.method!r}")
        if not self.identifier:
            raise DidError("DID identifier must not be empty")

    @classmethod
    def parse(cls, text: "Did | str") -> "Did":
        if isinstance(text, Did):
            return text
        parts = text.split(":", 2)
        if len(parts) != 3 or parts[0] != "did":
            raise DidError(f"not a DID: {text!r}")
        return cls(method=parts[1], identifier=parts[2])

    def __str__(self) -> str:
        return f"did:{self.method}:{self.identifier}"


@dataclass(frozen=True)
class DidDocument:
    """Resolved DID metadata: both public keys plus an optional endpoint."""

    id: Did
    verification_key: bytes
    agreement_key: bytes
    service_endpoint: str | None = None


def didkey_encode(public_key: bytes) -> Did:
    """Encode an Ed25519 public key as a did:key identifier."""
    if len(public_key) != KEY_LEN:
        raise DidError(f"did:key encodes a 32-byte key, got {len(public_key)} bytes")
    return Did(method="key", identifier=multibase_encode(ED25519_MULTICODEC + public_key))


def didkey_decode(did: Did | str) -> bytes:
    """Recover the Ed25519 public key carried by a did:key identifier."""
    did = Did.parse(did)
    if did.method != "key":
        raise DidError(f"expected a did:key, got {did}")
    # base58 decoding is quadratic in its input; bound it before it runs.
    if len(did.identifier) != _DIDKEY_ED25519_LEN:
        raise DidError(
            f"did:key identifier has {len(did.identifier)} characters, expected {_DIDKEY_ED25519_LEN}"
        )
    payload = multibase_decode(did.identifier)
    if not payload.startswith(ED25519_MULTICODEC):
        raise DidError("did:key payload does not carry the Ed25519 multicodec")
    key = payload[len(ED25519_MULTICODEC):]
    if len(key) != KEY_LEN:
        raise DidError(f"did:key payload has {len(key)} key bytes, expected {KEY_LEN}")
    return key


# ---------------------------------------------------------------------------
# DID document JSON
# ---------------------------------------------------------------------------

def document_to_json(document: DidDocument) -> bytes:
    data: dict = {
        "id": str(document.id),
        "verificationMethod": multibase_encode(ED25519_MULTICODEC + document.verification_key),
        "keyAgreement": multibase_encode(X25519_MULTICODEC + document.agreement_key),
    }
    if document.service_endpoint is not None:
        data["service"] = {"serviceEndpoint": document.service_endpoint}
    return json.dumps(data, indent=2).encode("utf-8") + b"\n"


def document_from_json(raw: bytes) -> DidDocument:
    data = decode_json(raw, DidError, "DID document")
    if not isinstance(data, dict):
        raise DidError("malformed DID document: not a JSON object")
    try:
        did = Did.parse(data["id"])
        verification = multibase_decode(data["verificationMethod"])
        agreement = multibase_decode(data["keyAgreement"])
    except KeyError as exc:
        raise DidError(f"malformed DID document: missing {exc.args[0]!r}") from exc
    except (TypeError, AttributeError) as exc:
        raise DidError("malformed DID document: bad field type") from exc
    if not verification.startswith(ED25519_MULTICODEC) or len(verification) != 2 + KEY_LEN:
        raise DidError("malformed DID document: bad verification key codec")
    if not agreement.startswith(X25519_MULTICODEC) or len(agreement) != 2 + KEY_LEN:
        raise DidError("malformed DID document: bad agreement key codec")
    endpoint = None
    service = data.get("service")
    if service is not None:
        if not isinstance(service, dict) or not isinstance(service.get("serviceEndpoint"), str):
            raise DidError("malformed DID document: bad service section")
        endpoint = service["serviceEndpoint"]
    return DidDocument(
        id=did,
        verification_key=verification[2:],
        agreement_key=agreement[2:],
        service_endpoint=endpoint,
    )


def didweb_filename(identifier: str) -> str:
    """One file per did:web identity: percent-encoded identifier + .json."""
    return urllib.parse.quote(identifier, safe="") + ".json"


def write_didweb_document(
    docs_dir: Path, keypair: SigningKeyPair, did: Did | str, service_endpoint: str | None = None
) -> Path:
    """Write the document of did:web ``did``, with both public keys of ``keypair``,
    into ``docs_dir`` where :class:`DirectoryWebSource` reads it; return its path."""
    did = Did.parse(did)
    document = DidDocument(
        id=did,
        verification_key=keypair.public,
        agreement_key=to_agreement_keypair(keypair).public,
        service_endpoint=service_endpoint,
    )
    docs_dir.mkdir(parents=True, exist_ok=True)
    path = docs_dir / didweb_filename(did.identifier)
    replace_file(path, document_to_json(document))  # the broker reads it on every handshake
    return path


# ---------------------------------------------------------------------------
# Resolution
# ---------------------------------------------------------------------------

class DirectoryWebSource:
    """did:web document source backed by a directory of JSON files.

    Each document is parsed once and kept until its file changes
    (:class:`~daxiot.snapshot.FileSnapshot`).
    """

    def __init__(self, root: Path | str) -> None:
        self.root = Path(root)
        self._documents = FileSnapshot(lambda path, raw: document_from_json(raw))

    def document(self, identifier: str) -> DidDocument:
        try:
            return self._documents.read(os.path.join(self.root, didweb_filename(identifier)))
        except OSError as exc:
            raise DidResolutionError(f"no document for did:web:{identifier} under {self.root}") from exc


class Resolver:
    """Resolves did:key locally and did:web through the injected source.

    Read-only after construction; concurrent resolution is fine. did:key
    resolution never touches the web source.
    """

    def __init__(self, web_source: DirectoryWebSource) -> None:
        self.web_source = web_source

    def resolve(self, did: Did | str, *, remember: bool = True) -> DidDocument:
        """The document of ``did``. ``remember=False`` keeps a did:key's
        conversion out of the memo, for a key that never returns, such as a
        connection's ephemeral."""
        did = Did.parse(did)
        if did.method == "key":
            verification = didkey_decode(did)
            return DidDocument(
                id=did,
                verification_key=verification,
                agreement_key=convert_public_key(verification, remember=remember),
            )
        document = self.web_source.document(did.identifier)
        if document.id != did:
            raise DidError(f"document id {document.id} does not match {did}")
        return document
