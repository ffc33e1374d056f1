"""Seeded benchmark inputs: device identities, payload bytes, the churn visit
order and the revocation schedule.

Everything here is a pure function of the workload seed, so two runs with
the same seed drive the broker with the same fleet, the same readings and
the same revocations. Credential salts are drawn inside ``daxiot.credential``
and are not seeded; they do not change any size or count the benchmark reads.
"""

from __future__ import annotations

import hashlib
import random
from dataclasses import dataclass

from daxiot.credential import AuthorizationClaim, issue
from daxiot.crypto import generate_signing_keypair
from daxiot.did import DirectoryWebSource, Resolver, didkey_encode
from daxiot.protocol import DaxiotClient
from daxiot.scenario import ScenarioEnv

PAYLOAD_LEN = 64
_SEQ_LEN = 8

# Churn revokes one device every REVOKE_GAP sessions on average, and the
# revoked device comes up again REVOKE_LAG sessions later at most, so its
# refusal is seen inside the same run.
REVOKE_GAP = (40, 120)
REVOKE_LAG = (1, 16)


def _digest(seed: int, *labels: object) -> bytes:
    return hashlib.sha256("/".join(map(str, ("daxiot-perfbench", seed, *labels))).encode()).digest()


@dataclass
class Device:
    """One simulated device: its credential id and its protocol client."""

    index: int
    jti: str
    client: DaxiotClient


def issue_device(env: ScenarioEnv, seed: int, role: str, index: int, publish: bool) -> Device:
    """Give a seeded identity a credential from the publisher owner.

    ``publish`` selects a publish grant on the scenario topic, otherwise a
    subscribe grant. Each device gets its own resolver, as a real device
    would, so no state is shared between devices inside the load generator.
    """
    keypair = generate_signing_keypair(_digest(seed, role, index))
    topics = frozenset({env.topic})
    claim = AuthorizationClaim(
        broker_did=env.broker_did,
        publish_topics=topics if publish else frozenset(),
        subscribe_topics=frozenset() if publish else topics,
    )
    jti = f"AC-{role}-{index:06d}"
    credential, disclosures = issue(
        env.po_keypair, env.po_did, str(didkey_encode(keypair.public)), [claim], jti
    )
    resolver = Resolver(DirectoryWebSource(env.config.did_web_dir))
    return Device(index, jti, DaxiotClient(keypair, credential, disclosures, resolver))


def payload(seed: int, seq: int) -> bytes:
    """The reading sent as message ``seq``: its sequence number, then seeded bytes."""
    body = hashlib.shake_256(_digest(seed, "payload")).digest(PAYLOAD_LEN - _SEQ_LEN)
    return seq.to_bytes(_SEQ_LEN, "big") + body


def payload_seq(data: bytes) -> int:
    return int.from_bytes(data[:_SEQ_LEN], "big")


def churn_order(seed: int, fleet_size: int) -> list[int]:
    """The order in which churn devices start sessions: a seeded permutation."""
    order = list(range(fleet_size))
    random.Random(_digest(seed, "order")).shuffle(order)
    return order


def revocation_schedule(seed: int, order: list[int]) -> dict[int, int]:
    """Map session index -> fleet device revoked just before that session starts.

    Each revoked device is the one due ``lag`` sessions later, so from that
    session on it must be refused. No device is revoked twice.
    """
    rng = random.Random(_digest(seed, "revocations"))
    schedule: dict[int, int] = {}
    revoked: set[int] = set()
    at = rng.randint(*REVOKE_GAP)
    while at + REVOKE_LAG[1] < len(order):
        target = order[at + rng.randint(*REVOKE_LAG)]
        if target not in revoked:
            schedule[at] = target
            revoked.add(target)
        at += rng.randint(*REVOKE_GAP)
    return schedule
