"""The benchmark's own checks. Run from the repository root with
``python3 -m pytest perfbench/tests``; the tiny runs take about a minute."""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

import daxiot.broker_service
import daxiot.credential
import daxiot.crypto
import daxiot.did
import daxiot.protocol
import daxiot.wire
import fleet
import metrics
import spans
from daxiot.credential import RevocationRegistry, TrustedIssuerList
from daxiot.did import Resolver
from daxiot.protocol import DaxiotBroker, DaxiotClient
from daxiot.scenario import build_scenario
from daxiot.transport import LoopbackNetwork, run_handshake

PERFBENCH = Path(__file__).resolve().parents[1]
ROOT = PERFBENCH.parent
TRACED_OWNERS = (
    daxiot.protocol, daxiot.did, daxiot.crypto, daxiot.credential, daxiot.wire, daxiot.broker_service,
    DaxiotClient, DaxiotBroker, Resolver, TrustedIssuerList, RevocationRegistry,
)


def _run(workload: str, trace: int, seconds: float) -> tuple[dict, dict]:
    out = subprocess.run(
        [sys.executable, str(PERFBENCH / "run.py"), "--workload", workload, "--seed", "7",
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert out.returncode == 0, out.stderr
    lines = out.stdout.strip().splitlines()
    return json.loads(lines[-2]), json.loads(lines[-1])


def test_benchmark_json_matches_metric_definitions():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert bench["end_to_end"] == [
        {"name": n, "unit": u, "better": b, "bound": bound} for n, u, b, bound in metrics.END_TO_END
    ]
    assert bench["per_layer"] == [{"name": n, "unit": u, "better": b} for n, u, b, _ in metrics.PER_LAYER]
    assert [w["name"] for w in bench["workloads"]] == ["connect", "pubsub", "churn"]


@pytest.mark.parametrize("workload", ["connect", "pubsub", "churn"])
def test_tiny_untraced_run_emits_every_end_to_end_metric(workload):
    detail, result = _run(workload, trace=0, seconds=1)
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert {name: m["unit"] for name, m in result["metrics"].items()} == {n: u for n, u, *_ in metrics.END_TO_END}
    assert all(m["value"] > 0 for m in result["metrics"].values())
    rate = {"connect": "connects_per_s", "pubsub": "delivered_per_s", "churn": "sessions_per_s"}[workload]
    report = detail["report"]
    assert report[rate]["value"] > 0 and report[rate]["unit"] == "1/s"
    assert report["failed_ratio"]["value"] == 0
    assert detail["environment"]["calibration"]["x25519_us_per_op"] > 0
    assert 0 <= detail["environment"]["cpu_steal_share"] < 1


@pytest.mark.parametrize("workload", ["connect", "pubsub", "churn"])
def test_tiny_traced_run_emits_every_layer_metric_and_holds_count_invariants(workload):
    detail, result = _run(workload, trace=1, seconds=3)
    assert result["correct"]
    assert {name: m["unit"] for name, m in result["metrics"].items()} == {n: u for n, u, *_ in metrics.PER_LAYER}
    assert all(check["held"] for check in detail["count_invariants"].values()), detail["count_invariants"]
    changed = result["metrics"]["credential.trust_load.changed_ratio"]["value"]
    if workload == "connect":
        assert changed == 0
        assert result["metrics"]["crypto.x25519.per_op"]["value"] == 6
    if workload == "churn":
        assert changed > 0


def test_wrappers_record_spans_and_restore_the_original_functions(tmp_path):
    env = build_scenario(tmp_path)
    client, network = env.publisher_client(), LoopbackNetwork(env.engine())
    before = {id(owner): dict(vars(owner)) for owner in TRACED_OWNERS}
    recorder = spans.Recorder()
    recorder.install()
    try:
        assert daxiot.protocol.aead_encrypt is not before[id(daxiot.protocol)]["aead_encrypt"]
        run_handshake(client, network.open(), env.broker_did)
    finally:
        recorder.restore()
    for owner in TRACED_OWNERS:
        after = vars(owner)
        for name, value in before[id(owner)].items():
            assert after[name] is value, f"{owner!r}.{name} was not restored"
    calls = {name: entry["calls"] for name, entry in spans.summarize(recorder.spans, 0, spans.now()).items()}
    # One handshake in one process: client and broker spans together.
    assert calls["crypto.x25519"] == 6 and calls["crypto.aead"] == 8
    assert calls["crypto.convert_public_key"] == 3 and calls["crypto.ed25519_verify"] == 1
    assert calls["credential.trust_load"] == 2


def test_self_time_subtracts_child_spans():
    recorder = spans.Recorder()
    recorder.spans[:] = [["outer", 0, 100, -1, 1, None], ["inner", 10, 40, 0, 1, None], ["late", 150, 160, -1, 2, None]]
    summary = spans.summarize(recorder.spans, 0, 120)
    assert summary["outer"]["self_ns"] == 70 and summary["outer"]["total_ns"] == 100
    assert summary["inner"]["self_ns"] == 30
    assert "late" not in summary


def test_same_seed_same_fleet_and_revocation_schedule(tmp_path):
    env = build_scenario(tmp_path)
    first = [fleet.issue_device(env, 11, "fleet", i, publish=True).client.static_did for i in range(4)]
    again = [fleet.issue_device(env, 11, "fleet", i, publish=True).client.static_did for i in range(4)]
    other = [fleet.issue_device(env, 12, "fleet", i, publish=True).client.static_did for i in range(4)]
    assert first == again and first != other
    order = fleet.churn_order(11, 5000)
    assert order == fleet.churn_order(11, 5000) and order != fleet.churn_order(12, 5000)
    schedule = fleet.revocation_schedule(11, order)
    assert schedule == fleet.revocation_schedule(11, order) and schedule != fleet.revocation_schedule(12, order)
    assert len(set(schedule.values())) == len(schedule) > 0
    # Each revoked device is due within REVOKE_LAG sessions of its revocation.
    for at, device in schedule.items():
        assert device in order[at + fleet.REVOKE_LAG[0]: at + fleet.REVOKE_LAG[1] + 1]
    assert fleet.payload(11, 3) == fleet.payload(11, 3) != fleet.payload(12, 3)
    assert len(fleet.payload(11, 3)) == fleet.PAYLOAD_LEN and fleet.payload_seq(fleet.payload(11, 3)) == 3


def test_run_refuses_a_directory_without_daxiot_sources(tmp_path):
    (tmp_path / "perfbench").mkdir()
    for path in PERFBENCH.glob("*.py"):
        (tmp_path / "perfbench" / path.name).write_text(path.read_text())
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "connect", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert out.returncode != 0 and out.stdout == ""
