"""daxiot benchmark: one workload against an out-of-process broker.

Usage, from the root of a daxiot checkout:

    python3 perfbench/run.py --workload connect|pubsub|churn|all --seed N --seconds S --trace 0|1

``--trace 0`` sets up the workload several times (``setup_s`` is the median),
then measures the end-to-end metrics for S seconds with nothing traced.
``--trace 1`` measures S/2 seconds untraced, restarts the broker under the
span-recording launcher, and measures S/2 seconds traced; it reports the
per-layer metrics. The last line of standard output is the result object;
the line before it carries the environment, the per-operation report and,
for traced runs, the structural count invariants. ``--workload all`` runs
the three workloads in turn, each printing its own two lines.
"""

from __future__ import annotations

import argparse
import asyncio
import gc
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
if __name__ == "__main__" and not (SRC / "daxiot" / "__init__.py").is_file():
    sys.exit(f"perfbench: no daxiot sources under {SRC}; run from the root of a daxiot checkout")
sys.path.insert(0, str(SRC))

import cryptography  # noqa: E402
from cryptography.hazmat.primitives.asymmetric.x25519 import X25519PrivateKey  # noqa: E402
from daxiot.bench import PlaintextBroker  # noqa: E402
from daxiot.transport import TcpClientConnection  # noqa: E402
from daxiot.wire import Packet, PacketKind  # noqa: E402

import metrics  # noqa: E402
import spans  # noqa: E402
from loadgen import WORKLOADS, Workload  # noqa: E402

SETUPS = 5
RUNS_DIR = ROOT / ".perfbench-runs"


def pin_cpu() -> tuple[int, int]:
    """Pin this process, and so every broker it starts, to one CPU.

    Returns the number of CPUs this process could use and the one chosen.
    The loop is closed, so with the two processes on two vCPUs the idle one
    halts at every hop and waking it goes through the host's scheduler. In
    interleaved runs on a 2-vCPU VM at about 5% CPU steal, that layout lost
    26% of its throughput and its p90 rose 75%; on one CPU the loss was
    about 10%, and ten-run spreads fell from 0.2-0.8 to 0.1. On one CPU the
    latency is the work on the path. The broker still runs in a process,
    and an interpreter, of its own.
    """
    cpus = sorted(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpus[-1]})
    return len(cpus), cpus[-1]


def steal_ticks() -> int:
    """CPU time the hypervisor gave to others, all CPUs, in clock ticks."""
    with open("/proc/stat") as handle:
        return int(handle.readline().split()[8])


def git_sha() -> str:
    try:
        out = subprocess.run(
            ["git", "rev-parse", "--show-toplevel", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
        )
    except OSError:
        return "unavailable"
    lines = out.stdout.split()
    if out.returncode != 0 or len(lines) != 2 or Path(lines[0]).resolve() != ROOT:
        return "unavailable (not a git checkout)"
    return lines[1]


def calibrate() -> dict:
    """Machine speed readings recorded beside the results, not gated."""
    key, peer = X25519PrivateKey.generate(), X25519PrivateKey.generate().public_key()
    rounds = 2000
    started = time.perf_counter()
    for _ in range(rounds):
        key.exchange(peer)
    x25519_us = (time.perf_counter() - started) / rounds * 1e6

    broker = PlaintextBroker().start()
    try:
        with TcpClientConnection("127.0.0.1", broker.port) as connection:
            connection.send(Packet(kind=PacketKind.CONNECT, client_id="calibration", auth_method="plain"))
            connection.recv()
            samples = []
            for _ in range(300):
                started = time.perf_counter()
                connection.send(Packet(kind=PacketKind.PUBLISH, topic=b"calibration", payload=bytes(64)))
                connection.recv()
                samples.append((time.perf_counter() - started) * 1e6)
            connection.send(Packet(kind=PacketKind.DISCONNECT))
    finally:
        broker.stop()
    return {"x25519_us_per_op": x25519_us, "plaintext_publish_rtt_us": statistics.median(samples)}


def environment(args: argparse.Namespace, nproc: int, cpu: int) -> dict:
    return {
        "git_sha": git_sha(),
        "python": sys.version.split()[0],
        "cryptography": cryptography.__version__,
        "nproc": nproc,
        "cpus": f"load generator and broker pinned to CPU {cpu}",
        "seed": args.seed,
        "seconds": args.seconds,
        "transport": "TCP over the host loopback interface (127.0.0.1)",
        "calibration": calibrate(),
    }


class Run:
    """Every workload instance of one run, so failures are pooled and no broker outlives it."""

    def __init__(self, args: argparse.Namespace, run_dir: Path, nproc: int) -> None:
        self.args, self.run_dir, self.nproc = args, run_dir, nproc
        self.instances: list[Workload] = []

    def new(self, label: str) -> Workload:
        directory = self.run_dir / label
        directory.mkdir(parents=True)
        workload = WORKLOADS[self.args.workload](directory, SRC, self.args.seed, self.args.seconds, self.nproc)
        self.instances.append(workload)
        return workload

    @property
    def failures(self) -> list[str]:
        return [failure for workload in self.instances for failure in workload.failures]

    def stop_all(self) -> None:
        for workload in self.instances:
            if workload.broker is not None:
                workload.broker.stop()
                workload.broker = None

    async def untraced(self) -> tuple[dict, dict, int]:
        setups = []
        for index in range(SETUPS):
            workload = self.new(f"setup-{index}")
            started = time.perf_counter()
            await workload.setup()
            setups.append(time.perf_counter() - started)
            if index < SETUPS - 1:
                await workload.stop_broker()
        _settle()
        phase = await workload.measure(self.args.seconds)
        peak_rss = workload.broker.peak_rss_mib()
        await workload.stop_broker()
        failed = len(self.failures)
        found = metrics.end_to_end(phase, setups, peak_rss)
        report = dict(found, **metrics.named_report(self.args.workload, phase, failed))
        return found, {"report": metrics.valued(report), "setups_s": setups}, phase.attempted

    async def traced(self) -> tuple[dict, dict, int]:
        half = self.args.seconds / 2
        workload = self.new("traced")
        await workload.setup()
        _settle()
        untraced = await workload.measure(half)
        await workload.stop_broker()
        await workload.start_broker(traced=True)
        _settle()
        workload.recorder.install()
        try:
            traced = await workload.measure(half)
        finally:
            workload.recorder.restore()
        await workload.stop_broker()
        window = traced.start_ns, traced.end_ns
        client = spans.summarize(workload.recorder.spans, *window)
        broker = spans.summarize(spans.load(workload.spans_path), *window)
        subscribers = {"connect": 0, "pubsub": max(1, self.nproc - 1), "churn": 1}[self.args.workload]
        invariants = metrics.count_invariants(
            metrics.expected_counts(self.args.workload, traced, subscribers), client, broker
        )
        for name, check in invariants.items():
            if not check["held"]:
                print(f"perfbench: count invariant changed: {name} expected {check['expected']}, "
                      f"measured {check['measured']}", file=sys.stderr)
        found = metrics.per_layer(untraced, traced, client, broker)
        extra = {"count_invariants": invariants, "windows": {"untraced_ops": untraced.ops, "traced_ops": traced.ops}}
        return found, extra, untraced.attempted + traced.attempted


def _settle() -> None:
    """Collect set-up garbage and freeze it, so the collector does not walk
    the fleet in the middle of the measured window."""
    gc.collect()
    gc.freeze()


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    # Brokers must see SIGINT as KeyboardInterrupt even when this process was
    # started with SIGINT ignored; an installed handler resets to default on exec.
    signal.signal(signal.SIGINT, signal.default_int_handler)
    nproc, cpu = pin_cpu()
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    codes = [run_workload(argparse.Namespace(**dict(vars(args), workload=name)), nproc, cpu) for name in names]
    return max(codes)


def run_workload(args: argparse.Namespace, nproc: int, cpu: int) -> int:
    """Run one workload and print its two lines; 0 when every check passed."""
    env = environment(args, nproc, cpu)
    steal0, started = steal_ticks(), time.monotonic()
    run_dir = RUNS_DIR / f"{args.workload}-{args.seed}-t{args.trace}-{os.getpid()}"
    run = Run(args, run_dir, nproc)
    try:
        found, extra, attempted = asyncio.run(run.traced() if args.trace else run.untraced())
    finally:
        run.stop_all()
    env["loadgen_threads"] = threading.active_count()
    # Runs slow down sharply when the host takes CPU time from this VM;
    # recorded so such runs can be told apart, not gated.
    elapsed_ticks = (time.monotonic() - started) * os.sysconf("SC_CLK_TCK") * nproc
    env["cpu_steal_share"] = (steal_ticks() - steal0) / elapsed_ticks
    failures = run.failures
    if threading.active_count() != 1:
        failures.append(f"load generator ran {threading.active_count()} threads, expected 1")
    print(json.dumps({"workload": args.workload, "trace": args.trace, "environment": env, **extra, "failures": failures}))
    print(json.dumps({
        "correct": not failures,
        "attempted": max(1, attempted),
        "failed": len(failures),
        "metrics": metrics.valued(found),
    }))
    if failures:
        print(f"perfbench: {len(failures)} check(s) failed; run directory kept at {run_dir}", file=sys.stderr)
        return 1
    shutil.rmtree(run_dir, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
