"""Load generator: one asyncio process driving real ``DaxiotClient`` devices
over loopback TCP against a broker running in its own process.

Every loop is closed: a device sends its next request only after the reply
to the previous one. At most ``nproc`` connections are open at once, and the
process starts no threads. This process and the broker it starts share
one CPU (see ``run.pin_cpu``). The broker is the deployed entry point
(``python -m daxiot.cli broker``), or for traced runs the benchmark's own
launcher around it; its JSON event log goes to a file in the run directory.
"""

from __future__ import annotations

import asyncio
import json
import os
import signal
import subprocess
import sys
import time
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path

import daxiot.wire as wire
from daxiot.credential import RevocationRegistry
from daxiot.errors import ConnectionRejected, DaxiotError
from daxiot.scenario import build_scenario
from daxiot.wire import Packet, ReasonCode

import fleet
from spans import Recorder, now

HERE = Path(__file__).resolve().parent
TOPIC = "plant/line-1/reading"
# Churn issues this many fleet devices per measured second: about twice
# the session rate seen on a 2-CPU machine, so a device rarely repeats.
FLEET_PER_SECOND = 500
FLEET_MIN = 256


class BenchFailure(Exception):
    """An operation or an output check went wrong; counted in ``failed``."""


# What a device operation may raise when the broker or the benchmark's own
# checks disagree with what was expected.
OP_ERRORS = (DaxiotError, OSError, asyncio.IncompleteReadError, BenchFailure)


# ---------------------------------------------------------------------------
# Broker process
# ---------------------------------------------------------------------------

class BrokerProcess:
    """The broker under test in its own process, logging to a file."""

    def __init__(self, config_path: Path, run_dir: Path, src: Path, spans_path: Path | None) -> None:
        if spans_path is None:
            command = [sys.executable, "-m", "daxiot.cli", "broker", "--config", str(config_path)]
        else:
            command = [sys.executable, str(HERE / "traced_broker.py"), str(config_path), str(spans_path)]
        self.log_path = run_dir / "broker.log"
        self._out = open(run_dir / "broker.out", "wb")
        self._log = open(self.log_path, "wb")
        env = dict(os.environ, PYTHONPATH=str(src))
        # A new session keeps a terminal's Ctrl-C away from the broker: the
        # benchmark stops it itself, so traced brokers can write their spans.
        self.proc = subprocess.Popen(
            command, stdout=self._out, stderr=self._log, env=env, start_new_session=True
        )

    async def wait_listening(self, timeout: float = 60.0) -> None:
        deadline = time.monotonic() + timeout
        while b'"event": "listening"' not in self.log_path.read_bytes():
            if self.proc.poll() is not None:
                raise BenchFailure(f"broker exited with {self.proc.returncode} before listening")
            if time.monotonic() > deadline:
                raise BenchFailure("broker did not start listening in time")
            await asyncio.sleep(0.002)

    def alive(self) -> bool:
        return self.proc.poll() is None

    def cpu_seconds(self) -> float:
        """User plus system CPU time of the broker, from /proc/<pid>/stat."""
        stat = Path(f"/proc/{self.proc.pid}/stat").read_text()
        fields = stat[stat.rindex(")") + 2:].split()
        return (int(fields[11]) + int(fields[12])) / os.sysconf("SC_CLK_TCK")

    def peak_rss_mib(self) -> float:
        for line in Path(f"/proc/{self.proc.pid}/status").read_text().splitlines():
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024
        raise BenchFailure("VmHWM missing from the broker's /proc status")

    def log_size(self) -> int:
        return self.log_path.stat().st_size

    def events(self, start: int = 0, end: int | None = None) -> list[dict]:
        """Event records the broker logged between two log offsets."""
        with open(self.log_path, "rb") as handle:
            handle.seek(start)
            data = handle.read() if end is None else handle.read(end - start)
        records = []
        for line in data.splitlines():
            if line.startswith(b"{"):
                try:
                    records.append(json.loads(line))
                except json.JSONDecodeError:
                    pass
        return records

    def stop(self) -> int:
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGINT)
            try:
                self.proc.wait(timeout=20)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self._out.close()
        self._log.close()
        return self.proc.returncode


# ---------------------------------------------------------------------------
# Framed connection
# ---------------------------------------------------------------------------

class Link:
    """One device's TCP connection, speaking daxiot frames."""

    def __init__(self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter) -> None:
        self.reader, self.writer = reader, writer

    @classmethod
    async def open(cls, host: str, port: int) -> "Link":
        return cls(*await asyncio.open_connection(host, port))

    def send(self, packet: Packet) -> None:
        self.writer.write(wire.encode_frame(packet))

    async def recv(self) -> Packet:
        header = await self.reader.readexactly(4)
        body = await self.reader.readexactly(int.from_bytes(header, "big"))
        return wire.decode_frame(header + body)

    async def close(self) -> None:
        self.writer.close()
        try:
            await self.writer.wait_closed()
        except OSError:
            pass


# ---------------------------------------------------------------------------
# Workloads
# ---------------------------------------------------------------------------

@dataclass
class Phase:
    """What one measured window produced."""

    start_ns: int = 0
    end_ns: int = 0
    ops: int = 0
    attempted: int = 0
    refused: int = 0
    op_ns: list[int] = field(default_factory=list)
    connect_ns: list[int] = field(default_factory=list)
    publish_ns: list[int] = field(default_factory=list)
    deliver_ns: list[int] = field(default_factory=list)
    loadgen_cpu_s: float = 0.0
    broker_cpu_s: float = 0.0
    log_bytes: int = 0
    events: int = 0

    @property
    def wall_s(self) -> float:
        return (self.end_ns - self.start_ns) / 1e9


class Workload:
    """Set-up, measured windows and output checks shared by every workload.

    One instance owns one scenario directory and one broker at a time. All
    failures are collected in ``failures`` and reported by the caller.
    """

    name = ""

    def __init__(self, run_dir: Path, src: Path, seed: int, seconds: float, nproc: int) -> None:
        self.run_dir, self.src, self.seed, self.seconds, self.nproc = run_dir, src, seed, seconds, nproc
        self.recorder = Recorder()
        self.failures: list[str] = []
        self.broker: BrokerProcess | None = None
        self.phase: Phase | None = None
        self._brokers = 0

    # -- set-up ------------------------------------------------------------------

    async def setup(self) -> None:
        """Scenario, fleet credentials, broker start, long-lived handshakes."""
        self.env = build_scenario(self.run_dir / "scenario", topic=TOPIC)
        self.issue()
        await self.start_broker(traced=False)

    def issue(self) -> None:
        raise NotImplementedError

    async def start_broker(self, traced: bool) -> None:
        self._brokers += 1
        broker_dir = self.run_dir / f"broker{self._brokers}"
        broker_dir.mkdir()
        self.spans_path = broker_dir / "spans.json" if traced else None
        self.broker = BrokerProcess(self.env.root / "broker-config.json", broker_dir, self.src, self.spans_path)
        self.expected = Counter()
        await self.broker.wait_listening()
        await self.open_sessions()

    async def open_sessions(self) -> None:
        """Handshakes that outlive set-up; none by default."""

    async def close_sessions(self) -> None:
        """Close what open_sessions opened."""

    async def stop_broker(self) -> None:
        """Close sessions, stop the broker and check its event log against ours."""
        await self.close_sessions()
        broker, self.broker = self.broker, None
        if not broker.alive():
            self.fail(f"broker exited early with code {broker.proc.returncode}")
            broker.stop()
            return
        code = broker.stop()
        if code != 0:
            self.fail(f"broker exited with code {code} when stopped")
        logged = Counter()
        for record in broker.events():
            logged[record["event"]] += 1
            if record["event"] == "auth_rejected" and record.get("reason") != "Revoked":
                self.fail(f"broker rejected a handshake for {record.get('reason')}")
        for event in ("authenticated", "publish_forwarded", "auth_rejected"):
            if logged[event] != self.expected[event]:
                self.fail(f"broker logged {logged[event]} {event} events, load generator expected {self.expected[event]}")

    def fail(self, reason: str) -> None:
        self.failures.append(reason)
        print(f"perfbench: FAILED: {reason}", file=sys.stderr)

    # -- handshake -------------------------------------------------------------------

    async def handshake(self, device: fleet.Device, op: object, refuse: bool = False) -> tuple[Link | None, int, int]:
        """Connect ``device``; return its link, start and CONNACK time.

        With ``refuse`` the broker must answer CONNACK NOT_AUTHORIZED; the
        link is then closed and None comes back in its place.
        """
        client, rec = device.client, self.recorder
        link = await Link.open(self.env.host, self.env.port)
        try:
            start = now()
            rec.op = op
            link.send(client.begin_connect(self.env.broker_did))
            challenge = await link.recv()
            rec.op = op
            link.send(client.handle_challenge(challenge))
            ack = await link.recv()
            rec.op = op
            try:
                client.handle_connack(ack)
            except ConnectionRejected as exc:
                if not refuse or exc.reason_code is not ReasonCode.NOT_AUTHORIZED:
                    raise
                self.expected["auth_rejected"] += 1
                refused = now()
                client.disconnect()
                await link.close()
                return None, start, refused
            done = now()
            if refuse:
                raise BenchFailure(f"revoked device {device.jti} was accepted")
            self.expected["authenticated"] += 1
            return link, start, done
        except BaseException:
            client.disconnect()
            await link.close()
            raise

    @staticmethod
    async def disconnect(device: fleet.Device, link: Link) -> None:
        link.send(device.client.disconnect())
        await link.close()

    # -- measurement -----------------------------------------------------------------

    async def measure(self, seconds: float) -> Phase:
        """Run the workload for ``seconds`` with every device idle at both ends."""
        self.phase = phase = Phase()
        broker = self.broker
        cpu0, broker_cpu0, log0 = time.process_time(), broker.cpu_seconds(), broker.log_size()
        phase.start_ns = now()
        deadline = phase.start_ns + int(seconds * 1e9)
        try:
            await asyncio.wait_for(self.drive(phase, deadline), seconds + 60)
        except asyncio.TimeoutError:
            self.fail("workload did not finish within 60 s of its deadline")
        phase.end_ns = now()
        phase.loadgen_cpu_s = time.process_time() - cpu0
        phase.broker_cpu_s = broker.cpu_seconds() - broker_cpu0
        log1 = broker.log_size()
        phase.log_bytes = log1 - log0
        phase.events = len(broker.events(log0, log1))
        return phase

    async def drive(self, phase: Phase, deadline: int) -> None:
        raise NotImplementedError

    def op_failed(self, phase: Phase, exc: BaseException) -> None:
        self.fail(f"operation {phase.attempted} failed: {type(exc).__name__}: {exc}")


class ConnectWorkload(Workload):
    """nproc devices, each reconnecting with one reused client: handshakes only."""

    name = "connect"

    def issue(self) -> None:
        self.devices = [fleet.issue_device(self.env, self.seed, "connect", i, publish=True) for i in range(self.nproc)]

    async def open_sessions(self) -> None:
        # One warm-up handshake per device, so lazy imports and first-use
        # costs land in set-up rather than in the first measured connects.
        for device in self.devices:
            link, _, _ = await self.handshake(device, op=None)
            await self.disconnect(device, link)

    async def drive(self, phase: Phase, deadline: int) -> None:
        await asyncio.gather(*(self._device(device, phase, deadline) for device in self.devices))

    async def _device(self, device: fleet.Device, phase: Phase, deadline: int) -> None:
        while now() < deadline and not self.failures:
            phase.attempted += 1
            op = phase.attempted
            try:
                link, start, done = await self.handshake(device, op)
                await self.disconnect(device, link)
            except OP_ERRORS as exc:
                self.op_failed(phase, exc)
                continue
            phase.ops += 1
            phase.op_ns.append(done - start)
            phase.connect_ns.append(done - start)


class _Subscriber:
    """A long-lived subscriber checking every delivery against the seeded payload.

    With ``ordered`` every message must arrive as the successor of the one
    before; that holds when a single device publishes at a time.
    """

    def __init__(self, workload: "Workload", device: fleet.Device, first_seq: int, ordered: bool) -> None:
        self.workload, self.device = workload, device
        self.next_seq, self.ordered = first_seq, ordered
        self.link: Link | None = None
        self.task: asyncio.Task | None = None

    async def open(self) -> None:
        workload, client = self.workload, self.device.client
        self.link, _, _ = await workload.handshake(self.device, op=None)
        self.link.send(client.subscribe(TOPIC))
        reason = client.handle_suback(await self.link.recv())
        if reason is not ReasonCode.SUCCESS:
            raise BenchFailure(f"SUBACK was {reason.name}")
        self.task = asyncio.ensure_future(self._read())

    async def _read(self) -> None:
        workload, client = self.workload, self.device.client
        try:
            while True:
                packet = await self.link.recv()
                workload.recorder.op = self.next_seq
                topic, data = client.handle_publish(packet)
                done = now()
                seq = fleet.payload_seq(data)
                if topic != TOPIC or data != fleet.payload(workload.seed, seq):
                    raise BenchFailure(f"delivery of message {seq} is not byte-equal to what was published")
                if self.ordered and seq != self.next_seq:
                    raise BenchFailure(f"expected message {self.next_seq}, received {seq}")
                self.next_seq = seq + 1
                workload.delivered(seq, done)
        except OP_ERRORS as exc:
            workload.subscriber_failed(exc)
            raise

    async def close(self) -> None:
        if self.task is not None:
            self.task.cancel()
            try:
                await self.task
            except asyncio.CancelledError:
                pass
            except OP_ERRORS as exc:
                self.workload.fail(f"subscriber failed: {type(exc).__name__}: {exc}")
            self.task = None
        if self.link is not None:
            await self.workload.disconnect(self.device, self.link)
            self.link = None


class PubsubWorkload(Workload):
    """1 publisher and nproc-1 subscribers, one 64-byte publish outstanding."""

    name = "pubsub"

    def issue(self) -> None:
        self.publisher = fleet.issue_device(self.env, self.seed, "publisher", 0, publish=True)
        self.subscriber_devices = [
            fleet.issue_device(self.env, self.seed, "subscriber", i, publish=False)
            for i in range(max(1, self.nproc - 1))
        ]
        self.seq = 0
        self._waiting: asyncio.Future | None = None

    async def open_sessions(self) -> None:
        self.subscribers = [_Subscriber(self, device, self.seq, ordered=True) for device in self.subscriber_devices]
        for subscriber in self.subscribers:
            await subscriber.open()
        self.link, _, _ = await self.handshake(self.publisher, op=None)

    async def close_sessions(self) -> None:
        for subscriber in self.subscribers:
            await subscriber.close()
        await self.disconnect(self.publisher, self.link)

    def delivered(self, seq: int, done: int) -> None:
        if seq != self.seq or self._waiting is None:
            raise BenchFailure(f"message {seq} delivered while {self.seq} was outstanding")
        self.phase.deliver_ns.append(done - self._sent)
        self._remaining -= 1
        if self._remaining == 0:
            self._waiting.set_result(done)

    def subscriber_failed(self, exc: BaseException) -> None:
        if self._waiting is not None and not self._waiting.done():
            self._waiting.set_exception(BenchFailure(f"subscriber stopped: {type(exc).__name__}: {exc}"))

    async def drive(self, phase: Phase, deadline: int) -> None:
        client, rec, link = self.publisher.client, self.recorder, self.link
        loop = asyncio.get_running_loop()
        while now() < deadline and not self.failures:
            phase.attempted += 1
            self._waiting, self._remaining = loop.create_future(), len(self.subscribers)
            try:
                self._sent = start = now()
                rec.op = self.seq
                link.send(client.publish(TOPIC, fleet.payload(self.seed, self.seq)))
                ack = await link.recv()
                rec.op = self.seq
                reason = client.handle_puback(ack)
                acked = now()
                if reason is not ReasonCode.SUCCESS:
                    raise BenchFailure(f"PUBACK was {reason.name}")
                self.expected["publish_forwarded"] += 1
                delivered = await self._waiting
            except OP_ERRORS as exc:
                self.op_failed(phase, exc)
                return
            finally:
                self._waiting = None
            self.seq += 1
            phase.ops += 1
            phase.publish_ns.append(acked - start)
            phase.op_ns.append(delivered - start)


class ChurnWorkload(Workload):
    """Duty-cycle sessions over a large seeded fleet, with revocations mid-run."""

    name = "churn"

    def issue(self) -> None:
        size = max(FLEET_MIN, int(FLEET_PER_SECOND * self.seconds))
        self.fleet = [fleet.issue_device(self.env, self.seed, "fleet", i, publish=True) for i in range(size)]
        self.order = fleet.churn_order(self.seed, size)
        self.schedule = fleet.revocation_schedule(self.seed, self.order)
        self.subscriber_device = fleet.issue_device(self.env, self.seed, "subscriber", 0, publish=False)
        self.registry = RevocationRegistry()
        self.revoked: set[int] = set()
        self.session = 0
        self.seq = 0
        self.sent_at: dict[int, int] = {}

    @property
    def workers(self) -> int:
        return max(1, self.nproc - 1)

    async def open_sessions(self) -> None:
        self.subscriber = _Subscriber(self, self.subscriber_device, self.seq, ordered=self.workers == 1)
        await self.subscriber.open()

    async def close_sessions(self) -> None:
        await self.subscriber.close()

    def delivered(self, seq: int, done: int) -> None:
        sent = self.sent_at.pop(seq, None)
        if sent is None:
            raise BenchFailure(f"reading {seq} delivered twice or never sent")
        self.phase.deliver_ns.append(done - sent)

    def subscriber_failed(self, exc: BaseException) -> None:
        """Workers notice through the subscriber task being done."""

    def _revoke(self, index: int) -> None:
        device = self.fleet[index]
        self.registry.revoke(device.jti).save(self.env.rr_path)
        self.revoked.add(index)

    async def drive(self, phase: Phase, deadline: int) -> None:
        await asyncio.gather(*(self._worker(phase, deadline) for _ in range(self.workers)))
        # Readings still in flight to the subscriber belong to this window.
        wait_until = time.monotonic() + 10
        while self.sent_at and time.monotonic() < wait_until and not self.subscriber.task.done():
            await asyncio.sleep(0.001)
        if self.sent_at:
            self.fail(f"{len(self.sent_at)} readings were never delivered")
            self.sent_at.clear()

    async def _worker(self, phase: Phase, deadline: int) -> None:
        while now() < deadline and not self.failures and not self.subscriber.task.done():
            index = self.session
            self.session += 1
            if index in self.schedule:
                self._revoke(self.schedule[index])
            device = self.fleet[self.order[index % len(self.order)]]
            refuse = device.index in self.revoked
            phase.attempted += 1
            try:
                link, start, connected = await self.handshake(device, index, refuse=refuse)
                finished = connected
                if not refuse:
                    try:
                        finished = await self._reading(device, link, index, phase)
                    finally:
                        await self.disconnect(device, link)
            except OP_ERRORS as exc:
                self.op_failed(phase, exc)
                continue
            phase.ops += 1
            phase.refused += refuse
            phase.connect_ns.append(connected - start)
            phase.op_ns.append(finished - start)

    async def _reading(self, device: fleet.Device, link: Link, index: int, phase: Phase) -> int:
        """Publish one reading and wait for its PUBACK; return when it came."""
        client, rec = device.client, self.recorder
        seq = self.seq
        self.seq += 1
        self.sent_at[seq] = sent = now()
        rec.op = index
        link.send(client.publish(TOPIC, fleet.payload(self.seed, seq)))
        ack = await link.recv()
        rec.op = index
        reason = client.handle_puback(ack)
        acked = now()
        if reason is not ReasonCode.SUCCESS:
            raise BenchFailure(f"PUBACK was {reason.name}")
        self.expected["publish_forwarded"] += 1
        phase.publish_ns.append(acked - sent)
        return acked


WORKLOADS = {cls.name: cls for cls in (ConnectWorkload, PubsubWorkload, ChurnWorkload)}
