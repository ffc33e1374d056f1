"""End-to-end demonstration over real sockets.

Runs the complete scenario in one process: provisions every actor in a
temporary directory, starts a broker, connects a publisher and a subscriber,
and routes one encrypted message. Each stage of the exchange is traced with
its step letter (A through J) so failures name exactly where they happened.
"""

from __future__ import annotations

import tempfile
from contextlib import ExitStack
from dataclasses import dataclass
from pathlib import Path

from .broker_service import BrokerThread
from .credential import RevocationRegistry
from .errors import ConnectionRejected, DaxiotError
from .scenario import ScenarioEnv, build_scenario
from .transport import TcpClientConnection
from .wire import PacketKind, ReasonCode


@dataclass
class DemoFailure(DaxiotError):
    step: str
    cause: str

    def __str__(self) -> str:
        return f"failed at step {self.step}: {self.cause}"


def _broker_rejection_cause(broker: BrokerThread, fallback: str) -> str:
    for event in reversed(broker.service.events):
        if event.get("event") in ("auth_rejected", "connect_rejected"):
            return event.get("reason", fallback)
    return fallback


def run_demo(
    revoke_first: bool = False,
    untrusted_issuer: bool = False,
    workdir: Path | None = None,
    echo=print,
) -> int:
    """Run the scenario; returns 0 on success, 1 on failure (step is printed)."""
    if workdir is None:
        workdir = Path(tempfile.mkdtemp(prefix="daxiot-demo-"))
    echo(f"demo artifacts: {workdir}")

    env = build_scenario(workdir, trust_publisher_owner=not untrusted_issuer)
    if revoke_first:
        RevocationRegistry.load(env.rr_path).revoke(env.publisher.jti).save(env.rr_path)
        echo(f"revoked publisher credential {env.publisher.jti} before connecting")

    try:
        with BrokerThread(env.config) as broker, ExitStack() as connections:
            echo(f"broker {env.broker_did} listening on {env.host}:{broker.port}")
            _run_flow(env, broker, echo, connections)
    except DemoFailure as failure:
        echo(f"FAILED at step {failure.step}: {failure.cause}")
        return 1
    echo("demo completed: subscriber received the published message")
    return 0


def _run_flow(env: ScenarioEnv, broker: BrokerThread, echo, connections: ExitStack) -> None:
    """Steps A-J; every connection opened here is closed by ``connections``."""
    publisher = env.publisher_client()
    subscriber = env.subscriber_client()

    # --- publisher connects (steps A through H) ---
    try:
        connect_packet = publisher.begin_connect(env.broker_did)
    except DaxiotError as exc:
        raise DemoFailure("A", f"{type(exc).__name__}: {exc}") from exc
    echo(f"step A: publisher created ephemeral identity {publisher.ephemeral_did}")

    try:
        publisher_conn = connections.enter_context(TcpClientConnection(env.host, broker.port))
        publisher_conn.send(connect_packet)
    except (DaxiotError, OSError) as exc:
        raise DemoFailure("B", f"{type(exc).__name__}: {exc}") from exc
    echo("step B: publisher sent an anonymous connection request")

    try:
        challenge = publisher_conn.recv()
    except DaxiotError as exc:
        raise DemoFailure("C", f"{type(exc).__name__}: {exc}") from exc
    if challenge.kind is not PacketKind.AUTH_CHALLENGE:
        raise DemoFailure("C", _broker_rejection_cause(broker, "broker refused the connect"))
    echo("step C: broker authenticated the ephemeral identity")
    echo("step D: broker sent an encrypted credential challenge")

    try:
        response = publisher.handle_challenge(challenge)
    except DaxiotError as exc:
        raise DemoFailure("E", f"{type(exc).__name__}: {exc}") from exc
    echo(f"step E: publisher authenticated the broker as {env.broker_did}")

    try:
        publisher_conn.send(response)
    except (DaxiotError, OSError) as exc:
        raise DemoFailure("F", f"{type(exc).__name__}: {exc}") from exc
    echo("step F: publisher presented its credential (one disclosure only)")

    try:
        connack = publisher_conn.recv()
        publisher.handle_connack(connack)
    except ConnectionRejected as exc:
        raise DemoFailure("H", _broker_rejection_cause(broker, str(exc))) from exc
    except DaxiotError as exc:
        raise DemoFailure("G", f"{type(exc).__name__}: {exc}") from exc
    echo("step G: broker decrypted the presentation, publisher authenticated")
    echo("step H: broker verified authorizations and confirmed the connection")

    # --- subscriber connects and subscribes (step I) ---
    try:
        subscriber_conn = connections.enter_context(TcpClientConnection(env.host, broker.port))
        subscriber_conn.send(subscriber.begin_connect(env.broker_did))
        subscriber_conn.send(subscriber.handle_challenge(subscriber_conn.recv()))
        subscriber.handle_connack(subscriber_conn.recv())
        subscriber_conn.send(subscriber.subscribe(env.topic))
        if subscriber.handle_suback(subscriber_conn.recv()) is not ReasonCode.SUCCESS:
            raise DemoFailure("I", "subscription was not authorized")
    except DemoFailure:
        raise
    except DaxiotError as exc:
        raise DemoFailure("I", f"{type(exc).__name__}: {exc}") from exc
    echo(f"step I: subscriber connected and subscribed to {env.topic!r}")

    # --- publish, forward, receive (step J) ---
    try:
        publisher_conn.send(publisher.publish(env.topic, env.payload))
        if publisher.handle_puback(publisher_conn.recv()) is not ReasonCode.SUCCESS:
            raise DemoFailure("J", "publish was not authorized")
        topic, payload = subscriber.handle_publish(subscriber_conn.recv())
    except DemoFailure:
        raise
    except DaxiotError as exc:
        raise DemoFailure("J", f"{type(exc).__name__}: {exc}") from exc
    if (topic, payload) != (env.topic, env.payload):
        raise DemoFailure("J", "subscriber decrypted a different message than published")
    echo(f"step J: subscriber received {payload!r} on {topic!r}")

    publisher_conn.send(publisher.disconnect())
    subscriber_conn.send(subscriber.disconnect())
