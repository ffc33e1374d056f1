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

from .credential import RevocationRegistry
from .errors import ConnectionRejected, DaxiotError
from .scenario import ScenarioEnv, build_scenario
from .transport import TcpClientConnection, run_handshake
from .wire import ReasonCode


@dataclass
class DemoFailure(Exception):
    step: str
    cause: str


def run_demo(revoke_first: bool, untrusted_issuer: bool, echo) -> int:
    """Run the scenario; returns 0 on success, 1 on failure (step is printed)."""
    workdir = Path(tempfile.mkdtemp(prefix="daxiot-demo-"))
    echo(f"demo artifacts: {workdir}")

    env = build_scenario(workdir, trust_publisher_owner=not untrusted_issuer)
    if revoke_first:
        RevocationRegistry.load(env.rr_path).revoke(env.publisher.jti).save(env.rr_path)
        echo(f"revoked publisher credential {env.publisher.jti} before connecting")

    events: list[dict] = []
    try:
        with env.config.service(events.append) as broker, ExitStack() as connections:
            echo(f"broker {env.broker_did} listening on {env.host}:{broker.port}")
            _run_flow(env, broker.port, events, echo, connections)
    except DemoFailure as failure:
        echo(f"FAILED at step {failure.step}: {failure.cause}")
        return 1
    echo("demo completed: subscriber received the published message")
    return 0


def _run_flow(env: ScenarioEnv, port: int, events: list[dict], echo, connections: ExitStack) -> None:
    """Steps A-J; every connection opened here is closed by ``connections``.

    A failing client call is charged to ``step``, the first step not yet
    printed, and a broker refusal to the last event in ``events`` that names
    a step: its step and reason.
    """
    publisher = env.publisher_client()
    subscriber = env.subscriber_client()
    step = "A"
    try:
        # --- publisher connects (steps A through H) ---
        connect_packet = publisher.begin_connect(env.broker_did)
        echo(f"step A: publisher created ephemeral identity {publisher.ephemeral_did}")
        step = "B"
        publisher_conn = connections.enter_context(TcpClientConnection(env.host, port))
        publisher_conn.send(connect_packet)
        echo("step B: publisher sent an anonymous connection request")
        step = "C"
        challenge = publisher_conn.recv()
        step = "E"
        response = publisher.handle_challenge(challenge)
        echo("step C: broker authenticated the ephemeral identity")
        echo("step D: broker sent an encrypted credential challenge")
        echo(f"step E: publisher authenticated the broker as {env.broker_did}")
        step = "F"
        publisher_conn.send(response)
        echo("step F: publisher presented its credential (one disclosure only)")
        step = "G"
        publisher.handle_connack(publisher_conn.recv())
        echo("step G: broker decrypted the presentation, publisher authenticated")
        echo("step H: broker verified authorizations and confirmed the connection")

        # --- subscriber connects and subscribes (step I) ---
        step = "I"
        subscriber_conn = connections.enter_context(TcpClientConnection(env.host, port))
        run_handshake(subscriber, subscriber_conn, env.broker_did)
        subscriber_conn.send(subscriber.subscribe(env.topic))
        if subscriber.handle_suback(subscriber_conn.recv()) is not ReasonCode.SUCCESS:
            raise DemoFailure(step, "subscription was not authorized")
        echo(f"step I: subscriber connected and subscribed to {env.topic!r}")

        # --- publish, forward, receive (step J) ---
        step = "J"
        publisher_conn.send(publisher.publish(env.topic, env.payload))
        if publisher.handle_puback(publisher_conn.recv()) is not ReasonCode.SUCCESS:
            raise DemoFailure(step, "publish was not authorized")
        topic, payload = subscriber.handle_publish(subscriber_conn.recv())
    except ConnectionRejected as exc:
        refusal = next((event for event in reversed(events) if "step" in event), {})
        raise DemoFailure(refusal.get("step") or step, refusal.get("reason") or str(exc)) from exc
    except (DaxiotError, OSError) as exc:
        raise DemoFailure(step, f"{type(exc).__name__}: {exc}") from exc
    if (topic, payload) != (env.topic, env.payload):
        raise DemoFailure("J", "subscriber decrypted a different message than published")
    echo(f"step J: subscriber received {payload!r} on {topic!r}")

    publisher_conn.send(publisher.disconnect())
    subscriber_conn.send(subscriber.disconnect())
