"""Run the daxiot broker with spans recorded around every layer call.

Usage: python traced_broker.py <broker-config.json> <spans.json>

The wrappers are installed before the broker is built, the broker then runs
exactly as ``python -m daxiot.cli broker --config <broker-config.json>``
does, and on SIGINT the spans are written to <spans.json>.
"""

from __future__ import annotations

import sys
from pathlib import Path

from daxiot import cli

from spans import Recorder


def main(config: str, spans_path: str) -> None:
    recorder = Recorder()
    recorder.install()
    try:
        cli.main(["broker", "--config", config], standalone_mode=False)
    finally:
        recorder.restore()
        recorder.dump(Path(spans_path))


if __name__ == "__main__":
    main(*sys.argv[1:])
