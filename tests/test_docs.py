"""The README against the code it describes: its commands, its module table
and its broker config example."""

from __future__ import annotations

import dataclasses
import json
import re
from pathlib import Path

import pytest

import daxiot
from daxiot.broker_service import LOG_LEVELS, BrokerConfig
from daxiot.cli import main
from daxiot.errors import ConfigError

README = (Path(__file__).resolve().parents[1] / "README.md").read_text("utf-8")


def _code_blocks(text: str) -> list[str]:
    return re.findall(r"^```[^\n]*\n(.*?)^```", text, flags=re.MULTILINE | re.DOTALL)


def test_every_readme_command_is_a_registered_command():
    commands = {
        match.group(1)
        for block in _code_blocks(README)
        for match in re.finditer(r"(?<![\w./-])daxiot\s+([a-z][\w-]*)", block)
    }
    assert commands, "no daxiot command found in the README's code blocks"
    assert commands <= set(main.commands), sorted(commands - set(main.commands))


def test_the_library_layout_names_exactly_the_modules():
    section = README.split("## Library layout", 1)[1].split("\n## ", 1)[0]
    first_cells = [line.split("|")[1] for line in section.splitlines() if line.startswith("| `daxiot.")]
    listed = [name for cell in first_cells for name in re.findall(r"`daxiot\.(\w+)`", cell)]
    modules = {path.stem for path in Path(daxiot.__file__).parent.glob("*.py")} - {"__init__"}
    assert sorted(listed) == sorted(modules)


def _readme_broker_config() -> str:
    return re.search(r"^cat > broker\.json <<'EOF'\n(.*?)^EOF$", README, flags=re.MULTILINE | re.DOTALL).group(1)


def test_the_readme_broker_config_names_config_fields_and_every_required_one():
    example = json.loads(_readme_broker_config())
    fields = {field.name: field for field in dataclasses.fields(BrokerConfig)}
    assert set(example) <= set(fields), sorted(set(example) - set(fields))
    required = {name for name, field in fields.items() if field.default is dataclasses.MISSING}
    assert required <= set(example), sorted(required - set(example))


def test_the_readme_lists_exactly_the_log_levels_the_config_accepts(tmp_path):
    listed = re.findall(r"`(\w+)`", re.search(r"`log_level` is ([^;]*);", README).group(1))
    assert listed == list(LOG_LEVELS)
    path = tmp_path / "broker.json"
    for level in listed:
        path.write_text(json.dumps({**json.loads(_readme_broker_config()), "log_level": level}))
        assert BrokerConfig.from_file(path).log_level == level
    path.write_text(json.dumps({**json.loads(_readme_broker_config()), "log_level": "verbose"}))
    with pytest.raises(ConfigError, match="log_level"):
        BrokerConfig.from_file(path)
