"""The README against the code it describes: its commands and its module table."""

from __future__ import annotations

import re
from pathlib import Path

import daxiot
from daxiot.cli import main

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
