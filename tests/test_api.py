import argparse
import re
from pathlib import Path

import skillnet
from skillnet.cli import _build_parser
from skillnet.metrics import EVENT_SCHEMAS

README = Path(__file__).resolve().parents[1] / "README.md"


def test_public_names_exist_and_are_listed_once():
    assert [name for name in skillnet.__all__ if not hasattr(skillnet, name)] == []
    assert len(set(skillnet.__all__)) == len(skillnet.__all__)


def test_readme_library_use_imports_only_public_names():
    # a name removed from the package must not linger in the documented example
    section = README.read_text(encoding="utf-8").split("## Library use", 1)[1].split("\n## ", 1)[0]
    imports = re.findall(r"^from skillnet import (\([^)]*\)|.*)$", section, re.MULTILINE)
    names = [name.strip(" \n()") for group in imports for name in group.split(",")]
    names = [name for name in names if name]
    assert names
    assert [name for name in names if name not in skillnet.__all__] == []


def test_readme_cli_synopsis_lists_each_commands_options():
    # an option removed from the parser must not linger in the synopsis
    block = README.read_text(encoding="utf-8").split("## CLI", 1)[1].split("```bash\n", 1)[1]
    documented = {}
    for line in block.split("\n```", 1)[0].splitlines():
        if line.startswith("skillnet "):
            command = documented.setdefault(line.split()[1], set())
        command.update(re.findall(r"--[\w-]+", line))
    subparsers = next(action for action in _build_parser()._actions
                      if isinstance(action, argparse._SubParsersAction))
    options = {name: {opt for action in sub._actions for opt in action.option_strings
                      if opt not in ("-h", "--help")}
               for name, sub in subparsers.choices.items()}
    assert documented == options


def test_readme_metrics_file_lists_each_event_of_the_schema():
    # an event added to or removed from the schema must show in the list
    paragraph = README.read_text(encoding="utf-8").split("**Metrics file (JSON Lines).**", 1)[1]
    listed = re.split(r"discriminated by\s+`event`:", paragraph, maxsplit=1)[1].split(".", 1)[0]
    assert re.findall(r"`(\w+)`", listed) == list(EVENT_SCHEMAS)
