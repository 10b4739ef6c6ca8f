import re
from pathlib import Path

import skillnet

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
