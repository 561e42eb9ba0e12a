"""The package advertises only modules and entry points that exist."""

import importlib
import sys
from pathlib import Path

if sys.version_info >= (3, 11):
    import tomllib
else:
    import tomli as tomllib

import gatedlora

ROOT = Path(__file__).resolve().parent.parent


def module_map() -> list[str]:
    block = gatedlora.__doc__.split("Module map:", 1)[1]
    return [line.split()[0] for line in block.strip().splitlines()]


def test_module_map_names_exactly_the_modules():
    names = module_map()
    for name in names:
        importlib.import_module(f"gatedlora.{name}")
    files = {p.stem for p in Path(gatedlora.__file__).parent.glob("*.py")}
    assert sorted(names) == sorted(files - {"__init__"})


def test_script_targets_resolve():
    with open(ROOT / "pyproject.toml", "rb") as fh:
        project = tomllib.load(fh)["project"]
    for script, target in project.get("scripts", {}).items():
        module, _, attr = target.partition(":")
        assert callable(getattr(importlib.import_module(module), attr)), script
