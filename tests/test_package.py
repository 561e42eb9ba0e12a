"""The package advertises only modules and entry points that exist, and
holds no public function or method that nothing calls."""

import ast
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


# Public API with no caller inside the package or the benchmark: entry
# points for users of the library.
API_ENTRY_POINTS = {
    "ingest_dataset",  # loads a task from a JSONL or CSV file
    "preset",  # parameter counts of the published backbones
    "count_trainable_params",
    "AccuracyMatrix.entry",
    "ToyBackbone.frozen_fingerprint",  # the never-changes check on a run
}


def public_defs(tree):
    """(qualified name, is method) of each public module function and
    method of a module-level class."""
    for node in tree.body:
        if isinstance(node, ast.FunctionDef) and not node.name.startswith("_"):
            yield node.name, False
        elif isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, ast.FunctionDef) and not item.name.startswith("_"):
                    yield f"{node.name}.{item.name}", True


def test_no_dead_helpers():
    """Callers are searched in src and bench only, so a helper that only
    tests call is dead too. A method counts as called only through an
    attribute access; a module function also through an import or a load
    of its name in its own module. `test_*` functions are pytest's."""
    files = sorted((ROOT / "src" / "gatedlora").glob("*.py"))
    files += sorted((ROOT / "bench").glob("*.py"))
    trees = {path: ast.parse(path.read_text(encoding="utf-8")) for path in files}
    attributes, imported = set(), set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute):
                attributes.add(node.attr)
            elif isinstance(node, ast.ImportFrom):
                imported.update(alias.name for alias in node.names)
    dead = []
    for path, tree in trees.items():
        loaded = {
            node.id
            for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
        }
        for qualname, is_method in public_defs(tree):
            name = qualname.rpartition(".")[2]
            if qualname in API_ENTRY_POINTS or name.startswith("test_"):
                continue
            callers = attributes if is_method else attributes | imported | loaded
            if name not in callers:
                dead.append(f"{path.relative_to(ROOT)}: {qualname}")
    assert not dead, "no caller: " + ", ".join(dead)
