"""The package advertises only modules and entry points that exist, and
holds no public function or method that nothing calls, nor a defaulted
parameter that no call passes."""

import ast
import importlib
import sys
from collections import defaultdict
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


def parsed(*dirs):
    """Path -> AST of each Python file directly under the given directories."""
    files = [path for d in dirs for path in sorted((ROOT / d).glob("*.py"))]
    return {path: ast.parse(path.read_text(encoding="utf-8")) for path in files}


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
    trees = parsed("src/gatedlora", "bench")
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


def defaulted_params(tree):
    """(callee, parameter, positional index) of each defaulted parameter of
    a public module function, or of a public method or `__init__` of a
    module-level class. The callee is the name a call uses: the class for
    `__init__`. The index counts from the first argument a call passes and
    is None for a keyword-only parameter."""
    defs = []
    for node in tree.body:
        if isinstance(node, ast.FunctionDef):
            defs.append((node.name, node, 0))
        elif isinstance(node, ast.ClassDef) and not node.name.startswith("_"):
            for item in node.body:
                if isinstance(item, ast.FunctionDef):
                    callee = node.name if item.name == "__init__" else item.name
                    defs.append((callee, item, 1))
    for callee, fn, skip in defs:
        if callee.startswith("_"):
            continue
        positional = fn.args.posonlyargs + fn.args.args
        first_default = len(positional) - len(fn.args.defaults)
        for i, arg in enumerate(positional[first_default:], start=first_default):
            yield callee, arg.arg, i - skip
        for arg, default in zip(fn.args.kwonlyargs, fn.args.kw_defaults):
            if default is not None:
                yield callee, arg.arg, None


def test_every_option_has_a_caller():
    """A call passes a parameter by keyword, or by position when it has more
    positional arguments than the parameter's index; `*args` and `**kwargs`
    pass everything. Calls are matched to a definition by callee name
    only, as in `test_no_dead_helpers`."""
    calls = defaultdict(list)  # callee -> (positional count, starred, keywords)
    for tree in parsed("src/gatedlora", "bench").values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Call):
                func = node.func
                name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
                starred = any(isinstance(a, ast.Starred) for a in node.args)
                calls[name].append((len(node.args), starred, {k.arg for k in node.keywords}))
    unset = []
    for path, tree in parsed("src/gatedlora").items():
        for callee, param, index in defaulted_params(tree):
            if not any(
                param in keywords
                or None in keywords
                or (index is not None and (starred or n_args > index))
                for n_args, starred, keywords in calls[callee]
            ):
                unset.append(f"{path.relative_to(ROOT)}: {callee}({param})")
    assert not unset, "no call sets: " + ", ".join(unset)


def test_allowlists_name_existing_code():
    trees = parsed("src/gatedlora").values()
    defs = {qualname for tree in trees for qualname, _ in public_defs(tree)}
    stale = sorted(API_ENTRY_POINTS - defs)
    assert not stale, "allowlisted but not in src: " + ", ".join(stale)
