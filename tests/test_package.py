"""The package advertises only modules and entry points that exist, and
holds no public function or method that nothing calls, no private
module-level function or constant that nothing in it reads, no defaulted
parameter or dataclass field that no call passes, no exception class
that nothing raises, and no trainability flag: it never names
`requires_grad`."""

import ast
import importlib
import sys
from collections import defaultdict
from pathlib import Path

if sys.version_info >= (3, 11):
    import tomllib
else:
    import tomli as tomllib

import numpy as np
import pytest

import gatedlora
from gatedlora.adapter import inflora_design
from gatedlora.subspace import SubspaceBasis, extend, factor

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
    "preset",  # parameter counts of the published backbones
    "count_trainable_params",
    "AccuracyMatrix.entry",
    "ToyBackbone.frozen_fingerprint",  # the never-changes check on a run
}


# Defaulted `StrategyConfig` fields that only tests set: each is a knob of
# the method that ROADMAP plans a caller for.
TEST_ONLY_OPTIONS = {
    "StrategyConfig(gate_hidden)": "the gate width; item 7's CLI config",
    "StrategyConfig(gate_init_std)": "item 4's plasticity sweep (0.3 there)",
    "StrategyConfig(rank)": "branch rank; item 2 sizes it so InfLoRA's subspace lasts",
    "StrategyConfig(eps_threshold)": "item 1's claim config (0.8) and bench workload",
    "StrategyConfig(batch_size)": "item 7's CLI config",
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


def private_defs(tree):
    """Names of each private module-level function and constant (an
    assigned name with a leading underscore, dunders aside)."""
    for node in tree.body:
        if isinstance(node, ast.FunctionDef) and node.name.startswith("_"):
            yield node.name
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                name = getattr(target, "id", "")
                if name.startswith("_") and not name.startswith("__"):
                    yield name


def names_read(trees):
    """Every attribute name, imported name and loaded name in the trees."""
    read = set()
    for tree in trees:
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute):
                read.add(node.attr)
            elif isinstance(node, ast.ImportFrom):
                read.update(alias.name for alias in node.names)
            elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
    return read


def test_no_dead_helpers():
    """Callers are searched in src and bench only, so a helper that only
    tests call is dead too. A method counts as called only through an
    attribute access; a module function also through an import or a load
    of its name in its own module. `test_*` functions are pytest's. A
    private module-level function or constant in src is dead unless some
    module of src reads its name (bench and tests do not count)."""
    trees = parsed("src/gatedlora", "bench")
    attributes, imported = set(), set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute):
                attributes.add(node.attr)
            elif isinstance(node, ast.ImportFrom):
                imported.update(alias.name for alias in node.names)
    src = parsed("src/gatedlora")
    read_in_src = names_read(src.values())
    dead = [
        f"{path.relative_to(ROOT)}: {name}"
        for path, tree in src.items()
        for name in private_defs(tree)
        if name not in read_in_src
    ]
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


def test_every_error_is_raised():
    """Every exception class but the base is named by some `raise` in src,
    called or not, by its name or as a module attribute."""
    errors = ast.parse((ROOT / "src/gatedlora/errors.py").read_text(encoding="utf-8"))
    classes = {node.name for node in errors.body if isinstance(node, ast.ClassDef)}
    raised = set()
    for tree in parsed("src/gatedlora").values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Raise) and node.exc is not None:
                exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
                raised.add(exc.attr if isinstance(exc, ast.Attribute) else getattr(exc, "id", None))
    unraised = sorted(classes - {"GatedLoraError"} - raised)
    assert not unraised, "never raised in src: " + ", ".join(unraised)


def is_dataclass(node):
    return any(
        getattr(d, "id", None) == "dataclass" or getattr(d.func, "id", None) == "dataclass"
        for d in node.decorator_list
        if isinstance(d, (ast.Name, ast.Call))
    )


def dataclass_fields(node):
    """(name, has default) of each field of a dataclass that its generated
    `__init__` takes, in order: a field set `field(init=False)` is not
    one."""
    for item in node.body:
        if isinstance(item, ast.AnnAssign) and isinstance(item.target, ast.Name):
            value = item.value
            if isinstance(value, ast.Call) and getattr(value.func, "id", None) == "field":
                keywords = {k.arg: k.value for k in value.keywords}
                init = keywords.get("init")
                if isinstance(init, ast.Constant) and init.value is False:
                    continue
                yield item.target.id, bool({"default", "default_factory"} & set(keywords))
            else:
                yield item.target.id, value is not None


def defaulted_params(tree):
    """(callee, parameter, positional index) of each defaulted parameter of
    a public module function, or of a public method or `__init__` of a
    module-level class, a dataclass's defaulted fields included. The
    callee is the name a call uses: the class for `__init__`. The index
    counts from the first argument a call passes and is None for a
    keyword-only parameter."""
    defs = []
    for node in tree.body:
        if isinstance(node, ast.FunctionDef):
            defs.append((node.name, node, 0))
        elif isinstance(node, ast.ClassDef) and not node.name.startswith("_"):
            if is_dataclass(node):
                for i, (name, defaulted) in enumerate(dataclass_fields(node)):
                    if defaulted:
                        yield node.name, name, i
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
    only, as in `test_no_dead_helpers`. Only the fields in
    `TEST_ONLY_OPTIONS` may go unset."""
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
            if f"{callee}({param})" in TEST_ONLY_OPTIONS:
                continue
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
    options = {
        f"{callee}({param})" for tree in trees for callee, param, _ in defaulted_params(tree)
    }
    stale = sorted(API_ENTRY_POINTS - defs) + sorted(set(TEST_ONLY_OPTIONS) - options)
    assert not stale, "allowlisted but not in src: " + ", ".join(stale)


# The reverse-mode graph engine, which `tests/graph.py` keeps as the oracle
# of the package's hand-written backward passes: its module-level names,
# its nodes' records of their parents, and the module itself.
GRAPH_ENGINE = {"DiffNode", "backward", "no_grad", "constant", "parameter", "matmul", "add"}
GRAPH_RECORDS = {"DiffNode", "parents", "vjps"}


def test_src_holds_no_graph_engine():
    """No module in src defines the graph engine at module level, names a
    node's parent records, or imports the oracle's module (or anything
    from the tests), so that a graph-built path cannot come back beside the
    explicit backward passes."""
    found = []
    for path, tree in parsed("src/gatedlora").items():
        where = path.relative_to(ROOT)
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and node.name in GRAPH_ENGINE:
                found.append(f"{where}: defines {node.name}")
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute) and node.attr in GRAPH_RECORDS:
                found.append(f"{where}: reads .{node.attr}")
            elif isinstance(node, ast.Name) and node.id in GRAPH_RECORDS:
                found.append(f"{where}: names {node.id}")
            elif isinstance(node, (ast.Import, ast.ImportFrom)):
                modules = [alias.name for alias in node.names]
                if isinstance(node, ast.ImportFrom):
                    modules.append(node.module or "")
                found += [
                    f"{where}: imports {module}"
                    for module in modules
                    if module.split(".")[0] in ("graph", "tests", "conftest")
                ]
    assert not found, "; ".join(found)


def test_src_names_no_requires_grad():
    """No line of src names `requires_grad`: no load, store, keyword, slot
    or string. What trains is structural: a weight trains when it is held
    as a `Param` by something a backward pass and an optimizer reach (a
    layer's trainable branch, the run's training gate); a frozen or fixed
    weight is a plain array (an adapted layer's stacks, an InfLoRA
    branch's designed `down`) or sits where neither reaches (a run's
    frozen gates), not behind a flag."""
    found = [
        f"{path.relative_to(ROOT)}:{n}"
        for path in sorted((ROOT / "src/gatedlora").glob("*.py"))
        for n, line in enumerate(path.read_text(encoding="utf-8").splitlines(), 1)
        if "requires_grad" in line
    ]
    assert not found, "requires_grad named at " + ", ".join(found)


# Calls that eigendecompose or factor a matrix: the package's solver and
# numpy's.
EIGENSOLVERS = {"sym_eig", "eigh", "eig", "eigvalsh", "eigvals", "svd"}


def calls_by_owner(tree, names):
    """(innermost enclosing function or class qualified name, callee) of
    each call in the tree of a function or method named in `names`."""
    found = set()

    def visit(node, owner):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.ClassDef)):
                visit(child, f"{owner}.{child.name}".lstrip("."))
                continue
            if isinstance(child, ast.Call):
                func = child.func
                name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
                if name in names:
                    found.add((owner, name))
            visit(child, owner)

    visit(tree, "")
    return found


def test_only_subspace_factor_eigendecomposes():
    """src eigendecomposes an input in one place: `subspace.factor` calls
    `sym_eig`, which alone calls numpy's solver. An input factored once
    serves everything that reads it (the InfLoRA design and the growth of
    the gradient memory share the pool's), by passing the `Factorization`
    on; a second factoring path fails here."""
    found = {
        (path.stem, owner, callee)
        for path, tree in parsed("src/gatedlora").items()
        for owner, callee in calls_by_owner(tree, EIGENSOLVERS)
    }
    assert found == {("subspace", "factor", "sym_eig"), ("numerics", "sym_eig", "eigh")}


def test_eigensolver_guard_finds_each_call():
    source = (
        "import numpy as np\n"
        "class B:\n    def m(self, a):\n        return np.linalg.svd(a)\n"
        "def f(a):\n    def g():\n        return sym_eig(a)\n    return g\n"
    )
    assert calls_by_owner(ast.parse(source), EIGENSOLVERS) == {("B.m", "svd"), ("f.g", "sym_eig")}


def bit_generator_state_stores(tree):
    """Line of each store to a bit generator's `state` in the tree: an
    assignment to `<expr>.bit_generator.state`, or a `setattr` of
    `"state"` on `<expr>.bit_generator`."""

    def is_bit_generator(node):
        return isinstance(node, ast.Attribute) and node.attr == "bit_generator"

    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Store):
            if node.attr == "state" and is_bit_generator(node.value):
                found.append(node.lineno)
        elif isinstance(node, ast.Call) and getattr(node.func, "id", None) == "setattr":
            target, name = (node.args + [None, None])[:2]
            if is_bit_generator(target) and getattr(name, "value", None) == "state":
                found.append(node.lineno)
    return sorted(found)


def test_src_sets_no_bit_generator_state():
    """`Rng` reads its stream once, in order: no function in src sets a
    bit generator's state, so no twin can draw the stream's values ahead
    of it (the generator's buffer of raw draws is consumed, not peeked)."""
    found = [
        f"{path.relative_to(ROOT)}:{line}"
        for path, tree in parsed("src/gatedlora").items()
        for line in bit_generator_state_stores(tree)
    ]
    assert not found, "bit generator state set at " + ", ".join(found)


def test_state_guard_finds_each_store():
    source = (
        "def peek(self):\n    self._twin.bit_generator.state = self._gen.bit_generator.state\n"
        "def twin(g, h):\n    a.bit_generator.state, b = g, h\n"
        "    setattr(g.bit_generator, 'state', h)\n"
        "    x = g.bit_generator.state\n    self.state = h\n"
    )
    assert bit_generator_state_stores(ast.parse(source)) == [2, 4, 5]


def test_a_subspace_basis_holds_only_its_columns():
    """A `SubspaceBasis` holds `dim` and `basis`, before and after it is
    factored against, designed from and grown, and its class adds only
    `rank` and `orthonormality_defect`: a memo kept on a basis fails here."""
    gen = np.random.default_rng(0)
    m = SubspaceBasis(6)
    for _ in range(3):
        f = factor(m, gen.normal(size=(6, 2)))
        inflora_design(f, 1)
        grown = extend(f, 0.9)
        assert set(vars(m)) == set(vars(grown)) == {"dim", "basis"}
        m = grown
    assert m.rank > 0
    added = {name for name in vars(SubspaceBasis) if not name.startswith("__")}
    assert added == {"rank", "orthonormality_defect"}


# Calls that change a dict, list or set in place.
CONTAINER_WRITES = {
    "append", "extend", "insert", "pop", "popitem", "remove", "clear", "update",
    "setdefault", "add", "discard", "sort", "reverse",
}
CONTAINER_BUILDERS = {"dict", "list", "set", "defaultdict", "Counter", "OrderedDict"}


def module_containers(tree):
    """Module-level names bound to a dict, list or set: a display, a
    comprehension or a call of one of `CONTAINER_BUILDERS`."""
    for node in tree.body:
        if isinstance(node, ast.Assign):
            targets, value = node.targets, node.value
        elif isinstance(node, ast.AnnAssign) and node.value is not None:
            targets, value = [node.target], node.value
        else:
            continue
        built = isinstance(
            value, (ast.Dict, ast.List, ast.Set, ast.DictComp, ast.ListComp, ast.SetComp)
        ) or (
            isinstance(value, ast.Call)
            and getattr(value.func, "id", getattr(value.func, "attr", None)) in CONTAINER_BUILDERS
        )
        if built:
            yield from (t.id for t in targets if isinstance(t, ast.Name))


def container_writes(trees):
    """(path, function, name) of each function in the trees that writes a
    module-level container of any of them (`module_containers`): stores or
    deletes an item of it, augments it, calls one of `CONTAINER_WRITES` on
    it or rebinds it through `global`. The name is matched bare, unless
    the function binds it locally, or as an attribute of a module."""
    shared = {name for tree in trees.values() for name in module_containers(tree)}
    found = []
    for path, tree in trees.items():
        for fn in ast.walk(tree):
            if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            args = fn.args
            local = {a.arg for a in args.posonlyargs + args.args + args.kwonlyargs}
            local |= {a.arg for a in (args.vararg, args.kwarg) if a is not None}
            local |= {
                n.id for n in ast.walk(fn) if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Store)
            }

            def shared_name(node):
                if isinstance(node, ast.Name) and node.id in shared - local:
                    return node.id
                if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
                    return node.attr if node.attr in shared else None
                return None

            for node in ast.walk(fn):
                if isinstance(node, ast.Global):
                    hit = set(node.names) & shared
                elif isinstance(node, ast.Subscript) and isinstance(node.ctx, (ast.Store, ast.Del)):
                    hit = {shared_name(node.value)}
                elif isinstance(node, ast.AugAssign):  # an item's is a Subscript store
                    hit = {shared_name(node.target)}
                elif isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
                    hit = {shared_name(node.func.value)} if node.func.attr in CONTAINER_WRITES else set()
                else:
                    continue
                found += [(path, fn.name, name) for name in sorted(hit - {None})]
    return found


def test_src_keeps_no_state_at_module_level():
    """No function in src writes a dict, list or set bound at module level,
    so nothing one run computes (a cache of factorizations, say) is kept
    for the next: what a run remembers lives on its objects."""
    found = container_writes(parsed("src/gatedlora"))
    assert not found, "; ".join(f"{p.relative_to(ROOT)}: {fn} writes {name}" for p, fn, name in found)


@pytest.mark.parametrize(
    "source",
    [
        "_MEMO = {}\ndef f(k, v):\n    _MEMO[k] = v\n",
        "SEEN = set()\ndef f(k):\n    SEEN.add(k)\n",
        "LOG: list = []\ndef f(x):\n    LOG.extend(x)\n",
        "CACHE = dict()\nclass C:\n    def m(self, k):\n        del CACHE[k]\n",
        "_MEMO = {}\ndef f():\n    global _MEMO\n    _MEMO = {}\n",
        "_ROWS = [0]\ndef f():\n    _ROWS[0] += 1\n",
    ],
    ids=["store", "add", "extend", "delete", "global", "augment"],
)
def test_module_state_guard_finds_each_write(source):
    found = container_writes({ROOT / "case.py": ast.parse(source)})
    assert len(found) == 1


def test_module_state_guard_ignores_local_names():
    source = "_MEMO = {}\ndef f(k):\n    _MEMO = {}\n    _MEMO[k] = 1\n    return _MEMO\n"
    assert container_writes({ROOT / "case.py": ast.parse(source)}) == []
