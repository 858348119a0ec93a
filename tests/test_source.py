"""Source rules checked with `ast`: no unused imports, only the I/O layer
opens files, one function of the tensor engine builds strided window views,
only grid sampling and fusion's depth lookup compute bilinear corners, no generator is seeded with a literal, no tensor operator writes its
arguments, no forward pass writes module state, no backward closure reads a
tensor it did not bind itself, and no definition goes unused."""

import ast
import pathlib
import re

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "minimvs"
SOURCES = sorted(PACKAGE.glob("*.py")) + sorted((ROOT / "tests").glob("*.py"))
# the benchmark's harness, which names program code in "module:attr" bindings
BENCH = [path for path in sorted((ROOT / "perfbench").rglob("*.py"))
         if "tests" not in path.relative_to(ROOT / "perfbench").parts]


def _parse(path):
    return ast.parse(path.read_text(), filename=str(path))


def unused_imports(tree):
    """Names bound by import statements that the module never reads."""
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted((line, name) for name, line in imported.items() if name not in used)


def _calls(node, name):
    """Whether `node` is a call to `name` or `<x>.name`."""
    if not isinstance(node, ast.Call):
        return False
    func = node.func
    return (isinstance(func, ast.Name) and func.id == name
            or isinstance(func, ast.Attribute) and func.attr == name)


def calls_of(tree, name):
    """(enclosing function, line) of every call to `name` or `<x>.name`."""
    calls = []

    def visit(node, function):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(child, child.name)
                continue
            if _calls(child, name):
                calls.append((function, child.lineno))
            visit(child, function)

    visit(tree, None)
    return calls


def top_level_callers(tree, name):
    """Names of the top-level definitions whose bodies, nested functions
    included, call `name` or `<x>.name`; None for a call outside any."""
    return {getattr(node, "name", None) for node in tree.body
            if any(_calls(child, name) for child in ast.walk(node))}


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: f"{p.parent.name}/{p.name}")
def test_no_unused_imports(path):
    assert unused_imports(_parse(path)) == []


def test_unused_import_is_found():
    tree = ast.parse("import os\nimport sys as system\nfrom a import b, c\nprint(c)\n")
    assert unused_imports(tree) == [(1, "os"), (2, "system"), (3, "b")]


def literal_seeds(tree):
    """Lines that call `default_rng` with a literal seed."""
    lines = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
        if name != "default_rng" or not node.args:
            continue
        try:
            ast.literal_eval(node.args[0])
        except ValueError:
            continue
        lines.append(node.lineno)
    return lines


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_no_literal_seeds(path):
    """A missing generator never falls back to one every caller shares."""
    assert literal_seeds(_parse(path)) == []


def test_literal_seed_is_found():
    tree = ast.parse("a = np.random.default_rng(0)\nb = default_rng([1, 2])\n"
                     "c = np.random.default_rng(seed)\nd = default_rng([seed, 1])\n")
    assert literal_seeds(tree) == [1, 2]


def test_only_formats_opens_files():
    found = {(path.stem, function) for path in sorted(PACKAGE.glob("*.py"))
             for function, _ in calls_of(_parse(path), "open")}
    assert found == {("formats", "read_file"), ("formats", "write_file")}


def test_one_function_builds_strided_windows():
    """Every convolution unfolds its windows through the one strided view."""
    found = {function for function, _ in calls_of(_parse(PACKAGE / "tensor.py"), "as_strided")}
    assert found == {"_tile_gemms"}


def test_second_strided_caller_is_found():
    tree = ast.parse("import numpy as np\n"
                     "def a(x):\n    return np.lib.stride_tricks.as_strided(x, (1,), (8,))\n"
                     "def b(x):\n    def inner():\n        return as_strided(x, (2,), (8,))\n"
                     "    return inner\n")
    assert calls_of(tree, "as_strided") == [("a", 3), ("inner", 6)]


def test_one_bilinear_rule():
    """Corner indices and weights come from `tensor.bilinear_taps` alone, and
    only grid sampling (its backward included) and fusion's depth lookup call
    it, so no path grows corner code of its own."""
    found = {(path.stem, owner) for path in sorted(PACKAGE.glob("*.py"))
             for owner in top_level_callers(_parse(path), "bilinear_taps")}
    assert found == {("tensor", "grid_sample_bilinear"), ("fusion", "_sample_depth")}


def test_second_bilinear_caller_is_found():
    tree = ast.parse("def a(x):\n    return bilinear_taps(x, x, 1, 1)\n"
                     "def b(x):\n    def inner():\n        return T.bilinear_taps(x, x, 1, 1)\n"
                     "    return inner\n"
                     "def c(x):\n    return taps(x)\n"
                     "idx = bilinear_taps(0.0, 0.0, 1, 1)\n")
    assert top_level_callers(tree, "bilinear_taps") == {"a", "b", None}


def argument_writes(tree):
    """(function, line) of each augmented or subscript assignment to one of a
    function's own parameters, in functions not named with a leading `_`.

    Nested functions (a backward closure) are judged by their own name and
    parameters.
    """
    found = []

    def written_name(target):
        while isinstance(target, (ast.Subscript, ast.Attribute)):
            target = target.value
        return target.id if isinstance(target, ast.Name) else None

    def visit(node, function, params):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                args = child.args
                names = {a.arg for a in args.posonlyargs + args.args + args.kwonlyargs}
                names |= {a.arg for a in (args.vararg, args.kwarg) if a is not None}
                visit(child, child.name, names)
                continue
            if isinstance(child, ast.AugAssign):
                targets = [child.target]
            elif isinstance(child, ast.Assign):
                targets = [t for t in child.targets if isinstance(t, ast.Subscript)]
            else:
                targets = []
            if function and not function.startswith("_") and any(
                    written_name(t) in params for t in targets):
                found.append((function, child.lineno))
            visit(child, function, params)

    visit(tree, None, set())
    return found


def test_tensor_operators_write_no_argument():
    """Operators are pure, so threads may share their inputs."""
    assert argument_writes(_parse(PACKAGE / "tensor.py")) == []


def test_argument_write_is_found():
    tree = ast.parse("def op(a, b):\n    a *= 2\n    a[0] = 1\n    c = b.copy()\n"
                     "    c *= 2\n    c[0] = 1\n    b.data[0] += 1\n"
                     "    def bwd(g):\n        g += 1\n        a[1] = 0\n    return bwd\n"
                     "def _helper(a):\n    a *= 2\n")
    assert argument_writes(tree) == [("op", 2), ("op", 3), ("op", 7), ("bwd", 9)]


def forward_state_writes(tree):
    """(function, line) of each assignment, augmented assignment or deletion
    whose target is an attribute or subscript of `self`, inside a function
    named `forward*`, nested functions included."""
    found = []

    def root(target):
        while isinstance(target, (ast.Subscript, ast.Attribute)):
            target = target.value
        return target

    for fn in ast.walk(tree):
        if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        if not fn.name.startswith("forward"):
            continue
        found += [(fn.name, node.lineno) for node in ast.walk(fn)
                  if isinstance(node, (ast.Attribute, ast.Subscript))
                  and isinstance(node.ctx, (ast.Store, ast.Del))
                  and isinstance(root(node), ast.Name) and root(node).id == "self"]
    return sorted(set(found), key=lambda item: item[1])


def test_forward_passes_write_no_module_state():
    """A forward pass reads its module and returns tensors: it keeps no
    statistics, caches or counters, so forward passes of one network may
    run concurrently and a checkpoint holds parameters only."""
    found = {(path.stem, function, line) for path in sorted(PACKAGE.glob("*.py"))
             for function, line in forward_state_writes(_parse(path))}
    assert found == set()


def test_forward_state_write_is_found():
    tree = ast.parse("class M:\n"
                     "    def forward(self, x):\n"
                     "        self.stat *= 0.9\n"
                     "        self.buf[0] = x\n"
                     "        self.a.b = x\n"
                     "        y = self.w\n"
                     "        y[0] = 1\n"
                     "        return y\n"
                     "    def forward_views(self, x):\n"
                     "        def inner():\n"
                     "            self.cache = x\n"
                     "        del self.old\n"
                     "        return inner\n"
                     "    def build(self):\n"
                     "        self.w = 1\n")
    assert forward_state_writes(tree) == [("forward", 3), ("forward", 4), ("forward", 5),
                                          ("forward_views", 11), ("forward_views", 12)]


# attributes through which a closure that kept a Tensor would read it
_TENSOR_ATTRS = {"data", "shape", "requires_grad", "grad"}


def closure_tensor_reads(tree):
    """(line, "name.attr") of each `.data`, `.shape`, `.requires_grad` or
    `.grad` that a nested `bwd` reads from a name it does not bind itself
    (its parameters, its assignments and its comprehension targets)."""
    found = []
    for outer in ast.walk(tree):
        if not isinstance(outer, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        for fn in ast.walk(outer):
            if fn is outer or not isinstance(fn, ast.FunctionDef) or fn.name != "bwd":
                continue
            args = fn.args
            bound = {a.arg for a in args.posonlyargs + args.args + args.kwonlyargs}
            bound |= {n.id for n in ast.walk(fn)
                      if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Store)}
            found += [(n.lineno, f"{n.value.id}.{n.attr}") for n in ast.walk(fn)
                      if isinstance(n, ast.Attribute) and n.attr in _TENSOR_ATTRS
                      and isinstance(n.value, ast.Name) and n.value.id not in bound]
    return sorted(set(found))


def test_backward_closures_keep_no_tensor():
    """A closure keeps the arrays and plain values its backward reads, never
    a Tensor, so the tape frees every output no backward reads."""
    assert closure_tensor_reads(_parse(PACKAGE / "tensor.py")) == []


def test_closure_tensor_read_is_found():
    tree = ast.parse("def f(a, b):\n"
                     "    ad = a.data\n"
                     "    def bwd(g):\n"
                     "        out = g * ad\n"
                     "        k = [v.shape for v in (g, out)]\n"
                     "        return g * a.data, out.shape, b.requires_grad, k\n"
                     "    return bwd\n"
                     "def h(a):\n"
                     " def bwd(g): return g * a.data\n")
    assert closure_tensor_reads(tree) == [(6, "a.data"), (6, "b.requires_grad"), (9, "a.data")]


def definitions(tree):
    """Top-level functions and classes, and the methods of top-level classes
    whose names are not dunders, as `name` or `Class.method`."""
    found = []
    for node in tree.body:
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            continue
        found.append(node.name)
        if isinstance(node, ast.ClassDef):
            found += [f"{node.name}.{item.name}" for item in node.body
                      if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef))
                      and not (item.name.startswith("__") and item.name.endswith("__"))]
    return found


_BINDING = re.compile(r"[\w.]*:([\w.]+)")  # "module:attr" or "module:Class.attr"


def references(tree):
    """Every name a module reads: names, attributes, imported names, and the
    attribute path of each "module:attr" binding string."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            names.update(part for alias in node.names for part in alias.name.split("."))
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            match = _BINDING.fullmatch(node.value)
            if match:
                names.update(match.group(1).split("."))
    return names


def unused_definitions(modules, readers):
    """`module.name` of each definition in `modules` (name -> tree) whose last
    name part no tree in `readers` reads."""
    read = set().union(*(references(tree) for tree in readers))
    return sorted(f"{module}.{name}" for module, tree in modules.items()
                  for name in definitions(tree) if name.rsplit(".", 1)[-1] not in read)


def test_every_definition_is_used():
    """Each definition is read by the package or the benchmark; test-only
    helpers live in tests/."""
    modules = {path.stem: _parse(path) for path in sorted(PACKAGE.glob("*.py"))}
    readers = list(modules.values()) + [_parse(path) for path in BENCH]
    assert unused_definitions(modules, readers) == []


def test_unused_definition_is_found():
    tree = ast.parse("def used():\n    pass\n\n\ndef unused():\n    used()\n\n\n"
                     "class Box:\n    def __init__(self):\n        self.open()\n\n"
                     "    def open(self):\n        pass\n\n"
                     "    def close(self):\n        pass\n\n"
                     "    def bound(self):\n        pass\n\n\n"
                     "BINDING = 'mod:Box.bound'\n")
    assert definitions(tree) == ["used", "unused", "Box", "Box.open", "Box.close", "Box.bound"]
    assert unused_definitions({"mod": tree}, [tree]) == ["mod.Box.close", "mod.unused"]
