"""The package holds no code that only the tests call.

Every top-level function or class in src/hlra must be used by the package
itself, exported in hlra.__all__, or be a public builder of hlra.fixtures.
Oracles and helpers that only tests need live under tests/.  Structure
tensors are read by their (i, j, k) entries, never as dense t[i][j][k], and
only where they are frozen, made into maps or tested for skew symmetry.
Importing the command line loads nothing but the standard library and hlra.
Every function the benchmark tracer wraps by name still exists.  Every
report is rendered from one function of the command line.  Every name a
module imports is read in that module.
"""

import ast
import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import hlra

PACKAGE = Path(hlra.__file__).parent
TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


def _referenced(node):
    """Names read, attributes looked up and names imported under node."""
    names = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            names.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            names.add(sub.attr)
        elif isinstance(sub, ast.ImportFrom):
            names.update(alias.name for alias in sub.names)
    return names


def test_every_top_level_definition_has_a_package_caller():
    statements = [(p, stmt) for p in MODULES for stmt in ast.parse(p.read_text()).body]
    definitions = [(p, stmt) for p, stmt in statements if isinstance(stmt, (ast.FunctionDef, ast.ClassDef))]
    fixtures_public = {d.name for p, d in definitions if p.stem == "fixtures" and not d.name.startswith("_")}
    uses = [(stmt, _referenced(stmt)) for _, stmt in statements]
    unused = [
        f"{p.stem}.{d.name}"
        for p, d in definitions
        if d.name not in hlra.__all__
        and d.name not in fixtures_public
        and not any(other is not d and d.name in refs for other, refs in uses)
    ]
    # a method counts as called when its name is looked up anywhere in the
    # package, its own class included
    methods = [
        (p, c, m)
        for p, c in definitions
        if isinstance(c, ast.ClassDef)
        for m in c.body
        if isinstance(m, ast.FunctionDef) and not (m.name.startswith("__") and m.name.endswith("__"))
    ]
    unused += [f"{p.stem}.{c.name}.{m.name}" for p, c, m in methods if not any(m.name in refs for _, refs in uses)]
    assert unused == [], f"defined in the package but used only outside it: {unused}"


def test_no_brute_force_oracle_in_the_package():
    holders = [p.name for p in sorted(PACKAGE.glob("*.py")) if "brute_force" in p.read_text()]
    assert holders == []


def test_every_module_parses_as_the_oldest_supported_python():
    """requires-python is >= 3.10, so no module may use newer syntax."""
    for p in sorted(PACKAGE.glob("*.py")):
        ast.parse(p.read_text(), filename=str(p), feature_version=(3, 10))


def _dense_tensor_reads(tree):
    """Line of every t[i][j][k] chain on a .bracket, .mul, .action or .anchor."""
    for node in ast.walk(tree):
        base, depth = node, 0
        while isinstance(base, ast.Subscript):
            base, depth = base.value, depth + 1
        if depth == 3 and isinstance(base, ast.Attribute) and base.attr in ("bracket", "mul", "action", "anchor"):
            yield node.lineno


def test_no_module_reads_a_structure_tensor_as_a_dense_grid():
    modules = sorted(PACKAGE.glob("*.py"))
    reads = [f"{p.name}:{line}" for p in modules for line in _dense_tensor_reads(ast.parse(p.read_text()))]
    assert reads == []


TENSORS = ("bracket", "mul", "action", "anchor")
# where a tensor's entries may be read: where it is frozen, where
# HLRAlgebra.maps turns it into _Map rows, and the skew-symmetry test
ENTRY_READERS = {"model._freeze_tensor", "model.HLRAlgebra.maps", "model.validate_hlr"}


def _entry_reads(tree, scope):
    """(qualified name of the enclosing definition, line) of every .get,
    .items or [...] on a .bracket, .mul, .action or .anchor under tree."""
    for node in ast.iter_child_nodes(tree):
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield from _entry_reads(node, f"{scope}.{node.name}")
            continue
        outer = node.value if isinstance(node, (ast.Subscript, ast.Attribute)) else None
        read = isinstance(node, ast.Subscript) or isinstance(node, ast.Attribute) and node.attr in ("get", "items")
        if read and isinstance(outer, ast.Attribute) and outer.attr in TENSORS:
            yield scope, node.lineno
        yield from _entry_reads(node, scope)


def test_structure_tensors_are_read_only_through_their_maps():
    """Every structure-map matrix comes from model.operators, which reads
    the integer rows of HLRAlgebra.maps, so no other definition looks up
    an entry of h.bracket, h.mul, h.action or h.anchor.  Copying a whole
    tensor, as the direct sums and the file writer do, is not a lookup."""
    reads = [
        f"{scope}:{line}"
        for p in MODULES
        for scope, line in _entry_reads(ast.parse(p.read_text()), p.stem)
        if scope not in ENTRY_READERS
    ]
    assert reads == []


IMPORTED_BY_CLI = """
import json, sys
before = set(sys.modules)
import hlra.cli
print(json.dumps(sorted(set(sys.modules) - before)))
"""


def test_importing_the_cli_loads_only_the_standard_library_and_hlra():
    """Every command pays for what `import hlra.cli` loads, so no test
    oracle, hypothesis or pytest may be imported at module load."""
    env = dict(os.environ, PYTHONPATH=str(PACKAGE.parent))
    done = subprocess.run([sys.executable, "-c", IMPORTED_BY_CLI], env=env, capture_output=True, text=True, check=True)
    loaded = json.loads(done.stdout)
    assert "hlra.cli" in loaded
    foreign = [m for m in loaded if m.split(".")[0] not in sys.stdlib_module_names and m.split(".")[0] != "hlra"]
    assert foreign == []


def test_every_name_the_benchmark_tracer_wraps_is_a_package_callable():
    """perfbench/tracing.py looks up each function of LAYERS in its module
    and each name of METHODS on linalg.Subspace; a renamed or deleted one
    would break the traced benchmark run, not the package's own tests."""
    tree = ast.parse(TRACING.read_text())
    traced = {
        target.id: ast.literal_eval(stmt.value)
        for stmt in tree.body
        if isinstance(stmt, ast.Assign)
        for target in stmt.targets
        if isinstance(target, ast.Name) and target.id in ("LAYERS", "METHODS")
    }
    layers = traced["LAYERS"]
    missing = [
        f"{layer}.{name}"
        for layer, names in layers.items()
        for name in names
        if not callable(getattr(importlib.import_module(f"hlra.{layer}"), name, None))
    ]
    subspace = importlib.import_module("hlra.linalg").Subspace
    missing += [f"linalg.Subspace.{name}" for name in traced["METHODS"] if not callable(subspace.__dict__.get(name))]
    assert layers and traced["METHODS"] and missing == []


def test_every_report_is_printed_by_one_function():
    """cli.py calls reporting.render from _finish alone and writes no
    doc[...] entry or lines.append, so every report's stdout and exit code
    come from one place and each datum goes in through one Report call."""
    tree = ast.parse((PACKAGE / "cli.py").read_text())
    renderers = sorted(
        {
            fn.name
            for fn in tree.body
            if isinstance(fn, ast.FunctionDef)
            for node in ast.walk(fn)
            if isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr == "render"
            and getattr(node.func.value, "id", None) == "reporting"
        }
    )
    writes = [
        node.lineno
        for node in ast.walk(tree)
        if isinstance(node, ast.Subscript)
        and isinstance(node.ctx, ast.Store)
        and getattr(node.value, "id", None) == "doc"
        or isinstance(node, ast.Attribute)
        and node.attr == "append"
        and getattr(node.value, "id", None) == "lines"
    ]
    assert renderers == ["_finish"]
    assert writes == []


def _unread_imports(tree):
    """Names bound by an import in tree and never read in it; a name listed
    in __all__ counts as read."""
    imported = [
        alias.asname or alias.name.split(".")[0]
        for node in ast.walk(tree)
        if isinstance(node, (ast.Import, ast.ImportFrom))
        for alias in node.names
    ]
    read = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
    for stmt in tree.body:
        if isinstance(stmt, ast.Assign) and any(getattr(t, "id", None) == "__all__" for t in stmt.targets):
            read.update(ast.literal_eval(stmt.value))
    return [name for name in imported if name not in read]


def test_every_imported_name_is_read_in_its_module():
    unread = [f"{p.name}: {name}" for p in sorted(PACKAGE.glob("*.py")) for name in _unread_imports(ast.parse(p.read_text()))]
    assert unread == []


def _unread_parameters(tree):
    """(function.parameter, line) for each parameter of a def or lambda in
    tree that its body never reads; self, cls and the parameters of dunder
    methods, whose signatures a protocol fixes, are exempt."""
    for node in ast.walk(tree):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            continue
        name = getattr(node, "name", "<lambda>")
        if name.startswith("__") and name.endswith("__"):
            continue
        args = node.args
        params = [p.arg for p in args.posonlyargs + args.args + args.kwonlyargs + [args.vararg, args.kwarg] if p]
        body = node.body if isinstance(node.body, list) else [node.body]
        read = {n.id for stmt in body for n in ast.walk(stmt) if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
        for param in params:
            if param not in ("self", "cls") and param not in read:
                yield f"{name}.{param}", node.lineno


def test_every_parameter_is_read_in_its_body():
    unread = [
        f"{p.name}:{line} {param}"
        for p in sorted(PACKAGE.glob("*.py"))
        for param, line in _unread_parameters(ast.parse(p.read_text()))
    ]
    assert unread == []
