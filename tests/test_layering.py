"""The package's module layering, checked on the source with ast.

Each module may import only from its own layer or an earlier one:

    errors, rng -> lattices -> measures -> sampling -> codec -> montecarlo
    -> analysis -> cli

The package root re-exports names from errors, rng and lattices, so it ranks
with lattices. No relative import may name a private (underscore) symbol:
a module reaches another only through its public names. Every public
top-level def and class has a caller: a reference, by name, from the package
outside its own definition, from a demo, or from a console script.
"""

import ast
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "latgauss"

LAYERS = (
    ("errors", "rng"),
    ("lattices", "__init__"),
    ("measures",),
    ("sampling",),
    ("codec",),
    ("montecarlo",),
    ("analysis",),
    ("cli",),
)
RANK = {name: i for i, layer in enumerate(LAYERS) for name in layer}
MODULES = sorted(p.stem for p in SRC.glob("*.py"))


def package_imports(path):
    """(line, imported module, names) for each import of a latgauss module."""
    out = []
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.ImportFrom):
            if node.level == 1:
                target = node.module or "__init__"
            elif node.level == 0 and (node.module or "").startswith("latgauss"):
                target = node.module.partition(".")[2] or "__init__"
            else:
                continue
            out.append((node.lineno, target, [a.name for a in node.names],
                        node.level))
        elif isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.startswith("latgauss"):
                    target = alias.name.partition(".")[2] or "__init__"
                    out.append((node.lineno, target, [], 0))
    return out


def test_every_module_has_a_layer():
    assert set(MODULES) == set(RANK)


@pytest.mark.parametrize("module", MODULES)
def test_module_imports_only_earlier_layers(module):
    late = [(line, target) for line, target, _, _ in package_imports(SRC / f"{module}.py")
            if RANK[target] > RANK[module]]
    assert late == [], f"{module} imports from a later layer"


@pytest.mark.parametrize("module", MODULES)
def test_relative_imports_name_no_private_symbol(module):
    private = [(line, target, name)
               for line, target, names, level in package_imports(SRC / f"{module}.py")
               if level == 1
               for name in names
               if name.startswith("_") and not name.endswith("__")]
    assert private == [], f"{module} imports private names"


def referenced_names(node):
    """Names a syntax tree loads, bare or as an attribute."""
    return ({n.id for n in ast.walk(node)
             if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
            | {n.attr for n in ast.walk(node) if isinstance(n, ast.Attribute)})


def test_every_public_def_has_a_caller():
    # the functions that pyproject.toml's [project.scripts] entries call
    pyproject = (ROOT / "pyproject.toml").read_text(encoding="utf-8")
    scripts = pyproject.partition("[project.scripts]")[2].partition("\n[")[0]
    refs = set(re.findall(r'^[\w.-]+\s*=\s*"[\w.]+:(\w+)"', scripts, re.M))
    defs = []
    for path in [SRC / f"{m}.py" for m in MODULES] + sorted(ROOT.glob("demos/*.py")):
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            names = referenced_names(node)
            if path.parent == SRC and isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                names.discard(node.name)  # a recursive call is no caller
                if not node.name.startswith("_"):
                    defs.append(f"{path.stem}.{node.name}")
            refs |= names
    orphans = [d for d in defs if d.partition(".")[2] not in refs]
    assert orphans == [], f"public defs without a caller: {orphans}"


def test_every_option_is_set_by_a_caller():
    # an option no caller sets is a constant in disguise
    options = {}
    for path in SRC.glob("*.py"):
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            if isinstance(node, ast.FunctionDef) and not node.name.startswith("_"):
                a = node.args
                positional = [x.arg for x in a.posonlyargs + a.args]
                defaulted = positional[len(positional) - len(a.defaults):]
                defaulted += [k.arg for k, d in zip(a.kwonlyargs, a.kw_defaults)
                              if d is not None]
                options[node.name] = (positional, defaulted)
    set_by_caller = set()
    files = [*SRC.glob("*.py"), *ROOT.glob("demos/*.py"),
             *ROOT.glob("perfbench/*.py"), *ROOT.glob("tests/*.py")]
    for path in files:
        tree = ast.parse(path.read_text(encoding="utf-8"))
        own = {}  # call node -> name of the top-level def it sits in
        for top in tree.body:
            if isinstance(top, ast.FunctionDef):
                own.update({id(n): top.name for n in ast.walk(top)})
        for call in ast.walk(tree):
            if not isinstance(call, ast.Call):
                continue
            f = call.func
            name = f.id if isinstance(f, ast.Name) else getattr(f, "attr", None)
            if name not in options or (path.parent == SRC and own.get(id(call)) == name):
                continue  # not an option holder, or a recursive call
            positional, defaulted = options[name]
            if any(isinstance(a, ast.Starred) for a in call.args):
                given = set(positional)
            else:
                given = set(positional[:len(call.args)])
            for kw in call.keywords:
                given |= set(defaulted) if kw.arg is None else {kw.arg}
            set_by_caller |= {(name, o) for o in defaulted if o in given}
    unset = sorted(f"{name}({o})" for name, (_, defaulted) in options.items()
                   for o in defaulted if (name, o) not in set_by_caller)
    assert unset == [], f"options that no caller sets: {unset}"
