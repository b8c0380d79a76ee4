"""The package's module layering, checked on the source with ast.

Each module may import only from its own layer or an earlier one:

    errors, rng -> lattices -> measures -> sampling -> codec -> montecarlo
    -> analysis -> cli

The package root re-exports names from errors, rng and lattices, so it ranks
with lattices. No relative import may name a private (underscore) symbol:
a module reaches another only through its public names.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "latgauss"

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
