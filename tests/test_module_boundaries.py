"""No package module uses another package module's underscore names.

A name that starts with one underscore belongs to the module that defines
it. Tests and the benchmark may reach such names; a module under
src/causalflow may not, by attribute or by import.
"""

import ast
from pathlib import Path

import pytest

_SRC = Path(__file__).resolve().parent.parent / "src" / "causalflow"
_MODULES = {path.stem for path in _SRC.glob("*.py")}


def _private(name: str) -> bool:
    return name.startswith("_") and not name.startswith("__")


def _foreign_private_names(source: str) -> list[str]:
    """Each "<module>.<name>" with a private name that source takes from another package module."""
    tree = ast.parse(source)
    bound = {}  # local name -> the package module it is bound to
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                package, _, module = alias.name.partition(".")
                if package == "causalflow" and module in _MODULES and alias.asname:
                    bound[alias.asname] = module
        elif isinstance(node, ast.ImportFrom):
            package, _, module = (node.module or "").partition(".")
            if node.level:  # relative, as the package's modules import
                module = node.module or ""
            elif package != "causalflow":
                continue
            for alias in node.names:  # module "" is the package: its names are modules
                if not module and alias.name in _MODULES:
                    bound[alias.asname or alias.name] = alias.name
                elif _private(alias.name):
                    found.append(f"{module or 'causalflow'}.{alias.name}")
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                and node.value.id in bound and _private(node.attr)):
            found.append(f"{bound[node.value.id]}.{node.attr}")
    return found


@pytest.mark.parametrize("source, want", [
    ("from . import causal_api as api\napi._check(1)\n", ["causal_api._check"]),
    ("from . import metrics\nmetrics._BLOCK_BYTES\n", ["metrics._BLOCK_BYTES"]),
    ("import causalflow.numkit as nk\nnk._push\n", ["numkit._push"]),
    ("from .velocity_net import VelocityNet, _arm\n", ["velocity_net._arm"]),
    ("from causalflow.velocity_net import _arm\n", ["velocity_net._arm"]),
    ("from . import __version__\nfrom .errors import ContractError\n_own = 1\n", []),
])
def test_checker_finds_attribute_and_import_uses(source, want):
    assert _foreign_private_names(source) == want


def test_no_module_uses_another_modules_private_names():
    found = {path.stem: _foreign_private_names(path.read_text(encoding="utf-8"))
             for path in sorted(_SRC.glob("*.py"))}
    assert {stem: names for stem, names in found.items() if names} == {}
