"""The package's modules never import the attention oracles.

`retainkv.attention` holds the reference attention functions that tests check
decode and the paged store against. A production module that imported it
would put a second attention kernel back on a production path.
"""

import ast
import pathlib

import pytest

PACKAGE = pathlib.Path(__file__).resolve().parents[1] / "src" / "retainkv"
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "attention.py")


def imports_attention(tree: ast.AST) -> bool:
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            if any(a.name.split(".")[:2] == ["retainkv", "attention"] for a in node.names):
                return True
        elif isinstance(node, ast.ImportFrom):
            module = node.module.split(".") if node.module else []
            if node.level == 0 and module[:1] == ["retainkv"]:
                module = module[1:]
            elif node.level != 1:
                continue
            if module[:1] == ["attention"]:
                return True
            if not module and any(a.name == "attention" for a in node.names):
                return True
    return False


@pytest.mark.parametrize("source", (
    "from .attention import attend_full",
    "from . import attention",
    "from . import numerics, attention as oracle",
    "import retainkv.attention",
    "from retainkv.attention import HeadCache",
    "from retainkv import attention",
    "def f():\n    from .attention import dilution\n",
))
def test_guard_sees_every_import_form(source):
    assert imports_attention(ast.parse(source))


def test_guard_ignores_other_modules():
    assert not imports_attention(ast.parse(
        "from .numerics import softmax\nfrom . import theory\nimport numpy as np\n"
        "from ..attention import x\n"))


def test_package_modules_found():
    assert {"theory.py", "cli.py", "__init__.py"} <= {p.name for p in MODULES}


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_production_module_imports_attention(path):
    assert not imports_attention(ast.parse(path.read_text(), filename=str(path))), \
        f"{path.name} imports retainkv.attention"
