"""The package's import boundary and its surface.

`retainkv.attention` holds the reference attention functions that tests check
decode and the paged store against. A production module that imported it
would put a second attention kernel back on a production path.

Every other module-level function and class of the package has a caller in
the package, or is the console-script entry point. Code that only tests call
lives in `tests/`.

A module reaches another only through its public names: an underscore name
is its own module's business, so a caller elsewhere means the name belongs to
the public surface or to the caller.

Only `retainkv.gates` reads the gate's tensors, so a change to the gate MLP is
made in one module, in both directions. It also owns the geometric retention
weight: no other module builds the table of ages it is made from.
"""

import ast
import pathlib
import re

import pytest

ROOT = pathlib.Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "retainkv"
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


# -- private-name guard ----------------------------------------------------------


def private_imports(tree: ast.AST) -> list[str]:
    """Each underscore name (dunders aside) that `tree` imports from a package
    module, or reads as an attribute of a package module it imports."""
    def private(name):
        return name.startswith("_") and not name.startswith("__")

    names, modules = [], set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (
                node.level == 1 or (node.level == 0 and node.module.split(".")[0] == "retainkv")):
            names += [a.name for a in node.names if private(a.name)]
            if node.module in (None, "retainkv"):
                modules.update(a.asname or a.name for a in node.names)
        elif isinstance(node, ast.Import):
            modules.update(a.asname for a in node.names
                           if a.asname and a.name.startswith("retainkv."))
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                and node.value.id in modules and private(node.attr)):
            names.append(node.attr)
    return names


@pytest.mark.parametrize("source", (
    "from .gates import _gate_mlp",
    "from .gates import GateParams, _gate_mlp as mlp",
    "from retainkv.gates import _gate_mlp",
    "from . import gates\ngates._gate_mlp(x)\n",
    "from retainkv import gates as g\ny = g._gate_mlp\n",
    "import retainkv.gates as g\ny = g._gate_mlp\n",
    "def f():\n    from .gates import _gate_mlp\n",
))
def test_private_guard_sees_every_import_form(source):
    assert private_imports(ast.parse(source)) == ["_gate_mlp"]


def test_private_guard_ignores_public_and_foreign_names():
    assert private_imports(ast.parse(
        "from .gates import gate_layer\nfrom numpy import _core\nimport numpy as np\n"
        "np._x\nfrom . import __version__\nfrom . import gates\ngates.__doc__\n"
        "self._step = 1\n")) == []


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_no_module_imports_another_modules_private_name(path):
    """A module reaches another only through its public names."""
    assert private_imports(ast.parse(path.read_text(), filename=str(path))) == [], path.name


# -- gate-tensor guard ----------------------------------------------------------

GATE_ATTRIBUTES = frozenset({"w1", "b1", "w2", "b2", "wg", "bg", "tied", "readout"})


def gate_attributes(tree: ast.AST) -> list[str]:
    """Each attribute `tree` reads or writes that is named after a gate tensor,
    `tied` or `readout`, in sorted order."""
    return sorted(node.attr for node in ast.walk(tree)
                  if isinstance(node, ast.Attribute) and node.attr in GATE_ATTRIBUTES)


def test_gate_guard_sees_gate_attributes_only():
    assert gate_attributes(ast.parse(
        "grads.w1[l, h] += g\nif gates.tied:\n    wg, bg = gates.readout(l, h)\n"
        "y = x @ bb.mlp_w1[l] + bb.mlp_b1[l]\nw1 = tr['tied']\nf(tied=True)\n")) == \
        ["readout", "tied", "w1"]


def test_only_gates_reads_gate_tensors():
    """The gate's forward and backward both live in `gates`."""
    readers = [p.name for p in sorted(PACKAGE.glob("*.py"))
               if p.name != "gates.py" and gate_attributes(ast.parse(p.read_text()))]
    assert readers == []


# -- age-table guard -----------------------------------------------------------


def age_tables(tree: ast.AST) -> int:
    """How many calls of `<name>.subtract.outer`, the table of ages t - i, `tree` makes."""
    return sum(1 for node in ast.walk(tree)
               if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
               and node.func.attr == "outer" and isinstance(node.func.value, ast.Attribute)
               and node.func.value.attr == "subtract")


@pytest.mark.parametrize("source", (
    "ages = np.subtract.outer(np.arange(T), np.arange(T))",
    "ages = numpy.subtract.outer(a, b).astype(np.float64)",
    "w = np.maximum(np.subtract.outer(a, b), 0)",
    "def f(T):\n    return np.subtract.outer(range(T), range(T))\n",
))
def test_age_guard_sees_the_table(source):
    assert age_tables(ast.parse(source)) == 1


def test_age_guard_ignores_other_outer_calls():
    assert age_tables(ast.parse(
        "np.add.outer(a, b)\nnp.subtract(a, b)\nnp.outer(a, b)\nf = np.subtract.outer\n"
        "ages = a[:, None] - b[None, :]\n")) == 0


def test_only_gates_builds_the_age_table():
    """The retention weight, its adjoint and the capacity decay share one table."""
    builders = [p.name for p in sorted(PACKAGE.glob("*.py"))
                if p.name != "gates.py" and age_tables(ast.parse(p.read_text()))]
    assert builders == []


# -- surface guard -------------------------------------------------------------


def referenced(tree: ast.AST, skip: ast.AST | None = None) -> set[str]:
    """Every name `tree` loads, reads as an attribute or imports by name,
    outside the subtree `skip`."""
    names = set()
    stack = [tree]
    while stack:
        node = stack.pop()
        if node is skip:
            continue
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            names.update(a.name for a in node.names)
        stack.extend(ast.iter_child_nodes(node))
    return names


def uncalled(trees: dict[str, ast.AST], entry_points=frozenset()) -> list[str]:
    """Each module-level def or class, as "module.name", that no other module
    (re-exports in `__init__` aside) and no other code of its own module
    refers to, and that is not an entry point or in `attention`."""
    others = {mod: set().union(*(referenced(t) for m, t in trees.items()
                                 if m not in (mod, "__init__")))
              for mod in trees}
    out = []
    for mod, tree in trees.items():
        if mod == "attention":
            continue
        for node in tree.body:
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                continue
            if (mod, node.name) in entry_points or node.name in others[mod]:
                continue
            if node.name not in referenced(tree, skip=node):
                out.append(f"{mod}.{node.name}")
    return out


def entry_points() -> set[tuple[str, str]]:
    """(module, function) of each `[project.scripts]` entry into the package."""
    text = (ROOT / "pyproject.toml").read_text()
    section = text.split("[project.scripts]", 1)[1].split("\n[", 1)[0]
    return {tuple(target.split(":"))
            for target in re.findall(r'=\s*"retainkv\.(\w+:\w+)"', section)}


def test_surface_guard_sees_uncalled_names():
    trees = {
        "__init__": ast.parse("from .a import helper, used, Kept\n"),
        "a": ast.parse("def helper():\n    return helper()\n\n"
                       "def used():\n    pass\n\n"
                       "class Kept:\n    pass\n\n"
                       "def main():\n    return Kept()\n"),
        "b": ast.parse("from . import a\nx = a.used\n"),
        "attention": ast.parse("def oracle():\n    pass\n"),
    }
    assert uncalled(trees) == ["a.helper", "a.main"]
    assert uncalled(trees, {("a", "main")}) == ["a.helper"]


def test_entry_point_found():
    assert entry_points() == {("cli", "main")}


def test_every_package_name_has_a_caller():
    trees = {p.stem: ast.parse(p.read_text(), filename=str(p))
             for p in sorted(PACKAGE.glob("*.py"))}
    assert uncalled(trees, entry_points()) == []
