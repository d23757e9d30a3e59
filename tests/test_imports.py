import ast
import glob
import os

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
# The package's __init__.py imports in order to re-export; its imports are
# the public API, not dead code.
MODULES = sorted(
    p for p in glob.glob(os.path.join(ROOT, "src", "gscnet", "*.py"))
    + glob.glob(os.path.join(ROOT, "tests", "*.py"))
    if os.path.basename(p) != "__init__.py")


def unused_imports(source: str) -> list:
    """Names bound by a module-level import that the module never reads."""
    tree = ast.parse(source)
    bound = {}
    for node in tree.body:
        if isinstance(node, ast.Import):
            for alias in node.names:
                bound[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                bound[alias.asname or alias.name] = node.lineno
    read = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return sorted((line, name) for name, line in bound.items()
                  if name not in read)


def private_sibling_imports(source: str) -> list:
    """Underscore names a package module imports from a sibling module
    (``from .x import _name``): a module's private names are its own."""
    return sorted((node.lineno, node.module, alias.name)
                  for node in ast.walk(ast.parse(source))
                  if isinstance(node, ast.ImportFrom) and node.level == 1
                  for alias in node.names if alias.name.startswith("_"))


def test_finds_an_unused_import():
    source = "import math\nimport os\nfrom json import dumps, loads\n" \
             "os.getcwd()\nloads('1')\n"
    assert unused_imports(source) == [(1, "math"), (3, "dumps")]


def test_no_unused_module_import():
    found = {}
    for path in MODULES:
        with open(path, encoding="utf-8") as f:
            unused = unused_imports(f.read())
        if unused:
            found[os.path.relpath(path, ROOT)] = unused
    assert found == {}


def errstate_uses(source: str) -> list:
    """Lines that read numpy's floating-point error state setters."""
    return sorted((node.lineno, node.attr)
                  for node in ast.walk(ast.parse(source))
                  if isinstance(node, ast.Attribute)
                  and node.attr in ("errstate", "seterr"))


def test_finds_an_errstate_use():
    source = "import numpy as np\nwith np.errstate(over='ignore'):\n" \
             "    pass\nnp.seterr(all='ignore')\n"
    assert errstate_uses(source) == [(2, "errstate"), (4, "seterr")]


def test_errstate_only_in_the_training_epoch():
    """numpy's warnings are silenced only where `train_single` checks each
    epoch for divergence itself; everywhere else pytest's
    error::RuntimeWarning filter still catches an overflow."""
    found = {}
    for path in MODULES:
        with open(path, encoding="utf-8") as f:
            uses = errstate_uses(f.read())
        if uses:
            found[os.path.relpath(path, ROOT)] = [name for _, name in uses]
    assert found == {os.path.join("src", "gscnet", "train.py"): ["errstate"]}


def test_finds_a_private_sibling_import():
    source = "from . import graph\nfrom .model import _is_int, forward\n" \
             "from os import _exit\n"
    assert private_sibling_imports(source) == [(2, "model", "_is_int")]


def test_no_private_sibling_import():
    found = {}
    for path in glob.glob(os.path.join(ROOT, "src", "gscnet", "*.py")):
        with open(path, encoding="utf-8") as f:
            private = private_sibling_imports(f.read())
        if private:
            found[os.path.relpath(path, ROOT)] = private
    assert found == {}
