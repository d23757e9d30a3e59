import ast
import glob
import os

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PACKAGE = os.path.join(ROOT, "src", "gscnet")
MODULES = sorted(glob.glob(os.path.join(PACKAGE, "*.py"))
                 + glob.glob(os.path.join(ROOT, "tests", "*.py")))
# The package's modules, lowest layer first: each imports only modules
# listed before it. The package itself (`__init__`) exports nothing, so
# every name is imported from the module that defines it.
LAYERS = ("__init__", "errors", "graph", "basis", "verify", "data", "model",
          "pnca", "train", "experiments", "suite", "cli", "__main__")


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
    for path in glob.glob(os.path.join(PACKAGE, "*.py")):
        with open(path, encoding="utf-8") as f:
            private = private_sibling_imports(f.read())
        if private:
            found[os.path.relpath(path, ROOT)] = private
    assert found == {}


def package_imports(source: str) -> list:
    """(line, module) for each package module a source imports, relative
    (``from . import x``, ``from .x import y``) or absolute (``import
    gscnet.x``, ``from gscnet import x``); a name that is not a module is
    read from the package itself, ``__init__``."""
    found = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            paths = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            base = ".".join(filter(None, ("gscnet" if node.level else "",
                                          node.module)))
            paths = [f"{base}.{alias.name}" for alias in node.names]
        else:
            continue
        for path in paths:
            top, _, rest = path.partition(".")
            if top == "gscnet":
                module = rest.split(".")[0]
                found.add((node.lineno,
                           module if module in LAYERS else "__init__"))
    return sorted(found)


def test_finds_a_package_import():
    source = "import numpy\nfrom . import graph\nfrom .model import forward\n" \
             "import gscnet.data\nfrom gscnet import ARCHITECTURES\n" \
             "def f():\n    from .cli import main\n"
    assert package_imports(source) == [(2, "graph"), (3, "model"), (4, "data"),
                                       (5, "__init__"), (7, "cli")]


def test_modules_import_only_lower_layers():
    assert sorted(LAYERS) == sorted(
        os.path.splitext(os.path.basename(p))[0]
        for p in glob.glob(os.path.join(PACKAGE, "*.py")))
    found = {}
    for rank, name in enumerate(LAYERS):
        with open(os.path.join(PACKAGE, name + ".py"), encoding="utf-8") as f:
            upward = [(line, module) for line, module in
                      package_imports(f.read()) if LAYERS.index(module) >= rank]
        if upward:
            found[name] = upward
    assert found == {}
