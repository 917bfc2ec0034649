import ast
from pathlib import Path

import entwave

#: The package's modules, lowest layer first; each may import only from earlier ones.
LAYERS = ("errors", "grid", "specfun", "wavelets", "fock", "ccwt", "verify", "cli")

SRC = Path(entwave.__file__).parent


def _package_imports(path: Path) -> set:
    """Names of the entwave modules that the module at ``path`` imports."""
    found = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.ImportFrom):
            module = node.module or ""
            if node.level == 0:
                if module.split(".")[0] != "entwave":
                    continue
                module = module.partition(".")[2]
            if module:  # from .ccwt import forward
                found.add(module.split(".")[0])
            else:  # from . import ccwt, fock
                found.update(alias.name for alias in node.names)
        elif isinstance(node, ast.Import):
            found.update(alias.name.split(".")[1] for alias in node.names
                         if alias.name.startswith("entwave."))
    return found


def test_every_module_has_a_layer():
    assert sorted(p.stem for p in SRC.glob("*.py") if p.stem != "__init__") == sorted(LAYERS)


def test_modules_import_only_from_earlier_layers():
    for rank, name in enumerate(LAYERS):
        imported = _package_imports(SRC / f"{name}.py")
        later = sorted(imported - set(LAYERS[:rank]))
        assert not later, f"{name} imports {later}, which is not below it in {LAYERS}"
