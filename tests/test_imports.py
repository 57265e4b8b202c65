import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "swfocal"


def private_imports(path: Path) -> list[str]:
    """``module.name`` of every underscore name ``path`` imports from another swfocal module."""
    found = []
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.ImportFrom):
            module = "." * node.level + (node.module or "")
            own = node.level > 0 or module == "swfocal" or module.startswith("swfocal.")
            found += [f"{module}.{a.name}" for a in node.names if own and a.name.startswith("_")]
        elif isinstance(node, ast.Import):
            found += [a.name for a in node.names if a.name.startswith("swfocal.") and "._" in a.name]
    return found


def exported(module: str) -> set[str]:
    """The ``__all__`` of a swfocal module; the package also exports its submodules."""
    name = module.lstrip(".").removeprefix("swfocal").lstrip(".")
    path = SRC / f"{name or '__init__'}.py"
    names = set()
    for node in ast.parse(path.read_text()).body if path.exists() else ():
        if isinstance(node, ast.Assign) and "__all__" in [getattr(t, "id", None) for t in node.targets]:
            names = set(ast.literal_eval(node.value))
    return names if name else names | {p.stem for p in SRC.glob("*.py")}


def unexported_imports(path: Path) -> list[str]:
    """``module.name`` of every name ``path`` imports from a swfocal module that does not export it."""
    found = []
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.ImportFrom):
            module = "." * node.level + (node.module or "")
            if node.level > 0 or module == "swfocal" or module.startswith("swfocal."):
                allowed = exported(module)
                found += [f"{module}.{a.name}" for a in node.names if a.name not in allowed]
    return found


def test_no_module_imports_a_private_name_of_another():
    sources = sorted(SRC.glob("*.py"))
    assert len(sources) > 5
    found = {p.name: private_imports(p) for p in sources}
    assert {name: names for name, names in found.items() if names} == {}


def test_the_scan_sees_private_imports(tmp_path):
    src = tmp_path / "m.py"
    src.write_text(
        "from swfocal.environment import PathKind, _solve\n"
        "from .grid import _nodes\n"
        "from swfocal import _version\n"
        "import swfocal._impl\n"
        "from numpy import _core\n"
    )
    assert private_imports(src) == [
        "swfocal.environment._solve",
        ".grid._nodes",
        "swfocal._version",
        "swfocal._impl",
    ]


def test_modules_import_only_exported_names():
    sources = sorted(SRC.glob("*.py"))
    assert len(sources) > 5
    found = {p.name: unexported_imports(p) for p in sources}
    assert {name: names for name, names in found.items() if names} == {}


def test_the_scan_sees_unexported_imports(tmp_path):
    src = tmp_path / "m.py"
    src.write_text(
        "from swfocal.grid import DoaGrid, PathKind\n"
        "from swfocal import io, environment, nonexistent\n"
        "from .environment import Waveguide, _FAN\n"
        "from swfocal.missing import anything\n"
        "from numpy import linspace\n"
    )
    assert unexported_imports(src) == [
        "swfocal.grid.PathKind",
        "swfocal.nonexistent",
        ".environment._FAN",
        "swfocal.missing.anything",
    ]
