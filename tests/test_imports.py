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
