import ast
import importlib
import re
from pathlib import Path

TESTS = Path(__file__).resolve().parent
SRC = TESTS.parent / "src" / "swfocal"


def own(module: str) -> bool:
    return module.startswith(".") or module == "swfocal" or module.startswith("swfocal.")


def module_reads(tree: ast.AST) -> list[str]:
    """``module.name`` of every attribute read through a name bound to a swfocal module.

    ``import swfocal.grid`` binds ``swfocal``, ``from swfocal import io as sio``
    binds ``sio``; ``swfocal.grid`` then names the module ``swfocal.grid``.
    """
    modules = {p.stem for p in SRC.glob("*.py")}
    bound = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            bound |= {a.asname or "swfocal": a.name if a.asname else "swfocal" for a in node.names if own(a.name)}
        elif isinstance(node, ast.ImportFrom):
            module = "." * node.level + (node.module or "")
            if own(module) and not module.strip(".").removeprefix("swfocal"):  # the package itself
                sep = "" if module.endswith(".") else "."
                bound |= {a.asname or a.name: module + sep + a.name for a in node.names if a.name in modules}

    def resolve(node):
        if isinstance(node, ast.Name):
            return bound.get(node.id)
        if isinstance(node, ast.Attribute) and (module := resolve(node.value)):
            is_package = not module.strip(".").removeprefix("swfocal")
            return f"{module}.{node.attr}" if is_package and node.attr in modules else None
        return None

    return [
        f"{module}.{node.attr}"
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and (module := resolve(node.value))
    ]


def private_imports(path: Path) -> list[str]:
    """``module.name`` of every underscore name ``path`` imports from, or reads through, another swfocal module."""
    found = []
    tree = ast.parse(path.read_text(), filename=str(path))
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            module = "." * node.level + (node.module or "")
            found += [f"{module}.{a.name}" for a in node.names if own(module) and a.name.startswith("_")]
        elif isinstance(node, ast.Import):
            found += [a.name for a in node.names if a.name.startswith("swfocal.") and "._" in a.name]
    return found + [name for name in module_reads(tree) if name.rpartition(".")[2].startswith("_")]


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
    """``module.name`` of every name ``path`` imports from, or reads through, a swfocal module that does not export it."""
    found = []
    tree = ast.parse(path.read_text(), filename=str(path))
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            module = "." * node.level + (node.module or "")
            if own(module):
                allowed = exported(module)
                found += [f"{module}.{a.name}" for a in node.names if a.name not in allowed]
    reads = [name.rpartition(".") for name in module_reads(tree)]
    return found + [f"{module}.{name}" for module, _, name in reads if name not in exported(module)]


def test_no_module_imports_a_private_name_of_another():
    sources = sorted(SRC.glob("*.py"))
    assert len(sources) > 5
    found = {p.name: private_imports(p) for p in sources}
    assert {name: names for name, names in found.items() if names} == {}


def test_every_exported_name_exists():
    # a stale ``__all__`` entry passes every other test but breaks ``from module import *``
    stems = sorted(p.stem for p in SRC.glob("*.py") if p.stem != "__main__")  # importing it runs the CLI
    assert len(stems) > 5
    missing = {}
    for stem in stems:
        module = importlib.import_module("swfocal" if stem == "__init__" else f"swfocal.{stem}")
        if gone := [name for name in module.__all__ if not hasattr(module, name)]:
            missing[module.__name__] = gone
    assert missing == {}


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


def test_the_scan_sees_names_read_through_a_module(tmp_path):
    src = tmp_path / "m.py"
    src.write_text(
        "from swfocal import io as sio, grid\n"
        "import swfocal.environment\n"
        "import swfocal.tracking as tr\n"
        "from . import assoc\n"
        "import numpy as np\n"
        "sio._number(1, 'x')\n"
        "sio.read_grid('g.bin')\n"
        "grid.np.inf\n"
        "swfocal.environment._FAN\n"
        "swfocal.grid.DoaGrid\n"
        "tr.PathKind\n"
        "assoc._logsumexp\n"
        "np._core\n"
    )
    assert sorted(private_imports(src)) == [".assoc._logsumexp", "swfocal.environment._FAN", "swfocal.io._number"]
    assert sorted(unexported_imports(src)) == [
        ".assoc._logsumexp",
        "swfocal.environment._FAN",
        "swfocal.grid.np",
        "swfocal.io._number",
        "swfocal.tracking.PathKind",
    ]


REPORTERS = ("logging", "warnings")
STREAMS = ("stdout", "stderr")


def reports(path: Path) -> list[tuple[int, str]]:
    """``(line, name)`` of every import of ``logging`` or ``warnings``, ``print`` call and
    ``sys.stdout`` or ``sys.stderr`` read in ``path``, in line order."""
    found = []
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.Import):
            found += [(node.lineno, a.name) for a in node.names if a.name.partition(".")[0] in REPORTERS]
        elif isinstance(node, ast.ImportFrom) and not node.level and node.module.partition(".")[0] in REPORTERS:
            found.append((node.lineno, node.module))
        elif isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id == "print":
            found.append((node.lineno, "print"))
        elif isinstance(node, ast.Attribute) and getattr(node.value, "id", None) == "sys" and node.attr in STREAMS:
            found.append((node.lineno, f"sys.{node.attr}"))
    return sorted(found)


def test_only_the_cli_prints_or_logs():
    # the library reports by what it returns and raises; the command line
    # alone turns that into an exit code and its lines
    sources = sorted(p for p in SRC.glob("*.py") if p.stem != "cli")
    assert len(sources) > 5
    found = {p.name: reports(p) for p in sources}
    assert {name: hits for name, hits in found.items() if hits} == {}


def test_the_scan_sees_reports(tmp_path):
    src = tmp_path / "m.py"
    src.write_text(
        "import logging\n"
        "import json, warnings as w\n"
        "from logging.handlers import QueueHandler\n"
        "from warnings import warn\n"
        "import sys\n"
        "def f():\n"
        "    print('x', file=sys.stderr)\n"
        "    sys.stdout.write('y')\n"
        "from .logging import levels\n"
        "import loggingx, numpy.warnings\n"
        "np.printoptions(), log.print(), sys.byteorder\n"
    )
    assert reports(src) == [
        (1, "logging"), (2, "warnings"), (3, "logging.handlers"), (4, "warnings"),
        (7, "print"), (7, "sys.stderr"), (8, "sys.stdout"),
    ]


def vacuous_matches(path: Path) -> list[str]:
    """``test: pattern`` of every ``match=`` string in a test taking ``tmp_path`` that the test's name holds.

    pytest names ``tmp_path`` after the test, cut at 30 characters, and a
    refusal quotes its file, so a pattern that ``re.search`` finds in those
    30 characters matches whatever the message says.
    """
    tree = ast.parse(path.read_text(), filename=str(path))
    tests = [node for node in ast.walk(tree) if isinstance(node, ast.FunctionDef) and node.name.startswith("test")]
    return [
        f"{test.name}: {kw.value.value}"
        for test in tests
        if "tmp_path" in [a.arg for a in test.args.args]
        for kw in ast.walk(test)
        if isinstance(kw, ast.keyword) and kw.arg == "match" and isinstance(kw.value, ast.Constant)
        if isinstance(kw.value.value, str) and re.search(kw.value.value, test.name[:30])
    ]


def test_no_refusal_pattern_matches_the_tmp_path_name():
    sources = sorted(TESTS.glob("test_*.py"))
    assert len(sources) > 5
    found = {p.name: vacuous_matches(p) for p in sources}
    assert {name: hits for name, hits in found.items() if hits} == {}


def test_the_scan_sees_vacuous_matches(tmp_path):
    src = tmp_path / "test_m.py"
    src.write_text(
        "def test_bad_magic(tmp_path):\n"
        "    pytest.raises(ValueError, match='magic')\n"
        "    pytest.raises(ValueError, match=f'{tmp_path}')\n"
        "def test_bad_magic_in_memory():\n"
        "    pytest.raises(ValueError, match='magic')\n"
        "class TestCsv:\n"
        "    def test_header_mismatch_rejected(self, tmp_path, capsys):\n"
        "        pytest.raises(ValueError, match='^est[.]csv: expected header')\n"
        "        pytest.raises(ValueError, match='head.r')\n"
        "def test_a_name_of_more_than_thirty_characters_truncated(tmp_path):\n"
        "    pytest.raises(ValueError, match='truncated')\n"
    )
    assert vacuous_matches(src) == ["test_bad_magic: magic", "test_header_mismatch_rejected: head.r"]
