"""No module exists that only its own test imports.

Every module under ``src/repro`` must be reached from the code that ships or
runs it: the ``repro`` package and its ``python -m repro`` entry point, the
scripts in ``examples/`` and the benchmark harness in ``perfbench/``.  The
scan reads imports with :mod:`ast` (nothing is imported), and follows the
dotted-string targets of the lazy export tables (``repro._lazy``), the
engines' module lists and the scenario modules the registry imports by name.
A module only a test imports fails here, named, so it is deleted together
with its test instead of lingering.
"""

from __future__ import annotations

import ast
import pathlib

from repro.experiments import SCENARIO_MODULES

ROOT = pathlib.Path(__file__).resolve().parents[1]
SRC = ROOT / "src"

#: Kept on purpose although only ``tests/api/test_facade.py`` imports it: the
#: pre-facade Monte-Carlo sampler is that test's reference implementation.
KEPT_FOR_TESTS = {"repro.experiments.sampling"}


def _module_name(path: pathlib.Path) -> str:
    parts = list(path.relative_to(SRC).with_suffix("").parts)
    if parts[-1] == "__init__":
        parts.pop()
    return ".".join(parts)


def _package_of(path: pathlib.Path) -> str:
    name = _module_name(path)
    return name if path.name == "__init__.py" else name.rpartition(".")[0]


def _with_parents(name: str):
    parts = name.split(".")
    return {".".join(parts[:i]) for i in range(1, len(parts) + 1)}


def _targets(path: pathlib.Path, known: set) -> set:
    """The known modules that *path* imports, by statement or by string."""
    in_src = SRC in path.parents
    found = set()

    def add(name: str) -> None:
        # The longest known prefix: "repro.x.y.Name" names module repro.x.y.
        parts = name.split(".")
        for i in range(len(parts), 0, -1):
            candidate = ".".join(parts[:i])
            if candidate in known:
                found.update(_with_parents(candidate))
                return

    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            for alias in node.names:
                add(alias.name)
        elif isinstance(node, ast.ImportFrom):
            base = node.module or ""
            if node.level and in_src:
                package = _package_of(path).split(".")
                package = package[:len(package) - node.level + 1]
                base = ".".join(package + ([base] if base else []))
            add(base)
            for alias in node.names:
                if f"{base}.{alias.name}" in known:
                    add(f"{base}.{alias.name}")
        elif isinstance(node, ast.Constant) and isinstance(node.value, str) \
                and node.value.startswith("repro."):
            add(node.value)
    return found


def orphaned_modules() -> list:
    files = {_module_name(path): path
             for path in sorted((SRC / "repro").rglob("*.py"))}
    known = set(files)
    edges = {name: _targets(path, known) for name, path in files.items()}
    # runner.registry.load_builtin_scenarios imports these by name.
    edges["repro.runner.registry"] |= {f"repro.experiments.{name}"
                                       for name in SCENARIO_MODULES}
    reached = {"repro", "repro.__main__"}
    for directory in ("examples", "perfbench"):
        for path in sorted((ROOT / directory).rglob("*.py")):
            reached |= _targets(path, known)
    frontier = list(reached)
    while frontier:
        for target in edges.get(frontier.pop(), ()):
            if target not in reached:
                reached.add(target)
                frontier.append(target)
    return sorted(known - reached)


def test_every_module_is_reached_from_outside_the_tests():
    assert orphaned_modules() == sorted(KEPT_FOR_TESTS)


KNOWN = {"repro", "repro.util", "repro.util.tables", "repro.service"}


def _scan(tmp_path, source: str) -> set:
    path = tmp_path / "script.py"
    path.write_text(source, encoding="utf-8")
    return _targets(path, KNOWN)


def test_import_statement_reaches_the_module_and_its_parents(tmp_path):
    assert _scan(tmp_path, "import repro.util.tables\n") == \
        {"repro", "repro.util", "repro.util.tables"}


def test_from_import_of_a_submodule_reaches_the_submodule(tmp_path):
    assert "repro.util.tables" in _scan(tmp_path,
                                        "from repro.util import tables\n")


def test_dotted_string_names_its_longest_known_module(tmp_path):
    assert _scan(tmp_path, 'TARGET = "repro.util.tables.format_table"\n') == \
        {"repro", "repro.util", "repro.util.tables"}
    assert _scan(tmp_path, 'TEXT = "not repro.util"\n') == set()


def test_lazy_export_table_of_the_package_is_followed():
    reached = _targets(SRC / "repro" / "__init__.py",
                       KNOWN | {"repro.api", "repro.runner"})
    assert {"repro.api", "repro.runner", "repro.service"} <= reached
