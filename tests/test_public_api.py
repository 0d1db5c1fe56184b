"""Every public name in ``src/repro`` has a caller outside the tests.

A static scan over the syntax trees: each public function, class,
method and module-level constant defined under ``src/repro`` must be
referenced by some ``src/`` module (the package ``__init__``
re-exports excluded), example, benchmark or ``perfbench`` script.  A
reference is a loaded ``Name``, a loaded attribute or an imported
name, so a mention in a docstring or comment does not count.  Names
match by their last component: a same-named method anywhere keeps a
definition alive, which errs towards keeping code.

A name only tests reach is either deleted, moved into ``tests/`` (an
oracle or helper), or listed in :data:`ALLOWED` with its reason.
Run it alone with ``python -m pytest tests/test_public_api.py -q``;
:func:`uncalled_names` takes a checkout root, so the scan also runs
over another tree.
"""

from __future__ import annotations

import ast
import functools
import textwrap
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parents[1]

#: Non-test trees whose references keep a ``src/`` name alive.
CALLER_DIRS = ("examples", "benchmarks", "perfbench")

#: Public names kept although only tests reach them, each with its reason.
ALLOWED = {
    "apply_parallel_move_reference": (
        "the executor's oracle; *_reference oracles stay in src/"
    ),
    "run_campaign": "the README documents it as the one-call entry point",
    "unregister_algorithm": "lets tests remove the fakes they register",
    "AtomArray.set_site": "the accessor test files build fixture grids with",
    "AtomArray.is_occupied": "the accessor test files read fixture grids with",
}


def _is_public(name: str) -> bool:
    return not name.startswith("_")


def _assigned_names(node: ast.stmt) -> list[str]:
    if isinstance(node, ast.Assign):
        targets = node.targets
    elif isinstance(node, ast.AnnAssign):
        targets = [node.target]
    else:
        return []
    return [t.id for t in targets if isinstance(t, ast.Name)]


def _definitions(tree: ast.Module) -> list[str]:
    """Public top-level names and public methods (``Class.method``)."""
    names = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            if _is_public(node.name):
                names.append(node.name)
        elif isinstance(node, ast.ClassDef) and _is_public(node.name):
            names.append(node.name)
            names.extend(
                f"{node.name}.{item.name}"
                for item in node.body
                if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef))
                and _is_public(item.name)
            )
        else:
            names.extend(
                name
                for name in _assigned_names(node)
                if _is_public(name) and name != "__all__"
            )
    return names


def _references(tree: ast.Module, *, imports: bool) -> set[str]:
    """Names a module loads, reads as attributes, or (with ``imports``)
    imports."""
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            found.add(node.id)
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            found.add(node.attr)
        elif isinstance(node, ast.ImportFrom) and imports:
            found.update(alias.name for alias in node.names)
    return found


def _parse(path: Path) -> ast.Module:
    return ast.parse(path.read_text(encoding="utf-8"), filename=str(path))


def uncalled_names(root: Path = REPO) -> dict[str, str]:
    """Public ``src/repro`` names no non-test code references, by module."""
    defined: dict[str, str] = {}
    referenced: set[str] = set()
    for path in sorted((root / "src" / "repro").rglob("*.py")):
        tree = _parse(path)
        module = ".".join(path.relative_to(root / "src").with_suffix("").parts)
        for name in _definitions(tree):
            defined.setdefault(name, module)
        # A package __init__'s imports are re-exports, not callers.
        referenced |= _references(tree, imports=path.name != "__init__.py")
    for caller_dir in CALLER_DIRS:
        for path in sorted((root / caller_dir).rglob("*.py")):
            referenced |= _references(_parse(path), imports=True)
    return {
        name: module
        for name, module in sorted(defined.items())
        if name.rpartition(".")[2] not in referenced
    }


@functools.cache
def _uncalled_here() -> dict[str, str]:
    return uncalled_names()


def test_every_public_name_has_a_non_test_caller():
    uncalled = _uncalled_here()
    flagged = [f"{uncalled[name]}: {name}" for name in uncalled if name not in ALLOWED]
    assert not flagged, (
        "public src/ names that only tests reach (delete them, move them "
        "into tests/, or add them to ALLOWED with a reason):\n  "
        + "\n  ".join(flagged)
    )


@pytest.mark.parametrize("name", sorted(ALLOWED))
def test_allowed_name_is_still_uncalled(name):
    """An allowed name that gained a caller, or is gone, leaves the list."""
    assert name in _uncalled_here(), f"{name} is called or gone: drop it from ALLOWED"


def _checkout(root: Path, files: dict[str, str]) -> Path:
    """A minimal checkout under ``root`` holding ``files`` (path: source)."""
    for relative, source in files.items():
        path = root / relative
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(textwrap.dedent(source))
    return root


MODULE = """
    LIMIT = 3
    _PRIVATE_LIMIT = 4
    __all__ = ["LIMIT", "helper", "used", "Box"]


    def helper():
        pass


    def used():
        pass


    def _private():
        pass


    class Box:
        def open(self):
            pass

        def latency(self):
            pass

        def _close(self):
            pass
"""


def test_scan_flags_public_functions_methods_and_constants(tmp_path):
    root = _checkout(tmp_path, {"src/repro/mod.py": MODULE})
    assert uncalled_names(root) == {
        name: "repro.mod"
        for name in ("Box", "Box.latency", "Box.open", "LIMIT", "helper", "used")
    }


def test_a_docstring_or_comment_mention_is_not_a_caller(tmp_path):
    example = '''
        """Calls used(); helper() is only named here."""
        from repro.mod import used

        used()  # not helper()
    '''
    root = _checkout(tmp_path, {"src/repro/mod.py": MODULE, "examples/a.py": example})
    uncalled = uncalled_names(root)
    assert "helper" in uncalled and "used" not in uncalled


def test_a_call_inside_an_f_string_is_a_caller(tmp_path):
    script = """
        def report(box):
            print(f"latency {box.latency()} cycles")
    """
    root = _checkout(tmp_path, {"src/repro/mod.py": MODULE, "perfbench/b.py": script})
    uncalled = uncalled_names(root)
    assert "Box.latency" not in uncalled and "Box.open" in uncalled


def test_a_package_init_re_export_is_not_a_caller(tmp_path):
    files = {
        "src/repro/mod.py": MODULE,
        "src/repro/__init__.py": "from repro.mod import LIMIT, helper\n",
        "benchmarks/c.py": "from repro.mod import LIMIT\n",
    }
    uncalled = uncalled_names(_checkout(tmp_path, files))
    assert "helper" in uncalled and "LIMIT" not in uncalled


def test_a_src_module_caller_keeps_a_name(tmp_path):
    caller = """
        from repro.mod import Box


        def run():
            Box().open()
    """
    files = {"src/repro/mod.py": MODULE, "src/repro/caller.py": caller}
    uncalled = uncalled_names(_checkout(tmp_path, files))
    assert {"Box", "Box.open", "run"} & set(uncalled) == {"run"}
