"""Every name in ``src/`` is reached by something other than a test.

A top-level ``def``, ``class`` or module constant of ``src/repro`` counts as
reached when its identifier appears outside its own definition in the code
or string literals of ``src/``, ``examples/``, ``benchmarks/``,
``perfbench/`` (whose ``module:Qualified.name`` entry points are strings),
the CI workflows or ``pyproject.toml``. Docstrings, comments, ``__all__``
and the re-exporting imports of ``__init__.py`` files do not count; a
registry decorator (``@register_scenario`` and its kin) does, since
registration is how a run finds the function. Dunders are skipped.

A class member (a method, property or class-level field, of a top-level
or nested class) counts as reached when the same places use its name,
outside its own definition, as an attribute (``x.name``), a keyword
argument (``name=``) or a word of a non-docstring string literal (an entry
point, a ``getattr`` name); the CI workflows and ``pyproject.toml`` count
every word. A bare identifier does not count, since a member is never
reached by one. The scan cannot tell two classes' members of one name
apart, so a member whose name another class's run uses passes.

A name only tests reach belongs in ``tests/`` (``tests/helpers.py`` holds
the shared helpers and oracles) or nowhere. The one exception is listed in
``ALLOWED`` with its reason, top-level names and members
(``module.Class.member``) alike; an entry whose name is gone or is
reached fails too, so the list cannot outlive its reason.
"""

from __future__ import annotations

import ast
import io
import re
import tokenize
from collections import defaultdict
from functools import lru_cache
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
PYTHON_DIRS = ("src", "examples", "benchmarks", "perfbench")
TEXT_GLOBS = (".github/workflows/*.yml", "pyproject.toml")
REGISTRY_DECORATORS = frozenset({"register_scenario", "register_sweep", "register_baseline"})

#: Qualified name -> why it stays although only tests reach it.
ALLOWED = {
    "repro.sim.des.DiscreteEventModuleSimulation": (
        "the request-level plant; ROADMAP item 5's VAL2 replay gives it a run"
    ),
}

_IDENTIFIER = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")
#: Literal text. From Python 3.12 an f-string's text comes as FSTRING_MIDDLE
#: tokens (its fields as NAME tokens); before, the whole f-string is a STRING.
_LITERAL_TOKENS = frozenset(
    {tokenize.STRING, getattr(tokenize, "FSTRING_MIDDLE", tokenize.STRING)}
)


def _is_dunder(name: str) -> bool:
    return name.startswith("__") and name.endswith("__")


def _docstring_starts(tree: ast.AST) -> set[tuple[int, int]]:
    starts = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            body = node.body
            if (
                body
                and isinstance(body[0], ast.Expr)
                and isinstance(body[0].value, ast.Constant)
                and isinstance(body[0].value.value, str)
            ):
                starts.add((body[0].lineno, body[0].col_offset))
    return starts


def _skipped_spans(tree: ast.Module, is_init: bool) -> list[tuple[int, int]]:
    """Line spans whose identifiers are not references: ``__all__`` and re-exports."""
    spans = []
    for stmt in tree.body:
        if is_init and isinstance(stmt, (ast.Import, ast.ImportFrom)):
            spans.append((stmt.lineno, stmt.end_lineno))
        elif isinstance(stmt, ast.Assign):
            if any(isinstance(t, ast.Name) and t.id == "__all__" for t in stmt.targets):
                spans.append((stmt.lineno, stmt.end_lineno))
    return spans


def _python_identifiers(path: Path) -> list[tuple[str, int]]:
    """``(identifier, line)`` for every identifier in code and non-docstring strings."""
    source = path.read_text(encoding="utf-8")
    tree = ast.parse(source)
    docstrings = _docstring_starts(tree)
    skipped = _skipped_spans(tree, path.name == "__init__.py")
    found = []
    for token in tokenize.generate_tokens(io.StringIO(source).readline):
        line = token.start[0]
        if any(lo <= line <= hi for lo, hi in skipped):
            continue
        if token.type == tokenize.NAME:
            found.append((token.string, line))
        elif token.type in _LITERAL_TOKENS and token.start not in docstrings:
            found.extend((word, line) for word in _IDENTIFIER.findall(token.string))
    return found


def _text_identifiers(path: Path) -> list[tuple[str, int]]:
    found = []
    for number, line in enumerate(path.read_text(encoding="utf-8").splitlines(), 1):
        if not line.lstrip().startswith("#"):
            found.extend((word, number) for word in _IDENTIFIER.findall(line))
    return found


def _definitions() -> list[tuple[str, str, Path, int, int, bool]]:
    """``(name, qualified, path, first line, last line, registered)`` per top-level name."""
    found = []
    for path in sorted((SRC / "repro").rglob("*.py")):
        parts = path.relative_to(SRC).with_suffix("").parts
        module = ".".join(parts[:-1] if parts[-1] == "__init__" else parts)
        for stmt in ast.parse(path.read_text(encoding="utf-8")).body:
            names, registered = [], False
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                names = [stmt.name]
                for decorator in stmt.decorator_list:
                    target = decorator.func if isinstance(decorator, ast.Call) else decorator
                    if isinstance(target, ast.Name) and target.id in REGISTRY_DECORATORS:
                        registered = True
            elif isinstance(stmt, (ast.Assign, ast.AnnAssign)):
                targets = stmt.targets if isinstance(stmt, ast.Assign) else [stmt.target]
                for target in targets:
                    elements = target.elts if isinstance(target, ast.Tuple) else [target]
                    names.extend(e.id for e in elements if isinstance(e, ast.Name))
            first = min([stmt.lineno] + [d.lineno for d in getattr(stmt, "decorator_list", [])])
            for name in names:
                if not _is_dunder(name):
                    found.append(
                        (name, f"{module}.{name}", path, first, stmt.end_lineno, registered)
                    )
    return found


def _member_uses(path: Path) -> list[tuple[str, int]]:
    """``(name, line)`` for every attribute, keyword and string-literal word."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    skipped = {
        id(node)
        for lo, hi in _skipped_spans(tree, is_init=False)
        for node in ast.walk(tree)
        if lo <= getattr(node, "lineno", 0) <= hi
    }
    docstrings = _docstring_starts(tree)
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute):
            found.append((node.attr, node.lineno))
        elif isinstance(node, ast.keyword) and node.arg is not None:
            found.append((node.arg, node.value.lineno))
        elif (
            isinstance(node, ast.Constant)
            and isinstance(node.value, str)
            and (node.lineno, node.col_offset) not in docstrings
            and id(node) not in skipped
        ):
            found.extend((word, node.lineno) for word in _IDENTIFIER.findall(node.value))
    return found


def _member_definitions() -> list[tuple[str, str, Path, int, int, bool]]:
    """``(name, qualified, path, first line, last line, False)`` per class member."""
    found = []

    def visit(cls: ast.ClassDef, prefix: str, path: Path) -> None:
        for stmt in cls.body:
            names = []
            if isinstance(stmt, ast.ClassDef):
                visit(stmt, f"{prefix}.{stmt.name}", path)
            elif isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                names = [stmt.name]
            elif isinstance(stmt, (ast.Assign, ast.AnnAssign)):
                targets = stmt.targets if isinstance(stmt, ast.Assign) else [stmt.target]
                for target in targets:
                    elements = target.elts if isinstance(target, ast.Tuple) else [target]
                    names.extend(e.id for e in elements if isinstance(e, ast.Name))
            first = min([stmt.lineno] + [d.lineno for d in getattr(stmt, "decorator_list", [])])
            for name in names:
                if not _is_dunder(name):
                    found.append((name, f"{prefix}.{name}", path, first, stmt.end_lineno, False))

    for path in sorted((SRC / "repro").rglob("*.py")):
        parts = path.relative_to(SRC).with_suffix("").parts
        module = ".".join(parts[:-1] if parts[-1] == "__init__" else parts)
        for stmt in ast.parse(path.read_text(encoding="utf-8")).body:
            if isinstance(stmt, ast.ClassDef):
                visit(stmt, f"{module}.{stmt.name}", path)
    return found


def _index(paths, read_python) -> dict[str, list[tuple[Path, int]]]:
    index = defaultdict(list)
    for path in paths:
        read = read_python if path.suffix == ".py" else _text_identifiers
        for word, line in read(path):
            index[word].append((path, line))
    return index


def _unreached_among(definitions, read_python) -> dict[str, tuple[Path, int, list[str]]]:
    """Definitions nothing but tests reaches, with where each is and which tests use it."""
    reach = [p for d in PYTHON_DIRS for p in sorted((ROOT / d).rglob("*.py"))]
    reach += [p for pattern in TEXT_GLOBS for p in sorted(ROOT.glob(pattern))]
    index = _index(reach, read_python)
    tests = _index(sorted((ROOT / "tests").rglob("*.py")), read_python)
    unreached = {}
    for name, qualified, path, first, last, registered in definitions:
        if registered:
            continue
        if any(p != path or not first <= line <= last for p, line in index.get(name, ())):
            continue
        users = sorted({str(p.relative_to(ROOT)) for p, _ in tests.get(name, ())})
        unreached[qualified] = (path, first, users)
    return unreached


@lru_cache(maxsize=1)
def _unreached() -> tuple[dict[str, tuple[Path, int, list[str]]], set[str]]:
    """Top-level names nothing but tests reaches, and every top-level name."""
    definitions = _definitions()
    return (
        _unreached_among(definitions, _python_identifiers),
        {qualified for _, qualified, *_ in definitions},
    )


@lru_cache(maxsize=1)
def _unreached_members() -> tuple[dict[str, tuple[Path, int, list[str]]], set[str]]:
    """Class members nothing but tests reaches, and every class member."""
    definitions = _member_definitions()
    return (
        _unreached_among(definitions, _member_uses),
        {qualified for _, qualified, *_ in definitions},
    )


def _offending(unreached: dict, kind: str) -> str:
    lines = [
        f"{path.relative_to(ROOT)}:{line}: {qualified} is reached only by "
        f"{', '.join(users) if users else 'nothing'}"
        for qualified, (path, line, users) in sorted(unreached.items())
        if qualified not in ALLOWED
    ]
    if not lines:
        return ""
    return "\n".join(
        [f"{kind} in src/ that no run reaches (delete them, or move test helpers to tests/):"]
        + lines
    )


def test_every_name_in_src_is_reached_by_a_run():
    unreached, _ = _unreached()
    offending = _offending(unreached, "names")
    assert not offending, offending


def test_every_class_member_in_src_is_reached_by_a_run():
    unreached, _ = _unreached_members()
    offending = _offending(unreached, "class members")
    assert not offending, offending


def test_every_allowed_name_exists_and_is_unreached():
    unreached, defined = _unreached()
    unreached_members, defined_members = _unreached_members()
    stale = [
        f"{qualified}: "
        f"{'is reached now' if qualified in defined | defined_members else 'no longer exists'}"
        for qualified in sorted(ALLOWED)
        if qualified not in unreached and qualified not in unreached_members
    ]
    assert not stale, "\n".join(["stale ALLOWED entries:"] + stale)
