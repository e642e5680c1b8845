"""Code rules for src/rosefold, checked by AST scans (standard library only).

- ``src/rosefold`` imports only the standard library.
- Code stays in src only if a pipeline, the benchmark, an acceptance
  check or README's library example runs it: every public name in
  ``src/rosefold`` has a caller outside the unit tests, and so does every
  defaulted parameter.
- The package namespace is README's API: every name that ``__init__.py``
  binds, dunders aside, is imported from ``rosefold`` by some caller.
- Every public method of a public class is read as an attribute by some
  caller.
- No function in ``src/rosefold`` calls itself: a search keeps its own
  stack, so input size never meets Python's recursion limit.
- Every ``BENCH_*.json`` records its provenance.

The callers are the modules of ``src/rosefold`` themselves,
``perfbench/*.py``, ``tests/test_acceptance.py`` and README's library
example; they are parsed once.  Each rule lists its violations as
``path:line: name`` and fails on any.
"""

from __future__ import annotations

import ast
import functools
import json
import sys
from pathlib import Path

from test_readme import library_example

ROOT = Path(__file__).resolve().parent.parent


@functools.cache
def modules() -> dict[str, ast.Module]:
    """Every module under src/rosefold, by path from the repository root."""
    paths = sorted((ROOT / "src" / "rosefold").rglob("*.py"))
    return {str(p.relative_to(ROOT)): ast.parse(p.read_text(), str(p)) for p in paths}


def sources() -> dict[str, ast.Module]:
    """The modules of src/rosefold but ``__init__.py``, whose names and
    parameters need callers."""
    return {path: tree for path, tree in modules().items()
            if Path(path).parent == Path("src/rosefold") and Path(path).name != "__init__.py"}


@functools.cache
def callers() -> tuple[ast.Module, ...]:
    """The code whose uses keep a name alive: src, README's library
    example, the benchmark and the acceptance checks."""
    others = [*sorted((ROOT / "perfbench").glob("*.py")), ROOT / "tests" / "test_acceptance.py"]
    return (
        *sources().values(),
        ast.parse(library_example(), "README.md"),
        *(ast.parse(p.read_text(), str(p)) for p in others),
    )


def non_stdlib_imports(src: dict[str, ast.Module]) -> list[str]:
    allowed = set(sys.stdlib_module_names) | {"rosefold"}
    bad = []
    for path, tree in src.items():
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            bad += [f"{path}:{node.lineno}: {name}" for name in names
                    if name.split(".")[0] not in allowed]
    return bad


def _names(node: ast.AST, local: frozenset = frozenset()):
    # inside a function, the names it binds as parameters or assignment
    # targets are its own, not uses of module names
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
        args = node.args
        params = [*args.posonlyargs, *args.args, *args.kwonlyargs, args.vararg, args.kwarg]
        local = local | {a.arg for a in params if a} | {
            n.id for n in ast.walk(node) if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Store)}
    if isinstance(node, ast.Name) and node.id not in local:
        yield node.id
    elif isinstance(node, ast.Attribute):
        yield node.attr
    for child in ast.iter_child_nodes(node):
        yield from _names(child, local)


def uncalled_public_names(src: dict[str, ast.Module], users: tuple[ast.Module, ...]) -> list[str]:
    used = {name for tree in users for name in _names(tree)}
    return [f"{path}:{node.lineno}: {node.name}" for path, tree in src.items() for node in tree.body
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
            and not node.name.startswith("_") and node.name not in used]


def unimported_package_names(path: str, init: ast.Module, users: tuple[ast.Module, ...]) -> list[str]:
    """Names that the package's ``__init__`` binds, dunders aside, that no
    caller imports with ``from rosefold import``."""
    imported = {alias.name for tree in users for node in ast.walk(tree)
                if isinstance(node, ast.ImportFrom) and node.level == 0 and node.module == "rosefold"
                for alias in node.names}
    bound = []
    for node in init.body:
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            bound += [(node, (alias.asname or alias.name).split(".")[0]) for alias in node.names]
        elif isinstance(node, ast.Assign):
            bound += [(node, t.id) for t in node.targets if isinstance(t, ast.Name)]
        elif isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            bound.append((node, node.name))
    return [f"{path}:{node.lineno}: {name}" for node, name in bound
            if not (name.startswith("__") and name.endswith("__")) and name not in imported]


def unread_public_methods(src: dict[str, ast.Module], users: tuple[ast.Module, ...]) -> list[str]:
    """Public methods (properties too) of public classes that no caller
    reads as an attribute."""
    read = {n.attr for tree in users for n in ast.walk(tree) if isinstance(n, ast.Attribute)}
    return [f"{path}:{node.lineno}: {cls.name}.{node.name}" for path, tree in src.items() for cls in tree.body
            if isinstance(cls, ast.ClassDef) and not cls.name.startswith("_")
            for node in cls.body
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
            and not node.name.startswith("_") and node.name not in read]


def unpassed_defaults(src: dict[str, ast.Module], users: tuple[ast.Module, ...]) -> list[str]:
    """A parameter with a default stays only if some caller passes it, by
    keyword or by position, to a function of that name (a class's
    ``__init__`` goes by the class name, and a call with ``*args`` or
    ``**kwargs`` passes everything); matching by name alone can keep a dead
    parameter alive, but it never flags a live one."""
    # per called name: the positional counts and keywords of its calls
    passed: dict[str | None, set] = {}
    for call in (n for tree in users for n in ast.walk(tree) if isinstance(n, ast.Call)):
        func = call.func
        name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
        starred = any(isinstance(a, ast.Starred) for a in call.args) or any(k.arg is None for k in call.keywords)
        passed.setdefault(name, set()).update({"*"} if starred else {len(call.args), *(k.arg for k in call.keywords)})
    bad = []
    for path, tree in src.items():
        for owner in ast.walk(tree):
            if not isinstance(owner, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            for node in owner.body:
                if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    continue
                # a method's first parameter is bound, not passed
                method = isinstance(owner, ast.ClassDef) and not any(
                    isinstance(d, ast.Name) and d.id == "staticmethod" for d in node.decorator_list)
                name = owner.name if method and node.name == "__init__" else node.name
                args = node.args
                positional = [*args.posonlyargs, *args.args][method:]
                defaulted = [(i, a.arg) for i, a in enumerate(positional)
                             if i >= len(positional) - len(args.defaults)]
                defaulted += [(None, a.arg) for a, d in zip(args.kwonlyargs, args.kw_defaults) if d is not None]
                seen = passed.get(name, set())
                bad += [f"{path}:{node.lineno}: {node.name}({arg})" for i, arg in defaulted
                        if "*" not in seen and arg not in seen
                        and not (i is not None and any(type(n) is int and n > i for n in seen))]
    return bad


def self_calls(src: dict[str, ast.Module]) -> list[str]:
    """Functions, nested ones and methods too, whose bodies call their own
    name (a method through ``self`` or ``cls``)."""
    bad = []
    for path, tree in src.items():
        for node in ast.walk(tree):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            for call in (n for stmt in node.body for n in ast.walk(stmt) if isinstance(n, ast.Call)):
                func = call.func
                if (isinstance(func, ast.Name) and func.id == node.name) or (
                    isinstance(func, ast.Attribute) and func.attr == node.name
                    and isinstance(func.value, ast.Name) and func.value.id in ("self", "cls")
                ):
                    bad.append(f"{path}:{node.lineno}: {node.name}")
                    break
    return bad


def bench_provenance_gaps(paths: list[Path]) -> list[str]:
    """A perf claim names its parent commit, Python, machine, seeds and
    every run behind its summary."""
    required = ["what", "parent_commit", "python", "machine", "seeds", "summary", "runs"]
    bad = []
    for path in paths:
        data = json.loads(path.read_text())
        missing = [key for key in required if not isinstance(data, dict) or key not in data]
        bad += [f"{path.name}: missing {', '.join(missing)}"] if missing else []
    return bad


def test_standard_library_imports_only():
    bad = non_stdlib_imports(modules())
    assert not bad, "src/rosefold imports outside the standard library:\n" + "\n".join(bad)


def test_every_public_name_has_a_caller_outside_the_unit_tests():
    bad = uncalled_public_names(sources(), callers())
    assert not bad, "public names in src/rosefold with no caller outside the unit tests:\n" + "\n".join(bad)


def test_package_namespace_is_imported_by_its_callers():
    path = "src/rosefold/__init__.py"
    bad = unimported_package_names(path, modules()[path], callers())
    assert not bad, "names in the rosefold namespace that no caller imports from it:\n" + "\n".join(bad)


def test_every_public_method_is_read_outside_the_unit_tests():
    bad = unread_public_methods(sources(), callers())
    assert not bad, "public methods in src/rosefold read by no caller outside the unit tests:\n" + "\n".join(bad)


def test_every_defaulted_parameter_is_passed_outside_the_unit_tests():
    bad = unpassed_defaults(sources(), callers())
    assert not bad, "defaulted parameters in src/rosefold passed by no caller outside the unit tests:\n" + "\n".join(bad)


def test_no_function_calls_itself():
    bad = self_calls(modules())
    assert not bad, "functions in src/rosefold that call themselves:\n" + "\n".join(bad)


def test_every_bench_json_records_its_provenance():
    bad = bench_provenance_gaps(sorted(ROOT.glob("BENCH_*.json")))
    assert not bad, "BENCH_*.json files without their provenance:\n" + "\n".join(bad)


PLANTED = '''\
import numpy
from os import path


def uncalled(x):
    return x


def called(a, b=1, *, c=2):
    return a


class Kept:
    def __init__(self, n=0):
        self.n = n


def helper():
    shadow = 1
    return called(shadow, c=3), Kept(5)


def _walk(n):
    def inner(k):
        return inner(k - 1) if k else 0
    return _walk(n - 1) + inner(n) if n else 0


class _Tree:
    def depth(self):
        return 1 + max((c.depth() for c in self.kids), default=0)

    def size(self):
        return 1 + self.size()


class Shown:
    def read(self):
        return self

    def unread(self):
        return Shown().read()


class _Hidden:
    def public(self):
        return 0
'''

PLANTED_INIT = '''\
from .planted import Kept, called
from .planted import helper as aliased

__version__ = "0"
'''


def test_rules_flag_planted_violations(tmp_path):
    src = {"src/rosefold/planted.py": ast.parse(PLANTED)}
    assert non_stdlib_imports(src) == ["src/rosefold/planted.py:1: numpy"]
    # a name used only as a local variable does not keep ``shadow`` alive;
    # ``helper`` has no caller
    assert uncalled_public_names(src, tuple(src.values())) == [
        "src/rosefold/planted.py:5: uncalled",
        "src/rosefold/planted.py:18: helper",
    ]
    # ``read`` is read through an instance; a private class's methods go unchecked
    assert unread_public_methods(src, tuple(src.values())) == ["src/rosefold/planted.py:41: Shown.unread"]
    # a name imported from a submodule does not count, nor does the name an alias hides
    users = (ast.parse("from rosefold import Kept, helper\nfrom rosefold.planted import called\n"),)
    assert unimported_package_names("src/rosefold/__init__.py", ast.parse(PLANTED_INIT), users) == [
        "src/rosefold/__init__.py:1: called",
        "src/rosefold/__init__.py:2: aliased",
    ]
    # ``c`` is passed by keyword and ``n`` by position; ``b`` by nobody
    assert unpassed_defaults(src, tuple(src.values())) == ["src/rosefold/planted.py:9: called(b)"]
    # a call through another object is not a self-call; one through ``self`` is
    assert self_calls(src) == [
        "src/rosefold/planted.py:23: _walk",
        "src/rosefold/planted.py:24: inner",
        "src/rosefold/planted.py:33: size",
    ]
    (tmp_path / "BENCH_1.json").write_text(json.dumps({"what": "x", "runs": []}))
    (tmp_path / "BENCH_2.json").write_text("[]")
    assert bench_provenance_gaps(sorted(tmp_path.glob("BENCH_*.json"))) == [
        "BENCH_1.json: missing parent_commit, python, machine, seeds, summary",
        "BENCH_2.json: missing what, parent_commit, python, machine, seeds, summary, runs",
    ]
