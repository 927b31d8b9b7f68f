"""The public surface has callers: every name in katolab.__all__ is used by the
package itself, documented in README "Library" or "CLI", or called by the
acceptance tests or the benchmark, not only by the unit tests; every layer
the benchmark traces, and every dotted name of README.md, resolves in the
package; the count of settable values is pinned; and no module of the package
imports a name that it never uses."""

import ast
import dataclasses
import importlib
import inspect
import re
import runpy
from pathlib import Path

import katolab

ROOT = Path(__file__).resolve().parents[1]


def _caller_lines():
    texts = [p.read_text() for p in sorted((ROOT / "src" / "katolab").glob("*.py"))
             if p.name != "__init__.py"]
    texts += [p.read_text() for p in sorted((ROOT / "perfbench").glob("*.py"))]
    texts.append((ROOT / "tests" / "test_acceptance.py").read_text())
    readme = (ROOT / "README.md").read_text()
    texts += [part for part in re.split(r"^## ", readme, flags=re.M)
              if part.startswith(("CLI\n", "Library\n"))]
    return "\n".join(texts).splitlines()


def test_every_public_name_is_referenced_beyond_its_definition():
    lines = _caller_lines()

    def referenced(name):
        word, own = rf"\b{re.escape(name)}\b", rf"\s*(def|class) {re.escape(name)}\b"
        return any(re.search(word, line) and not re.match(own, line) for line in lines)

    assert [name for name in katolab.__all__ if not referenced(name)] == []


def test_settable_values_are_pinned():
    # CI's design metric, counted as CI counts it: the parameters with a default of each
    # function in katolab.__all__ plus the fields with a default of its dataclasses; a
    # new default moves this pin and ROADMAP aim 2's ledger with it
    functions = fields = 0
    for name in katolab.__all__:
        obj = getattr(katolab, name)
        if dataclasses.is_dataclass(obj):
            fields += sum(f.default is not dataclasses.MISSING
                          or f.default_factory is not dataclasses.MISSING
                          for f in dataclasses.fields(obj))
        elif inspect.isfunction(obj):
            functions += sum(p.default is not p.empty
                             for p in inspect.signature(obj).parameters.values())
    assert functions + fields == 19


def test_every_traced_layer_resolves_in_katolab():
    # perfbench/tracing.LAYERS names each traced function by its defining module and
    # attribute path: a refactor that renames or drops one fails here, not only in the
    # benchmark; run_path compiles the file in memory and writes nothing beside it
    layers = runpy.run_path(str(ROOT / "perfbench" / "tracing.py"))["LAYERS"]
    unresolved = []
    for layer, (module, path, _) in layers.items():
        obj = importlib.import_module(module)
        for part in path.split("."):
            obj = getattr(obj, part, None)
        if not callable(obj):
            unresolved.append(layer)
    assert layers
    assert unresolved == []


def _readme_object(name: str):
    """The object a dotted name of README.md refers to in katolab, or None: its head is
    the package, one of its modules, or a name the package exports."""
    head, *path = name.split(".")
    try:
        obj = katolab if head == "katolab" else importlib.import_module(f"katolab.{head}")
    except ModuleNotFoundError:
        obj = getattr(katolab, head, None)
    for part in path:
        obj = getattr(obj, part, None)
    return obj


def test_every_dotted_name_in_the_readme_resolves_in_katolab():
    # a module move or a rename leaves no backticked `module.name` of README.md pointing
    # at nothing; numpy's and the standard library's names are not the package's
    names = set(re.findall(r"`([A-Za-z_]\w*(?:\.[A-Za-z_]\w*)+)`",
                           (ROOT / "README.md").read_text()))
    names = {name for name in names if name.split(".")[0] not in ("np", "sys")}
    assert "projections.FAMILIES" in names and "katolab.spaces" in names
    assert sorted(name for name in names if _readme_object(name) is None) == []
    # the rule sees a name that a move left behind
    assert _readme_object("linmap._row_blocks") is None


def _unused_imports(source: str) -> list:
    """The names a module's import statements bind and its code never reads; a name
    listed in the module's __all__ counts as read, as a re-export."""
    tree = ast.parse(source)
    bound = [(alias.asname or alias.name).split(".")[0] for node in ast.walk(tree)
             if isinstance(node, (ast.Import, ast.ImportFrom)) for alias in node.names]
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            read |= set(ast.literal_eval(node.value))
    return [name for name in bound if name not in read]


def test_no_module_imports_a_name_it_never_uses():
    # a cut that drops the last use of an imported name leaves its import behind
    unused = {path.name: _unused_imports(path.read_text())
              for path in sorted((ROOT / "src" / "katolab").glob("*.py"))}
    assert {name: names for name, names in unused.items() if names} == {}
    # the rule sees such a leftover: an import of spinor_dim that nothing reads
    assert _unused_imports("from .clifford import spinor_dim\nx = 1\n") == ["spinor_dim"]
    assert _unused_imports("import numpy as np\n__all__ = ['np']\n") == []
