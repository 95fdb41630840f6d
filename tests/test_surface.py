"""The package's public names are the ones its commands and benchmark use."""

import ast
import importlib
from pathlib import Path

import ulfit.cli

_ROOT = Path(__file__).resolve().parents[1]
_PACKAGE = _ROOT / "src" / "ulfit"
_BENCH = _ROOT / "perfbench"


def _exported(tree):
    """The names of a module's __all__, or () without one."""
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            return ast.literal_eval(node.value)
    return ()


def _uses(node, strings):
    """Names that node loads or reads as attributes, and with strings its
    string constants (perfbench hooks names by string)."""
    out = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Load):
            out.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            out.add(sub.attr)
        elif strings and isinstance(sub, ast.Constant) and isinstance(sub.value, str):
            out.add(sub.value)
    return out


def test_every_public_name_resolves_and_is_used():
    trees = {p.stem: ast.parse(p.read_text()) for p in sorted(_PACKAGE.glob("*.py"))}
    bench = set()
    for path in sorted(_BENCH.glob("*.py")):
        bench |= _uses(ast.parse(path.read_text()), strings=True)
    # Per module, each top-level statement's def or class name (or None)
    # and the names it uses.
    defs = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
    statements = {
        mod: [
            (top.name if isinstance(top, defs) else None, _uses(top, strings=False))
            for top in tree.body
        ]
        for mod, tree in trees.items()
    }

    missing, unused = [], []
    for mod, names in ulfit.cli._SOURCES.items():
        module = importlib.import_module(f"ulfit.{mod}")
        missing += [f"cli._SOURCES {mod}.{n}" for n in names if not hasattr(module, n)]
    for mod, tree in trees.items():
        for name in _exported(tree):
            if not hasattr(importlib.import_module(f"ulfit.{mod}"), name):
                missing.append(f"{mod}.{name}")
                continue
            # A use inside the name's own def or class does not count.
            used = set(bench)
            for other, stmts in statements.items():
                for owner, uses in stmts:
                    if not (other == mod and owner == name):
                        used |= uses
            if name not in used:
                unused.append(f"{mod}.{name}")
    assert missing == []
    assert unused == []
