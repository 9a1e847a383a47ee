"""Every public top-level def or class of the package has a reader.

A public function or class under src/skyrmelab/ must be read somewhere in
src/, scripts/ or perfbench/ outside its own definition; the tests alone do
not keep a name alive.  A read is a loaded name, an attribute, an imported
name, or a string constant equal to the name (perfbench wraps targets it
names as strings).  Attributes match by name only, so the check can miss a
dead name that shares its spelling with a live attribute, never the reverse.
"""
import ast
import functools
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = sorted((ROOT / "src" / "skyrmelab").glob("*.py"))
READERS = sorted(p for d in ("src", "scripts", "perfbench") for p in (ROOT / d).rglob("*.py"))


def reads(tree, skip=None):
    """Names that tree reads; the subtree skip is not searched."""
    out = set()
    stack = [tree]
    while stack:
        node = stack.pop()
        if node is skip:
            continue
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            out.add(node.id)
        elif isinstance(node, ast.Attribute):
            out.add(node.attr)
        elif isinstance(node, ast.alias):
            out.add(node.name.rpartition(".")[2])
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            out.add(node.value)
        stack.extend(ast.iter_child_nodes(node))
    return out


def unread_names(module, others):
    """Public top-level defs and classes of module that neither others nor module reads."""
    elsewhere = set().union(*others)
    return [node.name for node in module.body
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
            and not node.name.startswith("_")
            and node.name not in elsewhere and node.name not in reads(module, skip=node)]


def test_the_check_sees_an_unread_name():
    module = ast.parse("def used():\n    return 1\n\n"
                       "def dead(n):\n    return dead(n - 1)\n\n"
                       "class Alone:\n    def f(self):\n        return Alone()\n\n"
                       "def _private():\n    pass\n\n"
                       "def wrapped():\n    pass\n\n"
                       "x = used()\n")
    other = ast.parse("from pkg import lib\nlib.Alone\nTARGETS = ('mod', 'wrapped')\n")
    assert unread_names(module, []) == ["dead", "Alone", "wrapped"]
    assert unread_names(module, [reads(other)]) == ["dead"]


@functools.cache
def reader_trees():
    return {p: ast.parse(p.read_text()) for p in READERS}


@pytest.mark.parametrize("path", PACKAGE, ids=lambda p: p.stem)
def test_every_public_name_is_read(path):
    trees = reader_trees()
    others = [reads(tree) for p, tree in trees.items() if p != path]
    assert unread_names(trees[path], others) == []
