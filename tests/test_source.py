"""Source checks over the package, with the standard library's ast alone:
no module imports a name it never uses, and no function or class of src/
goes unused, by name, in src/, tests/ and bench/."""

import ast
import re
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "quiverhall"
WORD = re.compile(r"[A-Za-z_]\w*")


def _trees(*dirs):
    for d in dirs:
        for path in sorted((ROOT / d).rglob("*.py")):
            yield path, ast.parse(path.read_text(encoding="utf-8"), str(path))


def _docstrings(tree) -> set:
    """The ids of the docstring constants of a module and its classes and
    functions."""
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)) \
                and node.body and isinstance(node.body[0], ast.Expr) \
                and isinstance(node.body[0].value, ast.Constant):
            out.add(id(node.body[0].value))
    return out


def _uses(tree) -> Counter:
    """Every name a module uses in code: loaded and stored names, attributes,
    keyword arguments, imported names, and the words of its string constants
    other than docstrings (bench/tracer.py reads methods by name)."""
    docs = _docstrings(tree)
    out = Counter()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            out[node.id] += 1
        elif isinstance(node, ast.Attribute):
            out[node.attr] += 1
        elif isinstance(node, ast.keyword) and node.arg:
            out[node.arg] += 1
        elif isinstance(node, ast.alias):
            out.update(node.name.split("."))
        elif isinstance(node, ast.Constant) and isinstance(node.value, str) \
                and id(node) not in docs:
            out.update(WORD.findall(node.value))
    return out


def test_no_module_imports_a_name_it_never_uses():
    unused = []
    for path, tree in _trees("src"):
        bound = {}
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                for alias in node.names:
                    bound[alias.asname or alias.name.split(".")[0]] = node.lineno
        used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
        exported = next((ast.literal_eval(n.value) for n in tree.body
                         if isinstance(n, ast.Assign)
                         and any(getattr(t, "id", None) == "__all__" for t in n.targets)), [])
        unused += [f"{path.relative_to(ROOT)}:{line} {name}" for name, line in bound.items()
                   if name not in used and name not in exported]
    assert not unused, unused


def test_every_function_and_class_of_src_is_used_by_name():
    """Dunder methods are called by the language, so they are exempt."""
    uses = Counter()
    for _path, tree in _trees("src", "tests", "bench"):
        uses.update(_uses(tree))
    unused = []
    for path, tree in _trees("src"):
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)) \
                    and not (node.name.startswith("__") and node.name.endswith("__")) \
                    and not uses[node.name]:
                unused.append(f"{path.relative_to(ROOT)}:{node.lineno} {node.name}")
    assert not unused, unused
