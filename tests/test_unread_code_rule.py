"""Every function, method, property and class the package defines is read by
name somewhere else: in the package outside its own body, in the benchmark
harness or the scripts, or as a name the package exports. Code that only tests
read does not stay in the package."""

import ast
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "misfdr"
READERS = sorted((ROOT / "perfbench").glob("*.py")) + sorted((ROOT / "scripts").glob("*.py"))

# The paper's copula C and correlation matrix P_b of a sampling law: acceptance
# criterion 8 and the test oracles read them, the package itself does not.
ALLOWED = {"SamplingLaw.copula", "SamplingLaw.p_b"}

DEFINITIONS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def definitions(tree: ast.AST, prefix: str = ""):
    """(qualified name, node) of every def and class in `tree`, nested ones too."""
    for node in ast.iter_child_nodes(tree):
        if isinstance(node, DEFINITIONS):
            yield prefix + node.name, node
            yield from definitions(node, f"{prefix}{node.name}.")
        else:
            yield from definitions(node, prefix)


def reads(tree: ast.AST):
    """(name, line) of every name and attribute that `tree` loads."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            yield node.id, node.lineno
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            yield node.attr, node.lineno


def exported(init_tree: ast.AST) -> set[str]:
    return {alias.name for node in ast.walk(init_tree) if isinstance(node, ast.ImportFrom)
            for alias in node.names}


def unread(package: dict[str, str], readers: list[str]) -> set[str]:
    """Qualified names defined in the `package` sources (file name -> text) that
    nothing reads by name outside their own body; dunders excepted."""
    trees = {name: ast.parse(text) for name, text in package.items()}
    outside = {name for text in readers for name, _ in reads(ast.parse(text))}
    if "__init__.py" in trees:
        outside |= exported(trees["__init__.py"])
    inside = defaultdict(list)
    for file, tree in trees.items():
        for name, line in reads(tree):
            inside[name].append((file, line))
    found = set()
    for file, tree in trees.items():
        for qualname, node in definitions(tree):
            name = node.name
            if name.startswith("__") and name.endswith("__") or name in outside:
                continue
            own_body = range(node.lineno, node.end_lineno + 1)
            if all(where == file and line in own_body for where, line in inside[name]):
                found.add(qualname)
    return found


def package_sources() -> dict[str, str]:
    return {path.name: path.read_text() for path in sorted(PACKAGE.glob("*.py"))}


def test_every_definition_is_read():
    assert unread(package_sources(), [path.read_text() for path in READERS]) == ALLOWED


def test_scan_sees_unread_code():
    # The scan is live: without the benchmark harness, which alone calls
    # `rng.streams`, it flags `streams`; a definition read only in its own
    # body is flagged, one read elsewhere is not.
    assert "streams" in unread(package_sources(), [])
    source = "def recurse(n):\n    return recurse(n - 1)\n\ndef used():\n    return 1\n\nused()\n"
    assert unread({"mod.py": source}, []) == {"recurse"}
