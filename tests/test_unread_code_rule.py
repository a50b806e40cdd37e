"""Every function, method, property and class the package defines is read by
name somewhere else: in the package outside its own body, in the benchmark
harness or the scripts, or as a name the package exports. A member of a class
is read only as an attribute (`x.c`), so a local variable of the same name
does not count as a read of it. Code that only tests read does not stay in the
package."""

import ast
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "misfdr"
READERS = sorted((ROOT / "perfbench").glob("*.py")) + sorted((ROOT / "scripts").glob("*.py"))

# The paper's copula C and correlation matrix P_b of a sampling law: acceptance
# criterion 8 and the test oracles read them, the package itself does not.
# Its C of the unknown-variance law: criterion 9 and `oracles.xi_sampler_c`
# read it, the package's sampler scores residuals without it.
ALLOWED = {"SamplingLaw.copula", "SamplingLaw.p_b", "SamplingLaw.c"}

DEFINITIONS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def definitions(tree: ast.AST, prefix: str = "", in_class: bool = False):
    """(qualified name, node, member) of every def and class in `tree`, nested
    ones too; `member` when the def is in the body of a class."""
    for node in ast.iter_child_nodes(tree):
        if isinstance(node, DEFINITIONS):
            yield prefix + node.name, node, in_class
            yield from definitions(node, f"{prefix}{node.name}.",
                                   isinstance(node, ast.ClassDef))
        else:
            yield from definitions(node, prefix, in_class)


def reads(tree: ast.AST):
    """(name, line, attribute) of every name and attribute that `tree` loads."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            yield node.id, node.lineno, False
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            yield node.attr, node.lineno, True


def exported(init_tree: ast.AST) -> set[str]:
    return {alias.name for node in ast.walk(init_tree) if isinstance(node, ast.ImportFrom)
            for alias in node.names}


def unread(package: dict[str, str], readers: list[str]) -> set[str]:
    """Qualified names defined in the `package` sources (file name -> text) that
    nothing reads by name outside their own body; dunders excepted."""
    trees = {name: ast.parse(text) for name, text in package.items()}
    outside = {(name, attribute) for text in readers
               for name, _, attribute in reads(ast.parse(text))}
    if "__init__.py" in trees:
        outside |= {(name, False) for name in exported(trees["__init__.py"])}
    inside = defaultdict(list)
    for file, tree in trees.items():
        for name, line, attribute in reads(tree):
            inside[name].append((file, line, attribute))
    found = set()
    for file, tree in trees.items():
        for qualname, node, member in definitions(tree):
            name = node.name
            if name.startswith("__") and name.endswith("__"):
                continue
            if (name, True) in outside or not member and (name, False) in outside:
                continue
            own_body = range(node.lineno, node.end_lineno + 1)
            if all(where == file and line in own_body or member and not attribute
                   for where, line, attribute in inside[name]):
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
    # A method is read only as an attribute: a local of the same name, in
    # another function or another file, is not a read of it.
    source = ("class Law:\n    def c(self):\n        return 1\n\n"
              "    def read(self):\n        return 2\n\n"
              "def use(law):\n    c = law.read()\n    return c\n\nuse(Law())\n")
    assert unread({"mod.py": source}, ["c = 3\nprint(c)\n"]) == {"Law.c"}
    assert unread({"mod.py": source}, ["print(Law().c())\n"]) == set()
