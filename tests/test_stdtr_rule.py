"""The Student-t CDF has one implementation, `posterior.StudentT`: no other
code in the package calls `stdtr`, which the kernel calls only for its
fitted nodes and past its cut."""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "misfdr"
KERNEL_MODULE, KERNEL = PACKAGE / "posterior.py", "StudentT"


def stdtr_uses(source: str) -> list[int]:
    """Lines of `source` that read the name stdtr, bare or as an attribute;
    imports, comments and docstrings are not reads."""
    return sorted(
        node.lineno for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.Name) and node.id == "stdtr"
        or isinstance(node, ast.Attribute) and node.attr == "stdtr"
    )


def kernel_lines() -> range:
    tree = ast.parse(KERNEL_MODULE.read_text())
    (kernel,) = [node for node in tree.body
                 if isinstance(node, ast.ClassDef) and node.name == KERNEL]
    return range(kernel.lineno, kernel.end_lineno + 1)


def test_stdtr_only_inside_the_kernel():
    modules = sorted(PACKAGE.glob("*.py"))
    assert len(modules) > 1
    inside = kernel_lines()
    found = [f"{path.name}:{line}" for path in modules for line in stdtr_uses(path.read_text())
             if not (path == KERNEL_MODULE and line in inside)]
    assert found == []


def test_scan_sees_calls():
    # The scan is live: it finds the kernel's own calls, and both forms of a
    # call elsewhere, but not a docstring that names stdtr.
    assert set(stdtr_uses(KERNEL_MODULE.read_text())) & set(kernel_lines())
    source = ('"""Calls stdtr."""\nfrom scipy import special\n'
              "special.stdtr(3.0, 1.0)\nstdtr(3.0, 1.0)\n")
    assert stdtr_uses(source) == [3, 4]
