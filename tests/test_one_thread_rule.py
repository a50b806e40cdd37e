"""A sweep runs its passes in order on the calling thread: no module of the
package starts a thread or a pool of workers."""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "misfdr"

FORBIDDEN = ("concurrent", "threading")


def thread_imports(source: str) -> list[str]:
    """The modules of `FORBIDDEN`, or their submodules, that `source` imports."""
    names = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names += [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names.append(node.module)
    return [name for name in names if name.split(".")[0] in FORBIDDEN]


def test_no_thread_or_pool_import_in_package():
    modules = sorted(PACKAGE.glob("*.py"))
    assert len(modules) > 1
    found = [f"{path.name}: {name}" for path in modules
             for name in thread_imports(path.read_text())]
    assert found == []


@pytest.mark.parametrize("source, name", [
    ("from concurrent.futures import ThreadPoolExecutor", "concurrent.futures"),
    ("import concurrent.futures as cf", "concurrent.futures"),
    ("import threading", "threading"),
    ("def f():\n    from threading import Lock", "threading"),
])
def test_check_sees_a_thread_import(source, name):
    # The check is live: it flags the pool import run_sweep once had.
    assert thread_imports(source) == [name]
