"""Every array an object holds is built in its constructor: no module in the
package fills a cache after construction, so sweep points share only values
that are never written and need no lock."""

import re
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "misfdr"

FORBIDDEN = re.compile(r"\bthreading\b|\bR?Lock\b|\bcached_property\b")


def offending_lines(lines: list[str]) -> list[str]:
    return [line.strip() for line in lines if FORBIDDEN.search(line)]


def test_no_lock_or_lazy_cache_in_package():
    modules = sorted(PACKAGE.glob("*.py"))
    assert len(modules) > 1
    found = [f"{path.name}: {hit}" for path in modules
             for hit in offending_lines(path.read_text().splitlines())]
    assert found == []


@pytest.mark.parametrize("line", [
    "import threading",
    "self._lock = threading.Lock()",
    "from threading import Lock, RLock",
    "@functools.cached_property",
    "from functools import cached_property",
])
def test_pattern_sees_a_lazy_cache(line):
    # The pattern is live: it flags the lines of the lock-guarded Cholesky
    # cache and the cached properties the package once had.
    assert offending_lines([line]) == [line]
