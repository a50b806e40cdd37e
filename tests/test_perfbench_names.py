"""The benchmark under `perfbench/` calls into the package by attribute
chains such as `misfdr.rng.stream`; each must still resolve, so that a change
that drops a name from the package cannot break the benchmark unnoticed."""

import functools
import re
from pathlib import Path

import pytest

import misfdr
import misfdr.cli  # noqa: F401 - the benchmark's workers import the CLI first

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
CHAIN = re.compile(r"\bmisfdr(?:\.[A-Za-z_]\w*)+")
CHAINS = sorted(
    {match.group() for path in PERFBENCH.glob("*.py") for match in CHAIN.finditer(path.read_text())}
)


def test_chains_found():
    assert "misfdr.law_unknown_var" in CHAINS


@pytest.mark.parametrize("chain", CHAINS)
def test_chain_resolves(chain):
    _, *names = chain.split(".")
    functools.reduce(getattr, names, misfdr)
