"""The benchmark under `perfbench/` calls into the package by attribute
chains such as `misfdr.rng.stream`, and the scripts under `scripts/` import
names such as `misfdr.simulation.run_sweep`; each must still resolve, so that
a change that drops a name from the package cannot break either unnoticed."""

import ast
import functools
import importlib
import re
from pathlib import Path

import pytest

import misfdr
import misfdr.cli  # noqa: F401 - the benchmark's workers import the CLI first

ROOT = Path(__file__).resolve().parent.parent
PERFBENCH = ROOT / "perfbench"
CHAIN = re.compile(r"\bmisfdr(?:\.[A-Za-z_]\w*)+")
CHAINS = sorted(
    {match.group() for path in PERFBENCH.glob("*.py") for match in CHAIN.finditer(path.read_text())}
)
SCRIPT_IMPORTS = sorted(
    {f"{node.module}.{alias.name}"
     for path in (ROOT / "scripts").glob("*.py")
     for node in ast.walk(ast.parse(path.read_text()))
     if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "misfdr"
     for alias in node.names}
)


def test_chains_found():
    assert "misfdr.law_unknown_var" in CHAINS


@pytest.mark.parametrize("chain", CHAINS)
def test_chain_resolves(chain):
    _, *names = chain.split(".")
    functools.reduce(getattr, names, misfdr)


def test_script_imports_found():
    assert {"misfdr.cli.main", "misfdr.simulation.run_sweep"} <= set(SCRIPT_IMPORTS)


@pytest.mark.parametrize("name", SCRIPT_IMPORTS)
def test_script_import_resolves(name):
    module, _, attr = name.rpartition(".")
    getattr(importlib.import_module(module), attr)
