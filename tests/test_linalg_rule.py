"""Every factorization, inverse and solve in the package goes through
`misfdr.linalg`: no other module calls a dense solver or inverse itself."""

import re
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "misfdr"

FORBIDDEN = re.compile(
    r"np\.linalg\.(inv|pinv|solve|cholesky)\b"
    r"|scipy\.linalg\.(inv|solve|cholesky)"
    r"|\b(lstsq|solve_triangular|cho_factor|cho_solve)\b"
    r"|\bscipy\.linalg\.(lapack|blas)\b"
)


def offending_lines(path: Path) -> list[str]:
    return [
        f"{path.name}:{number}: {line.strip()}"
        for number, line in enumerate(path.read_text().splitlines(), start=1)
        if FORBIDDEN.search(line)
    ]


def test_dense_algebra_only_in_linalg():
    modules = sorted(PACKAGE.glob("*.py"))
    assert len(modules) > 1
    found = [hit for path in modules if path.name != "linalg.py" for hit in offending_lines(path)]
    assert found == []


def test_pattern_sees_linalg_itself():
    # The pattern is live: it flags the calls that linalg.py is there to make.
    assert offending_lines(PACKAGE / "linalg.py")


def test_no_numpy_linalg_in_the_package():
    # One LAPACK build, scipy's, factors and inverts: the package calls
    # nothing in numpy.linalg, linalg.py included.
    calls = re.compile(r"\bnp\.linalg\.")
    found = [f"{path.name}:{number}"
             for path in sorted(PACKAGE.glob("*.py"))
             for number, line in enumerate(path.read_text().splitlines(), start=1)
             if calls.search(line)]
    assert found == []
