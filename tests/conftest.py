import time
from pathlib import Path

import pytest

# helpers and property_suites are plain modules, not test modules: without
# this their asserts are not rewritten and ``python -O`` strips them
pytest.register_assert_rewrite("property_suites", "helpers")

from curvelift import certify, implicitize_all, validate_branch
from curvelift.cli import branch_from_file, load_curve

CORPUS = Path(__file__).resolve().parent.parent / "corpus"


@pytest.fixture(scope="session")
def cusp():
    return validate_branch(2, {3: 1})


@pytest.fixture(scope="session")
def branch12():
    """k = 12, exponents 18, 20, 23: lambdas (3/2, 5/3, 23/12)."""
    return validate_branch(12, {18: 1, 20: 1, 23: 1})


@pytest.fixture(scope="session")
def branch6():
    """k = 6, exponents 9, 15, 16, 20: lambdas (3/2, 8/3), two tails."""
    return validate_branch(6, {9: 1, 15: 1, 16: 1, 20: 1})


@pytest.fixture(scope="session")
def branch6_tails():
    """Same shape with non-unit tail coefficients."""
    return validate_branch(6, {9: 1, 15: 2, 16: 1, 20: 5})


@pytest.fixture(scope="session")
def chain12(branch12):
    return implicitize_all(branch12, verify=True)


@pytest.fixture(scope="session")
def corpus_files():
    files = sorted(CORPUS.glob("*.curve"))
    assert len(files) >= 10, "acceptance corpus must hold at least 10 branches"
    return files


@pytest.fixture(scope="session")
def corpus_chains(corpus_files):
    """name -> (branch, certified chain, wall seconds); computed once."""
    out = {}
    for path in corpus_files:
        cf = load_curve(path)
        branch = branch_from_file(cf)
        t0 = time.perf_counter()
        chain = implicitize_all(branch, verify=False)
        chain = certify(chain)
        out[cf.name] = (branch, chain, time.perf_counter() - t0)
    return out
