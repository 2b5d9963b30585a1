import os
import tracemalloc

import numpy as np
import pytest

import qfock
from qfock import FockContext, build_space, reports
from qfock.reports import parse_spectrum

# The CLI tests run ``python -m qfock.cli`` in a subprocess: let it import the
# package these tests import, also when only pytest's ``pythonpath`` found it.
os.environ["PYTHONPATH"] = os.pathsep.join(
    filter(None, (os.path.dirname(os.path.dirname(qfock.__file__)),
                  os.environ.get("PYTHONPATH"))))

Q_GRID = (-0.9, -0.5, 0.0, 0.3, 0.5, 0.9)
SPECTRA = ("t1", "t2", "b2", "b2+t1")


@pytest.fixture(scope="session")
def rng():
    return np.random.default_rng(20240817)


@pytest.fixture(scope="session")
def space_b2t1():
    return build_space(parse_spectrum("b2+t1"))


@pytest.fixture(scope="session")
def space_t2():
    return build_space(parse_spectrum("t2"))


@pytest.fixture(scope="session")
def ctx_half(space_b2t1):
    return FockContext(space_b2t1, 0.5, 4)


@pytest.fixture(scope="session")
def ctx_free(space_t2):
    return FockContext(space_t2, 0.0, 4)


def make_ctx(spectrum, q, degree):
    return FockContext(build_space(parse_spectrum(spectrum)), q, degree)


def grid_point(spectrum, q, degree, channel=False):
    """The ``reports._Point`` that ``run_suite`` runs a row on at (spectrum, q)
    of a degree-``degree`` grid; a quantization row's (``channel``) is at
    ``reports.channel_degree``."""
    space = build_space(parse_spectrum(spectrum))
    if channel:
        degree = reports.channel_degree(2 * space.dim, degree)
    return reports._Point(space, q, degree)


def allocation_peak(call) -> float:
    """Peak of the memory traced while ``call()`` runs, in MiB."""
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1] / 2**20
    finally:
        tracemalloc.stop()
