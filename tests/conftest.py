import os
import sys

import numpy as np
import pytest

# The package from a bare checkout: in-process imports read sys.path, and
# the `python -m qmemsim` subprocesses of the tests inherit PYTHONPATH.
_SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
sys.path.insert(0, _SRC)
os.environ["PYTHONPATH"] = os.pathsep.join(filter(None, [_SRC, os.environ.get("PYTHONPATH")]))

# tests/test_acceptance.py, which stays as written, imports these four
# references from the module named conftest; every other test module
# imports them from reference_impl.
from reference_impl import apply_kraus, chi_from_kraus, random_cptp_kraus, random_density  # noqa: F401

_THIS_CONFTEST = sys.modules[__name__]


def pytest_pycollect_makemodule(module_path, parent):
    # A run that also collects bench/tests loads that directory's conftest
    # under the same name; restore this one before a module here imports it.
    sys.modules[__name__] = _THIS_CONFTEST


@pytest.fixture
def rng():
    return np.random.default_rng(20260823)
