import os
from pathlib import Path

import numpy as np
import pytest

from certunlearn import NoiseSchedule, ProblemConstants, Regime, get_preset

# pyproject's `pythonpath` puts src/ on this process's path only; the CLI
# tests' subprocesses find the package through PYTHONPATH
os.environ["PYTHONPATH"] = os.pathsep.join(
    filter(None, (str(Path(__file__).resolve().parents[1] / "src"),
                  os.environ.get("PYTHONPATH"))))


@pytest.fixture(scope="session")
def mnist():
    return get_preset("mnist38")


@pytest.fixture(scope="session")
def cifar_bin():
    return get_preset("cifar10-binary")


@pytest.fixture(scope="session")
def cifar_multi():
    return get_preset("cifar10-multi")


@pytest.fixture
def small_ball_pc():
    """Constants with a ball small enough that the LSI cap stays finite."""
    return ProblemConstants(L=1.0, m=0.0, M=1.0, R=2.9, n=100, d=5)


@pytest.fixture
def sc_setup():
    """A strongly convex bundle with a valid schedule."""
    pc = ProblemConstants(L=1.0, m=0.25, M=1.0, R=10.0, n=500, d=4, lam=0.25)
    ns = NoiseSchedule(eta=1.0, sigma=1.0, T=np.inf, K=5)
    return pc, ns, Regime.STRONGLY_CONVEX
