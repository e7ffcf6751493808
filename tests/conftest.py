"""Shared fixtures and helpers for the qwire test suite."""

import math
import os
from pathlib import Path

import numpy as np
import pytest

from qwire.domain import Interval, QuantumDomain

# Subprocesses (the console script, the demos) import qwire from this checkout.
SRC = str(Path(__file__).resolve().parent.parent / "src")
os.environ["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))


@pytest.fixture
def free_2pi() -> QuantumDomain:
    """Single free interval [0, 2*pi] with trivial metric and zero potential."""
    return QuantumDomain([Interval(0.0, 2.0 * math.pi, "1", "0")])


@pytest.fixture
def free_pi() -> QuantumDomain:
    return QuantumDomain([Interval(0.0, math.pi, "1", "0")])


def random_hermitian(m: int, rng: np.random.Generator, scale: float = 1.0) -> np.ndarray:
    Z = rng.normal(size=(m, m)) + 1j * rng.normal(size=(m, m))
    return scale * 0.5 * (Z + Z.conj().T)
