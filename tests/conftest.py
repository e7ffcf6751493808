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


class Call(tuple):
    """One call's positional arguments, with its keyword arguments as
    ``kwargs``; array arguments are copies taken at the call."""

    def __new__(cls, args, kwargs):
        call = super().__new__(cls, (_snapshot(a) for a in args))
        call.kwargs = {k: _snapshot(v) for k, v in kwargs.items()}
        return call


def _snapshot(value):
    return np.array(value) if isinstance(value, np.ndarray) else value


def count_calls(monkeypatch, owner, name: str) -> list:
    """Wrap ``owner.name`` (a module function or a method) for the test and
    return the list that each call appends its :class:`Call` to, made before
    the call runs, so a caller that later changes an array in place does
    not change what was recorded."""
    calls, f = [], getattr(owner, name)

    def recording(*args, **kwargs):
        calls.append(Call(args, kwargs))
        return f(*args, **kwargs)

    monkeypatch.setattr(owner, name, recording)
    return calls
