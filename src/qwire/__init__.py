"""Spectra and dynamics of 1D Schrodinger operators under unitary boundary conditions."""

from . import bc, curves, domain, edge, expr, odesolve, oracle, spectral  # noqa: F401

__all__ = ["bc", "cli", "curves", "domain", "edge", "expr", "odesolve", "oracle", "spectral"]
__version__ = "0.1.0"


def __getattr__(name: str):
    # cli loads on first use: imported here eagerly, ``python -m qwire.cli``
    # would find it in sys.modules before running it as __main__
    if name == "cli":
        import importlib

        return importlib.import_module(f"{__name__}.cli")
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
