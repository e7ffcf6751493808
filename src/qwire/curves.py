"""Winding indices of closed curves of unitary boundary conditions.

A closed loop theta -> U(theta) in U(2n) carries two integer invariants: the
winding number of its determinant around U(1), and the signed count of
eigenvalue crossings through -1 (each crossing changes the dimension of the
eigenspace at -1, the degeneracy that obstructs the Robin reduction).  The two
invariants coincide for every closed loop; both are computed here from a
continuous lifting of the eigenvalue angles, each sample's angles assigned to
the previous sample's by the assignment of least total angular step.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.optimize import linear_sum_assignment

from .bc import _unitary_stack

__all__ = [
    "UnitaryCurve",
    "EigenangleFlow",
    "ResolutionError",
    "eigenangle_flow",
    "cayley_index",
    "det_winding",
]

_MAX_STEP = math.pi / 4


class ResolutionError(Exception):
    """Consecutive samples are too far apart for unambiguous eigenangle matching."""


@dataclass(frozen=True)
class UnitaryCurve:
    """Sampled closed path (theta_j, U_j) with theta from 0 to 2*pi and U_m = U_0."""

    thetas: np.ndarray
    matrices: tuple[np.ndarray, ...]

    def __init__(self, thetas, matrices):
        thetas = np.asarray(thetas, dtype=float)
        mats = tuple(np.asarray(m, dtype=complex) for m in matrices)
        if len(mats) != len(thetas):
            raise ValueError("one matrix per theta sample required")
        if len(mats) < 2:
            raise ValueError("a curve needs at least two samples")
        if not (abs(thetas[0]) <= 1e-12 and abs(thetas[-1] - 2 * math.pi) <= 1e-12):
            raise ValueError("theta must run from 0 to 2*pi")
        if not np.all(np.diff(thetas) > 0):  # NaN fails here or above
            raise ValueError("theta samples must be strictly increasing")
        if np.linalg.norm(mats[-1] - mats[0]) > 1e-10:
            raise ValueError("curve is not closed: U(2*pi) != U(0)")
        _unitary_stack(mats)
        object.__setattr__(self, "thetas", thetas)
        object.__setattr__(self, "matrices", mats)

    @classmethod
    def from_function(cls, f, samples: int = 256) -> "UnitaryCurve":
        thetas = np.linspace(0.0, 2 * math.pi, samples + 1)
        return cls(thetas, [f(t) for t in thetas])

    @property
    def dim(self) -> int:
        return self.matrices[0].shape[0]


@dataclass(frozen=True)
class EigenangleFlow:
    """Continuously lifted eigenvalue angles; ``tracks`` has shape (samples, dim)."""

    thetas: np.ndarray
    tracks: np.ndarray

    @property
    def windings(self) -> np.ndarray:
        """Per-track winding numbers (track_k(2*pi) - track_k(0)) / (2*pi).

        Individually meaningful only when no crossing exchanged track
        identities; their sum always equals the determinant winding.
        """
        turns = (self.tracks[-1] - self.tracks[0]) / (2 * math.pi)
        return np.rint(turns).astype(int)


def eigenangle_flow(curve: UnitaryCurve) -> EigenangleFlow:
    """Lift the eigenvalue angles of the curve to continuous tracks.

    Each sample's angles are assigned to the previous sample's tracks by the
    assignment of least total wrapped step (:func:`_match`); any assigned
    step larger than pi/4 raises :class:`ResolutionError` (refine the sampling).
    """
    angles = np.angle(np.linalg.eigvals(np.array(curve.matrices)))
    tracks = np.empty_like(angles)
    tracks[0] = np.sort(angles[0])
    for j in range(1, len(tracks)):
        step = _match(tracks[j - 1], angles[j])
        worst = np.max(np.abs(step))
        if worst > _MAX_STEP:
            raise ResolutionError(
                f"eigenangle step {worst:.3f} exceeds pi/4; refine the curve sampling"
            )
        tracks[j] = tracks[j - 1] + step
    # Multiset closure: eigenvalue crossings may exchange track identities,
    # which leaves every index invariant, so only the unordered collection of
    # angles must return to its start modulo 2*pi.
    if np.max(np.abs(_match(tracks[-1], tracks[0]))) > 1e-6:
        raise ResolutionError("tracks fail to close up to multiples of 2*pi")
    return EigenangleFlow(thetas=curve.thetas, tracks=tracks)


def _match(prev: np.ndarray, angles: np.ndarray) -> np.ndarray:
    """Steps in (-pi, pi] from each previous track to its assigned angle,
    the linear assignment of least total |step| (Kuhn's Hungarian method)."""
    step = np.angle(np.exp(1j * (angles[np.newaxis, :] - prev[:, np.newaxis])))
    rows, cols = linear_sum_assignment(np.abs(step))
    return step[rows, cols]


def cayley_index(curve: UnitaryCurve) -> int:
    """Signed count of eigenvalue crossings through -1 over one loop.

    Ascending (anticlockwise) crossings count +1, descending -1, using the
    lifted tracks so eigenvalue collisions away from -1 are harmless.  Raises
    on a sample within 1e-10 of angle pi, on either side (perturb the theta
    grid).
    """
    tracks = eigenangle_flow(curve).tracks
    if np.min(np.abs(tracks % (2 * math.pi) - math.pi)) < 1e-10:
        raise ResolutionError("an eigenvalue lies within 1e-10 of -1 on a sample")
    levels = np.floor((tracks - math.pi) / (2 * math.pi))
    return int(np.sum(levels[-1] - levels[0]))


def det_winding(curve: UnitaryCurve) -> int:
    """Winding number of theta -> det U(theta), by accumulated argument.

    Per-step argument changes are taken in (-pi, pi]; a step of pi or more
    raises :class:`ResolutionError`.
    """
    dets = np.linalg.det(np.array(curve.matrices))
    steps = np.angle(dets[1:] / dets[:-1])
    if np.max(np.abs(steps)) >= math.pi - 1e-12:
        raise ResolutionError("determinant argument step >= pi; refine the sampling")
    return int(round(np.sum(steps) / (2 * math.pi)))
