"""Molecular vibronic transitions mapped to optical circuits.

A transition between two electronic surfaces, described by a Duschinsky
mixing matrix and the normal-mode frequencies of both surfaces, defines a
linear point transformation of the mass-weighted normal coordinates.  In
the optical analogy that transformation acts on vacuum as per-mode
squeezers followed by a passive interferometer; the photon-number
distribution of the resulting state is the table of Franck-Condon factors.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field

import numpy as np

from . import fock
from .decompositions import givens_rotations
from .gaussian import (
    BeamSplitter,
    Displace,
    Element,
    GaussianCircuit,
    GaussianState,
    Squeeze,
    replay,
)
from .tables import FCTable, is_sink

__all__ = [
    "VibronicTransition",
    "OpticalTarget",
    "Spectrum",
    "doktorov_decompose",
    "fc_factors",
    "spectrum",
    "gaussian_statistics",
]

#: frequencies closer than this (cm^-1) merge into one spectral peak
MERGE_TOL = 1e-9


@dataclass(frozen=True)
class VibronicTransition:
    """Duschinsky description of a vibronic transition.

    ``duschinsky`` mixes the mass-weighted normal coordinates of the two
    electronic surfaces; ``displacement`` is the dimensionless shift of the
    excited-surface coordinates (zero for many symmetric transitions).
    """

    duschinsky: np.ndarray
    ground_freqs: np.ndarray
    excited_freqs: np.ndarray
    displacement: np.ndarray | None = None

    def __post_init__(self) -> None:
        u = np.atleast_2d(np.asarray(self.duschinsky, dtype=float))
        m = u.shape[0]
        if u.shape != (m, m):
            raise ValueError("duschinsky matrix must be square")
        gf = np.asarray(self.ground_freqs, dtype=float).reshape(-1)
        ef = np.asarray(self.excited_freqs, dtype=float).reshape(-1)
        if gf.size != m or ef.size != m:
            raise ValueError("frequency vectors must match the mode count")
        if np.any(gf <= 0) or np.any(ef <= 0):
            raise ValueError("frequencies must be positive")
        disp = self.displacement
        disp = np.zeros(m) if disp is None else np.asarray(disp, dtype=float).reshape(-1)
        if disp.size != m:
            raise ValueError("displacement must match the mode count")
        if not all(np.all(np.isfinite(v)) for v in (u, gf, ef, disp)):
            raise ValueError("transition parameters must be finite")
        defect = np.max(np.abs(u.T @ u - np.eye(m)))
        if defect > 1e-3:
            raise ValueError(f"duschinsky matrix is not orthogonal (defect {defect:.2e})")
        if defect > 1e-6:
            warnings.warn(
                f"duschinsky matrix deviates from orthogonality by {defect:.2e}",
                stacklevel=2,
            )
        for name, val in (("duschinsky", u), ("ground_freqs", gf),
                          ("excited_freqs", ef), ("displacement", disp)):
            val.setflags(write=False)
            object.__setattr__(self, name, val)

    @property
    def num_modes(self) -> int:
        return self.duschinsky.shape[0]


@dataclass(frozen=True)
class OpticalTarget:
    """Optical recipe for an ideal state: squeezers, interferometer,
    displacement.

    ``squeeze[i]`` is the signed squeezing of mode ``i`` (positive squeezes
    the x quadrature).  ``interferometer`` holds passive elements only, so
    replaying the recipe on vacuum always yields a pure state.  The recipe's
    circuit is built, and so every value checked, on construction.
    """

    squeeze: tuple[float, ...]
    interferometer: tuple[Element, ...] = ()
    displacement: tuple[complex, ...] = ()

    def __post_init__(self) -> None:
        object.__setattr__(self, "squeeze", tuple(float(r) for r in self.squeeze))
        if not self.squeeze:
            raise ValueError("a target needs at least one mode")
        object.__setattr__(self, "interferometer", tuple(self.interferometer))
        disp = tuple(complex(a) for a in self.displacement) or (0j,) * len(self.squeeze)
        object.__setattr__(self, "displacement", disp)
        if len(disp) != len(self.squeeze):
            raise ValueError("displacement length must match mode count")
        for elem in self.interferometer:
            if not isinstance(elem, BeamSplitter):
                raise ValueError("interferometer may contain beam splitters only")
        elements: list[Element] = [Squeeze(i, r) for i, r in enumerate(self.squeeze) if r != 0.0]
        elements.extend(self.interferometer)
        elements.extend(Displace(i, a) for i, a in enumerate(disp) if a != 0)
        object.__setattr__(self, "_circuit", GaussianCircuit(self.num_modes, elements))

    @property
    def num_modes(self) -> int:
        return len(self.squeeze)

    def circuit(self) -> GaussianCircuit:
        """The recipe as a circuit, built on construction."""
        return self._circuit

    def state(self) -> GaussianState:
        """The replayed recipe, computed once per instance.  It and the
        circuit are kept outside the dataclass fields, so equality and
        hashing ignore them."""
        state = self.__dict__.get("_state")
        if state is None:
            state = replay(self.circuit())
            object.__setattr__(self, "_state", state)
        return state


@dataclass(frozen=True)
class Spectrum:
    """Stick spectrum: (frequency in cm^-1, intensity) pairs."""

    peaks: tuple[tuple[float, float], ...] = field(default_factory=tuple)


def doktorov_decompose(transition: VibronicTransition) -> OpticalTarget:
    """Factor the coordinate transformation of a transition into squeezers
    followed by a passive interferometer.

    The point transformation ``q' = L' U inv(L) q`` with ``L = diag(sqrt(w))``
    is split by singular-value decomposition; the right-hand rotation acts on
    vacuum and is dropped.
    """
    u = transition.duschinsky
    j = (
        np.diag(np.sqrt(transition.excited_freqs))
        @ u
        @ np.diag(1.0 / np.sqrt(transition.ground_freqs))
    )
    o1, sing, o2t = np.linalg.svd(j)
    if np.min(sing) < 1e-12:
        raise ValueError("singular coordinate transformation")
    rs = np.log(sing)
    if np.linalg.det(o1) < 0:
        # a reflection acts on zero-mean squeezed vacuum as a mode-local
        # pi rotation, which leaves the state invariant
        o1 = o1.copy()
        o1[:, -1] = -o1[:, -1]
    # Z scales x by exp(+r); Squeeze(r) scales x by exp(-r)
    squeeze = tuple(-float(r) for r in rs)
    interferometer = tuple(givens_rotations(o1))
    alphas = tuple(complex(d) / math.sqrt(2.0) for d in transition.displacement)
    return OpticalTarget(squeeze, interferometer, alphas)


def fc_factors(target: OpticalTarget, cutoff: int) -> FCTable:
    """Franck-Condon factors of a target state: probabilities of each
    photon-number outcome, computed on the truncated Fock oracle."""
    rho = fock.replay_fock(target.circuit(), cutoff)
    return fock.photon_distribution(rho)


def gaussian_statistics(state: GaussianState, cutoff: int) -> FCTable:
    """Photon-number distribution of a Gaussian state via normal-form
    synthesis; the cross-check path against direct circuit replay."""
    return fock.photon_distribution(fock.gaussian_to_fock(state, cutoff))


def spectrum(fc: FCTable, excited_freqs) -> Spectrum:
    """Place each outcome at frequency ``sum_i m_i * w_i`` and merge
    degenerate peaks."""
    freqs = np.asarray(excited_freqs, dtype=float).reshape(-1)
    raw: list[tuple[float, float]] = []
    for outcome, p in fc.entries.items():
        if is_sink(outcome):
            continue
        if len(outcome) != freqs.size:
            raise ValueError("frequency vector does not match outcome length")
        raw.append((float(np.dot(outcome, freqs)), p))
    raw.sort()
    peaks: list[tuple[float, float]] = []
    for f, p in raw:
        if peaks and abs(peaks[-1][0] - f) <= MERGE_TOL:
            peaks[-1] = (peaks[-1][0], peaks[-1][1] + p)
        else:
            peaks.append((f, p))
    return Spectrum(tuple(peaks))
