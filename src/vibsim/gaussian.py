"""Phase-space representation of multimode Gaussian states.

Conventions used throughout the package:

* quadrature ordering ``(x_1 ... x_M, p_1 ... p_M)`` with ``hbar = 1``,
* the vacuum covariance matrix is ``I/2``,
* a beam splitter of mixing angle ``theta`` has amplitude transmission
  ``cos(theta)`` (intensity transmission ``cos(theta)**2``),
* ``Squeeze(r)`` at phase 0 scales ``x`` by ``exp(-r)`` and ``p`` by
  ``exp(+r)``.

States are immutable; every operation returns a new state.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "PhysicalityError",
    "Squeeze",
    "BeamSplitter",
    "TwoModeSqueeze",
    "Displace",
    "Loss",
    "ThermalMix",
    "GaussianCircuit",
    "GaussianState",
    "vacuum",
    "apply",
    "replay",
    "mean_photon",
    "total_mean_photon",
    "symplectic_eigenvalues",
    "fidelity",
    "symplectic_form",
]

#: tolerance below 1/2 at which a symplectic eigenvalue is deemed unphysical
PHYSICALITY_TOL = 1e-9

#: symplectic eigenvalues within this distance of 1/2 are treated as pure.
#: Fidelities move by about the square root of that distance, so the switch
#: between the pure and the mixed formula jumps by about 1e-6; the rounding
#: of pure states squeezed up to r ~ 1.5 stays below it.
_PURITY_TOL = 1e-12


class PhysicalityError(ValueError):
    """Raised when a covariance matrix violates the uncertainty bound."""


# ---------------------------------------------------------------------------
# circuit elements
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Squeeze:
    """Single-mode squeezer; ``r >= 0`` squeezes x at ``phase = 0``."""

    mode: int
    r: float
    phase: float = 0.0


@dataclass(frozen=True)
class BeamSplitter:
    """Two-mode mixer with amplitude transmission ``cos(theta)``."""

    mode1: int
    mode2: int
    theta: float
    phase: float = 0.0


@dataclass(frozen=True)
class TwoModeSqueeze:
    mode1: int
    mode2: int
    r: float


@dataclass(frozen=True)
class Displace:
    """Displacement by complex amplitude ``alpha`` (mean photons ``|alpha|^2``)."""

    mode: int
    alpha: complex


@dataclass(frozen=True)
class Loss:
    """Pure-loss channel with intensity transmission ``transmission``."""

    mode: int
    transmission: float


@dataclass(frozen=True)
class ThermalMix:
    """Mix the mode with a thermal state of ``mean_photons`` on a virtual
    beam splitter of intensity reflectivity ``reflectivity``."""

    mode: int
    reflectivity: float
    mean_photons: float


Element = Squeeze | BeamSplitter | TwoModeSqueeze | Displace | Loss | ThermalMix

_UNITARY_KINDS = (Squeeze, BeamSplitter, TwoModeSqueeze, Displace)


def _element_modes(elem: Element) -> tuple[int, ...]:
    if isinstance(elem, (BeamSplitter, TwoModeSqueeze)):
        return (elem.mode1, elem.mode2)
    return (elem.mode,)


def _validate_element(elem: Element, num_modes: int) -> None:
    modes = _element_modes(elem)
    for m in modes:
        if not 0 <= m < num_modes:
            raise ValueError(f"mode index {m} out of range for {num_modes} modes")
    if len(set(modes)) != len(modes):
        raise ValueError(f"element acts twice on the same mode: {elem}")
    if isinstance(elem, (Squeeze, TwoModeSqueeze)) and not math.isfinite(elem.r):
        raise ValueError(f"non-finite squeezing parameter in {elem}")
    if isinstance(elem, Loss) and not 0.0 <= elem.transmission <= 1.0:
        raise ValueError(f"transmission must lie in [0, 1], got {elem.transmission}")
    if isinstance(elem, ThermalMix):
        if not 0.0 <= elem.reflectivity <= 1.0:
            raise ValueError(f"reflectivity must lie in [0, 1], got {elem.reflectivity}")
        if elem.mean_photons < 0:
            raise ValueError(f"mean_photons must be >= 0, got {elem.mean_photons}")


@dataclass(frozen=True)
class GaussianCircuit:
    """Ordered list of Gaussian elements acting on ``num_modes`` modes.

    The same circuit can be replayed on the phase-space engine (:func:`replay`)
    or on the truncated Fock simulator (:func:`vibsim.fock.replay_fock`).
    """

    num_modes: int
    elements: tuple[Element, ...] = field(default_factory=tuple)

    def __post_init__(self) -> None:
        if self.num_modes < 1:
            raise ValueError("a circuit needs at least one mode")
        object.__setattr__(self, "elements", tuple(self.elements))
        for elem in self.elements:
            _validate_element(elem, self.num_modes)

    def extended(self, *elements: Element) -> "GaussianCircuit":
        return GaussianCircuit(self.num_modes, self.elements + tuple(elements))


# ---------------------------------------------------------------------------
# states
# ---------------------------------------------------------------------------


def symplectic_form(num_modes: int) -> np.ndarray:
    """Symplectic form Omega = [[0, I], [-I, 0]] in xxpp ordering."""
    eye = np.eye(num_modes)
    omega = np.zeros((2 * num_modes, 2 * num_modes))
    omega[:num_modes, num_modes:] = eye
    omega[num_modes:, :num_modes] = -eye
    return omega


class GaussianState:
    """Mean vector and covariance matrix of ``num_modes`` optical modes.

    The covariance matrix is symmetrized on construction and checked for
    physicality (all symplectic eigenvalues >= 1/2 within tolerance).  The
    eigenvalues that check computes are kept for
    :func:`symplectic_eigenvalues`; a state built with ``validate=False``
    computes them on first use.  Instances are immutable.
    """

    __slots__ = ("num_modes", "mean", "cov", "_nu")

    def __init__(self, mean: np.ndarray, cov: np.ndarray, *, validate: bool = True):
        mean = np.asarray(mean, dtype=float).reshape(-1).copy()
        cov = np.asarray(cov, dtype=float).copy()
        if mean.size % 2 != 0:
            raise ValueError("mean vector length must be 2*num_modes")
        num_modes = mean.size // 2
        if cov.shape != (2 * num_modes, 2 * num_modes):
            raise ValueError(
                f"covariance shape {cov.shape} does not match mean of length {mean.size}"
            )
        asym = np.max(np.abs(cov - cov.T)) if cov.size else 0.0
        if asym > 1e-8:
            raise ValueError(f"covariance is not symmetric (max asymmetry {asym:.2e})")
        cov = 0.5 * (cov + cov.T)
        nu = None
        if validate:
            nu = _symplectic_eigenvalues(cov)
            nu_min = float(nu.min())
            if nu_min < 0.5 - PHYSICALITY_TOL:
                raise PhysicalityError(
                    f"unphysical covariance: smallest symplectic eigenvalue {nu_min!r} < 1/2"
                )
        mean.setflags(write=False)
        cov.setflags(write=False)
        object.__setattr__(self, "num_modes", num_modes)
        object.__setattr__(self, "mean", mean)
        object.__setattr__(self, "cov", cov)
        object.__setattr__(self, "_nu", nu)

    def __setattr__(self, name, value):  # pragma: no cover - guard rail
        raise AttributeError("GaussianState is immutable")

    def __reduce__(self):
        # pickle and copy rebuild through __init__, which __setattr__ leaves open
        return GaussianState, (self.mean, self.cov)

    def __repr__(self) -> str:
        return f"GaussianState(num_modes={self.num_modes})"

    def is_pure(self, tol: float = 1e-6) -> bool:
        return bool(np.max(symplectic_eigenvalues(self)) < 0.5 + tol)

    def mode_indices(self, mode: int) -> tuple[int, int]:
        """Indices of (x, p) of ``mode`` inside mean/cov."""
        if not 0 <= mode < self.num_modes:
            raise ValueError(f"mode {mode} out of range")
        return mode, mode + self.num_modes


def vacuum(num_modes: int) -> GaussianState:
    """M-mode vacuum: zero mean, covariance I/2."""
    if num_modes < 1:
        raise ValueError("need at least one mode")
    return GaussianState(
        np.zeros(2 * num_modes), 0.5 * np.eye(2 * num_modes), validate=False
    )


# ---------------------------------------------------------------------------
# element actions
# ---------------------------------------------------------------------------


def _embed_passive(w: np.ndarray, modes: tuple[int, ...], num_modes: int) -> np.ndarray:
    """Expand a small complex mode-mixing matrix to the full mode space."""
    full = np.eye(num_modes, dtype=complex)
    idx = np.array(modes)
    full[np.ix_(idx, idx)] = w
    return full


def passive_symplectic(w: np.ndarray) -> np.ndarray:
    """Symplectic matrix (xxpp) of the passive transformation a -> W a."""
    re, im = w.real, w.imag
    return np.block([[re, -im], [im, re]])


def element_symplectic(elem: Element, num_modes: int) -> tuple[np.ndarray, np.ndarray]:
    """Return (S, d): quadratures transform as z -> S z + d.

    Only defined for unitary elements; Loss/ThermalMix are channels and are
    handled separately in :func:`apply`.
    """
    _validate_element(elem, num_modes)
    return _symplectic(elem, num_modes)


def _symplectic(elem: Element, n: int) -> tuple[np.ndarray, np.ndarray]:
    """:func:`element_symplectic` of an element already validated for ``n`` modes."""
    s = np.eye(2 * n)
    d = np.zeros(2 * n)
    if isinstance(elem, Squeeze):
        ch, sh = math.cosh(elem.r), math.sinh(elem.r)
        c, sn = math.cos(elem.phase), math.sin(elem.phase)
        block = np.array([[ch - sh * c, -sh * sn], [-sh * sn, ch + sh * c]])
        ix, ip = elem.mode, elem.mode + n
        s[np.ix_([ix, ip], [ix, ip])] = block
    elif isinstance(elem, BeamSplitter):
        ct, st = math.cos(elem.theta), math.sin(elem.theta)
        ph = np.exp(1j * elem.phase)
        w = np.array([[ct, st * ph], [-st * np.conj(ph), ct]])
        s = passive_symplectic(_embed_passive(w, (elem.mode1, elem.mode2), n))
    elif isinstance(elem, TwoModeSqueeze):
        ch, sh = math.cosh(elem.r), math.sinh(elem.r)
        i, j = elem.mode1, elem.mode2
        xs = np.array([[ch, sh], [sh, ch]])
        ps = np.array([[ch, -sh], [-sh, ch]])
        s[np.ix_([i, j], [i, j])] = xs
        s[np.ix_([i + n, j + n], [i + n, j + n])] = ps
    elif isinstance(elem, Displace):
        d[elem.mode] = math.sqrt(2.0) * elem.alpha.real
        d[elem.mode + n] = math.sqrt(2.0) * elem.alpha.imag
    else:
        raise TypeError(f"{type(elem).__name__} is not a unitary element")
    return s, d


def _step(
    mean: np.ndarray, cov: np.ndarray, elem: Element, n: int
) -> tuple[np.ndarray, np.ndarray]:
    """One validated element on (mean, cov) arrays, the covariance
    symmetrized as :class:`GaussianState` does; no physicality check."""
    if isinstance(elem, _UNITARY_KINDS):
        s, d = _symplectic(elem, n)
        mean, cov = s @ mean + d, s @ cov @ s.T
    else:
        # Loss / ThermalMix: contract the mode and add diagonal noise.
        if isinstance(elem, Loss):
            g = math.sqrt(elem.transmission)
            extra = 0.5 * (1.0 - elem.transmission)
        else:
            g = math.sqrt(1.0 - elem.reflectivity)
            extra = elem.reflectivity * (elem.mean_photons + 0.5)
        ix, ip = elem.mode, elem.mode + n
        scale = np.ones(2 * n)
        scale[[ix, ip]] = g
        cov = cov * np.outer(scale, scale)
        cov[ix, ix] += extra
        cov[ip, ip] += extra
        mean = mean * scale
    return mean, 0.5 * (cov + cov.T)


def apply(state: GaussianState, elem: Element) -> GaussianState:
    """Apply one circuit element to a state."""
    _validate_element(elem, state.num_modes)
    return GaussianState(*_step(state.mean, state.cov, elem, state.num_modes))


def replay(circuit: GaussianCircuit) -> GaussianState:
    """Fold the circuit over the vacuum.

    The elements were validated when the circuit was built, and only the
    final state is checked for physicality: every element maps physical
    states to physical states.
    """
    n = circuit.num_modes
    mean, cov = np.zeros(2 * n), 0.5 * np.eye(2 * n)
    for elem in circuit.elements:
        mean, cov = _step(mean, cov, elem, n)
    return GaussianState(mean, cov)


# ---------------------------------------------------------------------------
# observables
# ---------------------------------------------------------------------------


def mean_photon(state: GaussianState, mode: int) -> float:
    """Mean photon number of one mode."""
    ix, ip = state.mode_indices(mode)
    quad = state.cov[ix, ix] + state.cov[ip, ip]
    disp = state.mean[ix] ** 2 + state.mean[ip] ** 2
    return float(0.5 * (quad - 1.0) + 0.5 * disp)


def total_mean_photon(state: GaussianState) -> float:
    return sum(mean_photon(state, m) for m in range(state.num_modes))


def _symplectic_eigenvalues(cov: np.ndarray) -> np.ndarray:
    num_modes = cov.shape[0] // 2
    omega = symplectic_form(num_modes)
    eigs = np.linalg.eigvals(1j * omega @ cov)
    nu = np.sort(np.abs(eigs))[::2]
    nu.setflags(write=False)
    return nu


def symplectic_eigenvalues(state: GaussianState) -> np.ndarray:
    """Williamson symplectic eigenvalues, ascending (vacuum -> 1/2 each),
    as a read-only array kept on the state."""
    nu = state._nu
    if nu is None:
        nu = _symplectic_eigenvalues(state.cov)
        object.__setattr__(state, "_nu", nu)
    return nu


# ---------------------------------------------------------------------------
# fidelity
# ---------------------------------------------------------------------------


def _overlap_trace(s1: GaussianState, s2: GaussianState) -> float:
    """Tr(rho1 rho2) for two Gaussian states."""
    vsum = s1.cov + s2.cov
    delta = s1.mean - s2.mean
    expo = -0.5 * delta @ np.linalg.solve(vsum, delta)
    det = np.linalg.det(vsum)
    return float(np.exp(expo) / math.sqrt(det))


def fidelity(s1: GaussianState, s2: GaussianState) -> float:
    """Uhlmann fidelity F = Tr sqrt(sqrt(rho1) rho2 sqrt(rho1)) of two
    Gaussian states (non-squared convention: F = |<psi1|psi2>| for pure
    states).

    Uses the closed form of Banchi, Braunstein and Pirandola,
    Phys. Rev. Lett. 115, 260501 (2015) for mixed pairs, and the Gaussian
    overlap formula when either state is pure.
    """
    if s1.num_modes != s2.num_modes:
        raise ValueError("states must have the same number of modes")
    nus = [symplectic_eigenvalues(s) for s in (s1, s2)]
    for nu in nus:
        if nu[0] < 0.5 - PHYSICALITY_TOL:
            raise PhysicalityError(f"fidelity input is unphysical (nu_min = {float(nu[0])!r})")
    if min(nu[-1] for nu in nus) < 0.5 + _PURITY_TOL:
        # F^2 = Tr(rho1 rho2) whenever at least one state is pure.
        return min(1.0, math.sqrt(max(0.0, _overlap_trace(s1, s2))))

    n = s1.num_modes
    omega = symplectic_form(n)
    v1, v2 = s1.cov, s2.cov
    delta = s1.mean - s2.mean
    vsum_inv = np.linalg.inv(v1 + v2)
    vaux = omega.T @ vsum_inv @ (0.25 * omega + v2 @ omega @ v1)
    w = vaux @ omega
    inner = np.eye(2 * n) + 0.25 * np.linalg.inv(w @ w)
    # det(sqrt(inner) + I) as a product over the eigenvalues of `inner`:
    # no matrix square root, which is unreliable where a pure mode of
    # either state makes `inner` singular
    mu = np.linalg.eigvals(inner) + 0j
    ftot4 = np.prod(1.0 + np.sqrt(mu)).real * np.linalg.det(2.0 * vaux)
    f0 = (ftot4 / np.linalg.det(v1 + v2)) ** 0.25
    expo = math.exp(-0.25 * delta @ vsum_inv @ delta)
    return float(min(1.0, max(0.0, f0 * expo)))
