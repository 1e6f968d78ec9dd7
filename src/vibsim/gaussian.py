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

import cmath
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
    "stacked_fidelity",
    "mean_photon",
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

#: largest squeezing magnitude |r| a squeezer or a source may have: below it
#: sinh(r)**2, cosh(2r) and a lone squeezer's covariance stay finite (cosh(2r)
#: overflows from r = 355.3)
MAX_SQUEEZING = 350.0


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
    if isinstance(elem, (Squeeze, TwoModeSqueeze)) and abs(elem.r) > MAX_SQUEEZING:
        raise ValueError(f"squeezing parameter above {MAX_SQUEEZING:g} in magnitude in {elem}")
    if isinstance(elem, BeamSplitter) and not math.isfinite(elem.theta):
        raise ValueError(f"non-finite mixing angle in {elem}")
    if isinstance(elem, (Squeeze, BeamSplitter)) and not math.isfinite(elem.phase):
        raise ValueError(f"non-finite phase in {elem}")
    if isinstance(elem, Displace) and not cmath.isfinite(elem.alpha):
        raise ValueError(f"non-finite displacement in {elem}")
    if isinstance(elem, Loss) and not 0.0 <= elem.transmission <= 1.0:
        raise ValueError(f"transmission must lie in [0, 1], got {elem.transmission}")
    if isinstance(elem, ThermalMix):
        if not 0.0 <= elem.reflectivity <= 1.0:
            raise ValueError(f"reflectivity must lie in [0, 1], got {elem.reflectivity}")
        if not 0 <= elem.mean_photons < math.inf:
            raise ValueError(f"mean_photons must be finite and >= 0, got {elem.mean_photons}")


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


#: :func:`_forms` of each mode count, built on first use
_FORMS: dict[int, tuple[np.ndarray, np.ndarray]] = {}


def _forms(num_modes: int) -> tuple[np.ndarray, np.ndarray]:
    """The identity and :func:`symplectic_form` of ``num_modes`` modes, read-only,
    built once for every stack that reads them."""
    if num_modes not in _FORMS:
        forms = _FORMS[num_modes] = np.eye(2 * num_modes), symplectic_form(num_modes)
        for form in forms:
            form.setflags(write=False)
    return _FORMS[num_modes]


class GaussianState:
    """Mean vector and covariance matrix of ``num_modes`` optical modes.

    The covariance matrix is symmetrized on construction and checked for
    physicality (all symplectic eigenvalues >= 1/2 within tolerance).  The
    eigenvalues that check computes are kept for
    :func:`symplectic_eigenvalues`.  Instances are immutable.
    """

    __slots__ = ("num_modes", "mean", "cov", "_nu")

    def __init__(self, mean: np.ndarray, cov: np.ndarray):
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
        nu = _symplectic_eigenvalues(cov[None])[0]
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


def vacuum(num_modes: int) -> GaussianState:
    """M-mode vacuum: zero mean, covariance I/2."""
    if num_modes < 1:
        raise ValueError("need at least one mode")
    return GaussianState(np.zeros(2 * num_modes), 0.5 * np.eye(2 * num_modes))


# ---------------------------------------------------------------------------
# element actions
# ---------------------------------------------------------------------------


def passive_symplectic(w: np.ndarray) -> np.ndarray:
    """Symplectic matrix (xxpp) of the passive transformation a -> W a, one
    for each matrix of a stack of W on the leading axes."""
    re, im = w.real, w.imag
    return np.concatenate([np.concatenate([re, -im], -1), np.concatenate([im, re], -1)], -2)


def _each(fn, value):
    """``fn`` of a shared value, or the array of ``fn`` of each entry of a
    column: a stack's scalars come from ``math`` and ``cmath`` one entry at a
    time (numpy's vector ``cosh`` and ``sinh`` round differently)."""
    return np.array([fn(x) for x in value.tolist()]) if isinstance(value, np.ndarray) else fn(value)


def _anywhere(flags) -> bool:
    """Whether a comparison of a shared value, or of any entry of a column, holds."""
    return bool(flags.any() if isinstance(flags, np.ndarray) else flags)


def _symplectic(elem: Element, n: int, count: int) -> tuple[np.ndarray, np.ndarray]:
    """Return the (S, d) stacks, of shapes (count, 2n, 2n) and (count, 2n),
    of an element validated for ``n`` modes whose numeric fields hold one
    value for the stack or a column of one per model: quadratures transform
    as z -> S z + d.  Only defined for unitary elements; Loss/ThermalMix are
    channels, handled in :func:`_step`.
    """
    s = np.empty((count, 2 * n, 2 * n))
    s[...] = _forms(n)[0]
    d = np.zeros((count, 2 * n))
    if isinstance(elem, Squeeze):
        ix, ip = elem.mode, elem.mode + n
        ch, sh = _each(math.cosh, elem.r), _each(math.sinh, elem.r)
        c, sn = _each(math.cos, elem.phase), _each(math.sin, elem.phase)
        s[:, ix, ix], s[:, ip, ip] = ch - sh * c, ch + sh * c
        s[:, ix, ip] = s[:, ip, ix] = -sh * sn
    elif isinstance(elem, BeamSplitter):
        # as passive_symplectic of W embedded in the identity: -Im is -0.0 off the pair
        s[:, :n, n:] = -0.0
        ct, st = _each(math.cos, elem.theta), _each(math.sin, elem.theta)
        ph = _each(cmath.exp, 1j * elem.phase)
        w = np.empty((count, 2, 2), complex)
        w[:, 0, 0] = w[:, 1, 1] = ct
        w[:, 0, 1], w[:, 1, 0] = st * ph, -st * np.conj(ph)
        pair = [[elem.mode1], [elem.mode2], [elem.mode1 + n], [elem.mode2 + n]]
        s[:, pair, np.ravel(pair)] = passive_symplectic(w)
    elif isinstance(elem, TwoModeSqueeze):
        i, j = elem.mode1, elem.mode2
        ch, sh = _each(math.cosh, elem.r), _each(math.sinh, elem.r)
        s[:, i, i] = s[:, j, j] = s[:, i + n, i + n] = s[:, j + n, j + n] = ch
        s[:, i, j] = s[:, j, i] = sh
        s[:, i + n, j + n] = s[:, j + n, i + n] = -sh
    elif isinstance(elem, Displace):
        d[:, elem.mode] = math.sqrt(2.0) * elem.alpha.real
        d[:, elem.mode + n] = math.sqrt(2.0) * elem.alpha.imag
    else:
        raise TypeError(f"{type(elem).__name__} is not a unitary element")
    return s, d


def _step(
    mean: np.ndarray, cov: np.ndarray, elem: Element, n: int
) -> tuple[np.ndarray, np.ndarray]:
    """One validated element on stacks of (mean, cov) arrays, of shapes
    (N, 2n) and (N, 2n, 2n), each covariance symmetrized as
    :class:`GaussianState` does; no physicality check."""
    count = len(mean)
    if isinstance(elem, _UNITARY_KINDS):
        s, d = _symplectic(elem, n, count)
        mean, cov = (s @ mean[..., None])[..., 0] + d, s @ cov @ s.swapaxes(-1, -2)
    else:
        # Loss / ThermalMix: contract the mode and add diagonal noise.
        if isinstance(elem, Loss):
            g, extra = _each(math.sqrt, elem.transmission), 0.5 * (1.0 - elem.transmission)
        else:
            refl = elem.reflectivity
            g, extra = _each(math.sqrt, 1.0 - refl), refl * (elem.mean_photons + 0.5)
        ix, ip = elem.mode, elem.mode + n
        scale = np.ones((count, 2 * n))
        scale[:, ix] = scale[:, ip] = g
        cov = cov * (scale[:, :, None] * scale[:, None, :])
        cov[:, ix, ix] += extra
        cov[:, ip, ip] += extra
        mean = mean * scale
    return mean, 0.5 * (cov + cov.swapaxes(-1, -2))


def _fold(elements, n: int, count: int) -> tuple[np.ndarray, np.ndarray]:
    """(mean, cov) stacks of ``count`` circuits with the same elements (see
    :func:`_symplectic`), folded element by element over the vacuum."""
    mean, cov = np.zeros((count, 2 * n)), np.empty((count, 2 * n, 2 * n))
    cov[...] = 0.5 * _forms(n)[0]
    for elem in elements:
        mean, cov = _step(mean, cov, elem, n)
    return mean, cov


def apply(state: GaussianState, elem: Element) -> GaussianState:
    """Apply one circuit element to a state."""
    _validate_element(elem, state.num_modes)
    mean, cov = _step(state.mean[None], state.cov[None], elem, state.num_modes)
    return GaussianState(mean[0], cov[0])


def replay(circuit: GaussianCircuit) -> GaussianState:
    """Fold the circuit over the vacuum.

    The elements were validated when the circuit was built, and only the
    final state is checked for physicality: every element maps physical
    states to physical states.
    """
    mean, cov = _fold(circuit.elements, circuit.num_modes, 1)
    return GaussianState(mean[0], cov[0])


def stacked_fidelity(elements, count: int, other: GaussianState) -> np.ndarray:
    """Bit for bit ``fidelity(replay(circuit_k), other)`` for each of ``count``
    circuits with the same elements on ``other``'s modes, whose numeric
    fields hold one value or an array of one per circuit.  The states are
    checked for physicality as one stack, and no :class:`GaussianState` is
    built."""
    mean, cov = _fold(elements, other.num_modes, count)
    return _fidelities(mean, cov, _symplectic_eigenvalues(cov), other)


# ---------------------------------------------------------------------------
# observables
# ---------------------------------------------------------------------------


def mean_photon(state: GaussianState, mode: int) -> float:
    """Mean photon number of one mode."""
    if not 0 <= mode < state.num_modes:
        raise ValueError(f"mode {mode} out of range")
    ix, ip = mode, mode + state.num_modes
    quad = state.cov[ix, ix] + state.cov[ip, ip]
    disp = state.mean[ix] ** 2 + state.mean[ip] ** 2
    return float(0.5 * (quad - 1.0) + 0.5 * disp)


def _symplectic_eigenvalues(cov: np.ndarray) -> np.ndarray:
    """Symplectic eigenvalues, ascending, of a stack of covariances of
    shape (N, 2M, 2M); raises PhysicalityError at the first unphysical one."""
    eigs = np.linalg.eigvals(1j * _forms(cov.shape[-1] // 2)[1] @ cov)
    nu = np.sort(np.abs(eigs))[..., ::2]
    low = nu[:, 0] < 0.5 - PHYSICALITY_TOL
    for nu_min, v in zip(nu[low, 0].tolist(), cov[low]):
        if _unphysical(nu_min, v):
            raise PhysicalityError(
                f"unphysical covariance: smallest symplectic eigenvalue {nu_min!r} < 1/2"
            )
    nu.setflags(write=False)
    return nu


def _unphysical(nu_min: float, cov: np.ndarray) -> bool:
    """Whether ``nu_min`` is below 1/2 by more than PHYSICALITY_TOL and by
    more than 4 eps·max|V|², the scale of the rounding of ``eigvals`` on
    1j·Ω·V (past 1e-9 for pure states squeezed beyond r ~ 5)."""
    if nu_min >= 0.5 - PHYSICALITY_TOL:
        return False
    scale = float(np.max(np.abs(cov)))  # squared by a product, which overflows to inf
    return nu_min < 0.5 - 4.0 * np.finfo(float).eps * (scale * scale)


def symplectic_eigenvalues(state: GaussianState) -> np.ndarray:
    """Williamson symplectic eigenvalues, ascending (vacuum -> 1/2 each),
    as a read-only array kept on the state."""
    return state._nu


# ---------------------------------------------------------------------------
# fidelity
# ---------------------------------------------------------------------------


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
    return float(_fidelities(s1.mean[None], s1.cov[None], s1._nu[None], s2)[0])


def _fidelities(
    mean: np.ndarray, cov: np.ndarray, nu: np.ndarray, other: GaussianState
) -> np.ndarray:
    """:func:`fidelity` to ``other`` of each state of a stack, given by its
    mean, covariance and symplectic eigenvalues.  Only products, sums and
    numpy's stacked linear algebra act on the stack; each state's final
    scalars are combined one at a time."""
    pure = np.minimum(nu[:, -1], other._nu[-1]) < 0.5 + _PURITY_TOL
    if not pure.all():
        out = np.empty(len(mean))
        out[~pure] = _mixed_fidelities(mean[~pure], cov[~pure], other)
        if pure.any():
            out[pure] = _fidelities(mean[pure], cov[pure], nu[pure], other)
        return out
    # F^2 = Tr(rho1 rho2) whenever at least one state is pure.
    vsum, delta = cov + other.cov, mean - other.mean
    # a stacked solve needs a column right-hand side: numpy 2 reads a 2-D b as a matrix
    expo = ((-0.5 * delta)[:, None, :] @ np.linalg.solve(vsum, delta[..., None]))[:, 0, 0]
    return np.array([min(1.0, math.sqrt(max(0.0, float(np.exp(e) / math.sqrt(d)))))
                     for e, d in zip(expo, np.linalg.det(vsum))])


def _mixed_fidelities(mean, cov, other: GaussianState) -> list[float]:
    """The Banchi-Braunstein-Pirandola fidelity of mixed pairs."""
    eye, omega = _forms(other.num_modes)
    v1, v2 = cov, other.cov
    delta = mean - other.mean
    vsum_inv = np.linalg.inv(v1 + v2)
    vaux = omega.T @ vsum_inv @ (0.25 * omega + v2 @ omega @ v1)
    w = vaux @ omega
    inner = eye + 0.25 * np.linalg.inv(w @ w)
    # det(sqrt(inner) + I) as a product over the eigenvalues of `inner`:
    # no matrix square root, which is unreliable where a pure mode of
    # either state makes `inner` singular
    mu = np.linalg.eigvals(inner) + 0j
    ftot4 = np.prod(1.0 + np.sqrt(mu), axis=-1).real * np.linalg.det(2.0 * vaux)
    expo = ((-0.25 * delta)[:, None, :] @ vsum_inv @ delta[..., None])[:, 0, 0]
    return [
        float(min(1.0, max(0.0, (f4 / d) ** 0.25 * math.exp(e))))
        for f4, d, e in zip(ftot4, np.linalg.det(v1 + v2), expo)
    ]
