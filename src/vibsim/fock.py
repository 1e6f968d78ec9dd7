"""Truncated Fock-space simulator.

Brute-force ground truth for photon-number statistics, overlaps and
fidelities of small circuits.  Unitary elements are exponentials of the
truncated ladder-operator generators, so they are exactly unitary on the
truncated space; loss is an exact Kraus sum and thermal admixture is a
pure-loss/amplifier composition, both of which stay inside the truncated
space up to genuine tail mass.

Every two-mode operator conserves a photon number: beam splitters and
other passive mixings conserve the total n1 + n2, the two-mode squeezer
the difference n1 - n2.  They are built and applied as one small unitary
per value of that quantity, so a cached operator holds O(cutoff^3)
entries rather than the cutoff^4 of the dense pair matrix.  Loss and the
amplifier are Kraus families "shift by k times diagonal weights"; they
conserve the ket-minus-bra photon difference of their mode, so a channel
(thermal admixture: loss then amplifier, composed) is the same kind of
block operator on the mode's (ket, bra) axes, O(cutoff^3) entries too.
Every generator is tridiagonal within its blocks (the single-mode
squeezer within each photon-number parity), so each block exponential is
one real tridiagonal eigenproblem.  Blocks are applied to column panels
small enough that BLAS runs each product on the calling thread.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import NamedTuple

import numpy as np
import scipy.linalg as la

from .decompositions import bloch_messiah, unitary_from_orthosymplectic, williamson
from .gaussian import (
    BeamSplitter,
    Displace,
    Element,
    GaussianCircuit,
    GaussianState,
    Loss,
    Squeeze,
    ThermalMix,
    TwoModeSqueeze,
)
from .tables import FCTable

__all__ = [
    "TruncationError",
    "FockDensity",
    "element_matrix",
    "replay_fock",
    "evolve_fock",
    "photon_distribution",
    "fidelity_fock",
    "noise_kernel",
    "noisy_occupations",
    "attach_detector_noise",
    "gaussian_to_fock",
    "mean_photon_fock",
]


class TruncationError(RuntimeError):
    """Raised when a truncated computation has not converged."""


# ---------------------------------------------------------------------------
# operator construction
# ---------------------------------------------------------------------------


def _expm_tridiagonal(diag: np.ndarray, lower: np.ndarray) -> np.ndarray:
    """exp(iH) for the Hermitian tridiagonal H with real diagonal ``diag``
    and subdiagonal ``lower``, via H = D T D+ with a diagonal phase D and
    T real: the dense Hermitian eigensolver wakes BLAS threads even at 30 x 30.
    T goes straight to LAPACK's ?stevd, the driver ``eigh_tridiagonal``
    picks, without that wrapper's checks, which cost more than the solve."""
    gauge = np.exp(1j * np.concatenate(([0.0], np.cumsum(np.angle(lower)))))
    w = np.asarray(diag, dtype=float)
    if w.size == 1:
        v = np.ones((1, 1))
    else:
        w, v, info = la.lapack.dstevd(w, np.abs(lower))
        if info:
            raise np.linalg.LinAlgError(f"dstevd failed (info {info})")
    return gauge[:, None] * ((v * np.exp(1j * w)) @ v.T) * gauge.conj()


@lru_cache(maxsize=128)
def _squeeze_matrix(r: float, phase: float, cutoff: int) -> np.ndarray:
    """exp((conj(z) a^2 - z a+^2) / 2), z = r e^{i phase}: tridiagonal per parity."""
    z = r * np.exp(1j * phase)
    out = np.zeros((cutoff, cutoff), dtype=complex)
    for n in (np.arange(0, cutoff, 2), np.arange(1, cutoff, 2)):
        lower = 0.5j * z * np.sqrt((n[:-1] + 1.0) * (n[:-1] + 2.0))
        out[np.ix_(n, n)] = _expm_tridiagonal(np.zeros(n.size), lower)
    out.setflags(write=False)
    return out


@lru_cache(maxsize=128)
def _displace_matrix(alpha: complex, cutoff: int) -> np.ndarray:
    """exp(alpha a+ - conj(alpha) a)."""
    out = _expm_tridiagonal(np.zeros(cutoff), -1j * alpha * np.sqrt(np.arange(1.0, cutoff)))
    out.setflags(write=False)
    return out


class _PairBlocks(NamedTuple):
    """Block-diagonal operator on a mode pair.

    ``index`` lists the pair states (m1, m2) block by block; block ``k``
    occupies entries ``bounds[k]:bounds[k + 1]`` and acts there as
    ``blocks[k]``.  Each operator owns its ``index`` arrays: sharing the
    cached layout's arrays raised the peak resident size of cutoff-30
    replays by about 10 MB, through glibc's heap placement.
    """

    index: tuple[np.ndarray, np.ndarray]
    bounds: tuple[int, ...]
    blocks: tuple[np.ndarray, ...]

    def conj(self) -> "_PairBlocks":
        return self._replace(blocks=tuple(b.conj() for b in self.blocks))


@lru_cache(maxsize=128)
def _block_layout(cutoff: int, difference: bool) -> tuple[np.ndarray, tuple[int, ...]]:
    """Pair indices ``m1 * cutoff + m2`` grouped by m1 + m2, or by m1 - m2
    when ``difference``, in increasing m1 within each group, and the group
    bounds."""
    levels = np.arange(cutoff)
    values = range(1 - cutoff, cutoff) if difference else range(2 * cutoff - 1)
    perm, bounds = [], [0]
    for value in values:
        m2 = levels - value if difference else value - levels
        inside = (m2 >= 0) & (m2 < cutoff)
        perm.append(levels[inside] * cutoff + m2[inside])
        bounds.append(bounds[-1] + perm[-1].size)
    perm_arr = np.concatenate(perm)
    perm_arr.setflags(write=False)
    return perm_arr, tuple(bounds)


@lru_cache(maxsize=128)
def _pair_blocks(
    coupling: complex, phase1: float, phase2: float, squeezer: bool, cutoff: int
) -> _PairBlocks:
    """Two-mode unitary exp(G) with
    G = coupling A - conj(coupling) A+ + i (phase1 n1 + phase2 n2).

    A = a1+ a2 for a passive element, which conserves n1 + n2, and
    A = a1+ a2+ for the two-mode squeezer, which conserves n1 - n2.  One
    block per value of the conserved quantity holds its pair states in
    increasing m1, on which G is tridiagonal.
    """
    perm, bounds = _block_layout(cutoff, squeezer)
    index = np.divmod(perm, cutoff)
    blocks = []
    for lo, hi in zip(bounds, bounds[1:]):
        m1, m2 = index[0][lo:hi], index[1][lo:hi]
        # G = iH; A links neighbours i -> i + 1 by sqrt(m1[i + 1] * max(m2[i], m2[i + 1]))
        lower = -1j * coupling * np.sqrt(m1[1:] * (m2[1:] if squeezer else m2[:-1]))
        blocks.append(_expm_tridiagonal(phase1 * m1 + phase2 * m2, lower))
        blocks[-1].setflags(write=False)
    return _PairBlocks(index, bounds, tuple(blocks))


def _pair_operator(elem: BeamSplitter | TwoModeSqueeze, cutoff: int) -> _PairBlocks:
    if isinstance(elem, BeamSplitter):
        # mode generator theta [[0, e^{i phase}], [-e^{-i phase}, 0]]
        coupling = float(elem.theta) * np.exp(1j * float(elem.phase))
        return _pair_blocks(complex(coupling), 0.0, 0.0, False, cutoff)
    return _pair_blocks(complex(float(elem.r)), 0.0, 0.0, True, cutoff)


def _passive_operator(w: np.ndarray, cutoff: int) -> _PairBlocks:
    """Fock unitary of a two-mode passive mixing a -> W a."""
    # principal logarithm from the Schur form, diagonal for a unitary W
    # (scipy's logm takes milliseconds on 2 x 2 and wakes BLAS threads)
    t, z = la.schur(np.asarray(w, dtype=complex), output="complex")
    gen = (z * (1j * np.angle(np.diag(t)))) @ z.conj().T
    return _pair_blocks(
        complex(gen[0, 1]), float(gen[0, 0].imag), float(gen[1, 1].imag), False, cutoff
    )


def element_matrix(elem: Element, cutoff: int) -> np.ndarray:
    """Truncated unitary of a circuit element on its own mode(s).

    Single-mode elements give a ``cutoff x cutoff`` matrix; two-mode
    elements act on the pair space ``|m_first, m_second>`` flattened
    row-major.  Loss and thermal admixture are channels, not unitaries,
    and are rejected.
    """
    if cutoff < 2:
        raise ValueError("cutoff must be at least 2")
    if isinstance(elem, Squeeze):
        return _squeeze_matrix(float(elem.r), float(elem.phase), cutoff)
    if isinstance(elem, Displace):
        return _displace_matrix(complex(elem.alpha), cutoff)
    if isinstance(elem, (BeamSplitter, TwoModeSqueeze)):
        (m1, m2), _, blocks = _pair_operator(elem, cutoff)
        perm = m1 * cutoff + m2
        out = np.zeros((cutoff * cutoff,) * 2, dtype=complex)
        out[np.ix_(perm, perm)] = la.block_diag(*blocks)
        return out
    raise TypeError(f"{type(elem).__name__} has no unitary matrix")


@lru_cache(maxsize=128)
def _channel(transmission: float, gain: float, cutoff: int) -> _PairBlocks:
    """Loss of ``transmission`` eta, then a quantum-limited amplifier of ``gain``
    cosh(s)^2, as blocks on a mode's (ket, bra) axes by ket-minus-bra difference.

    Kraus operators K_k[n-k, n] = sqrt(C(n,k) eta^(n-k) (1-eta)^k) and
    K_k[n+k, n] = sqrt(C(n+k,k)) tanh(s)^k / cosh(s)^(n+1), tabulated as
    K_t[n + t, n] = table[cutoff - 1 + t, n] for a shift t = -k or k; the
    tables' extra column n = cutoff stays zero.
    """
    eta, th, ch = transmission, math.tanh(math.acosh(math.sqrt(gain))), math.sqrt(gain)
    levels = np.arange(cutoff)
    steps = np.arange(1, cutoff)[:, None]
    # binom[k, n] = C(n + k, k) = prod_{i <= k} (n + i) / i
    binom = np.vstack([np.ones(cutoff), np.cumprod((levels + steps) / steps, axis=0)])
    k, n = np.nonzero(np.add.outer(levels, levels) < cutoff)
    root = np.sqrt(binom[k, n])
    loss, amp = np.zeros((2, 2 * cutoff - 1, cutoff + 1))
    loss[cutoff - 1 - k, n + k] = root * np.sqrt(eta**n * (1.0 - eta) ** k)
    amp[cutoff - 1 + k, n] = root * th**k / ch ** (n + 1)

    # all blocks at once, zero-padded to cutoff x cutoff: block d holds the
    # (ket, bra) states (n0 + j, m0 + j), n0 - m0 = d, for j < cutoff - |d|,
    # and K_t rho K_t+ moves entry j to i = j + t, weighted K_t[n + t, n] K_t[m + t, m];
    # from j = cutoff - |d| on, n0 + j or m0 + j reaches the zero column
    diff = np.arange(1 - cutoff, cutoff)[:, None]
    row = (cutoff - 1 + levels[:, None] - levels) * (cutoff + 1)
    ket = row + np.minimum(np.maximum(diff, 0) + levels, cutoff)[:, None, :]
    bra = row + np.minimum(np.maximum(-diff, 0) + levels, cutoff)[:, None, :]
    prod = (amp.take(ket) * amp.take(bra)) @ (loss.take(ket) * loss.take(bra))
    blocks = tuple(p[:s, :s].astype(complex) for p, s in zip(prod, cutoff - np.abs(diff[:, 0])))
    for block in blocks:
        block.setflags(write=False)
    perm, bounds = _block_layout(cutoff, True)
    return _PairBlocks(np.divmod(perm, cutoff), bounds, blocks)


# ---------------------------------------------------------------------------
# density representation
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class FockDensity:
    """Density matrix of ``num_modes`` modes truncated at ``cutoff``.

    ``tail_mass = 1 - trace`` is the probability that has left the
    truncated space (zero for purely unitary circuits).
    """

    num_modes: int
    cutoff: int
    matrix: np.ndarray

    def __post_init__(self) -> None:
        dim = self.cutoff**self.num_modes
        mat = np.asarray(self.matrix, dtype=complex)
        if mat.shape != (dim, dim):
            raise ValueError(f"matrix shape {mat.shape} does not match {dim}")
        # one buffer serves |mat - mat+| and (mat + mat+) / 2
        adj = mat.conj().T
        herm = mat - adj
        if np.abs(herm, out=herm).real.max() > 1e-10:
            raise ValueError("density matrix is not Hermitian")
        mat = np.multiply(np.add(mat, adj, out=herm), 0.5, out=herm)
        tr = float(mat.trace().real)
        if not -1e-10 < tr < 1.0 + 1e-9:
            raise ValueError(f"trace {tr} is not a probability")
        mat.setflags(write=False)
        object.__setattr__(self, "matrix", mat)

    @property
    def trace(self) -> float:
        return float(self.matrix.trace().real)

    @property
    def tail_mass(self) -> float:
        return max(0.0, 1.0 - self.trace)

    def occupations(self) -> np.ndarray:
        """Diagonal probabilities reshaped to one axis per mode."""
        diag = np.clip(self.matrix.diagonal().real, 0.0, None)
        return diag.reshape((self.cutoff,) * self.num_modes)

    def boundary_mass(self, band: int = 2) -> float:
        """Probability of any mode occupying the top ``band`` levels,
        plus the trace deficit; a convergence diagnostic."""
        occ = self.occupations()
        interior = occ[(slice(0, self.cutoff - band),) * self.num_modes]
        return float(1.0 - interior.sum())

    def converged(self, tail_tol: float = 1e-6, boundary_tol: float = 1e-3) -> bool:
        return self.tail_mass <= tail_tol and self.boundary_mass() <= boundary_tol


# ---------------------------------------------------------------------------
# evolution
# ---------------------------------------------------------------------------


#: complex multiply-adds per product from which OpenBLAS uses a second
#: thread; waking it costs 20 times a 30 x 30 block product (470 us, not 20),
#: and its spinning slowed replays by 30 % and made their time unsteady
_SERIAL_MNK = 1 << 16


def _apply_single(tensor: np.ndarray, op: np.ndarray, axis: int) -> np.ndarray:
    shape = tensor.shape
    # (before, axis, after): a view of a C-contiguous tensor, op acts on the middle
    grid = tensor.reshape(math.prod(shape[:axis]), shape[axis], -1)
    out = np.empty(grid.shape[:1] + op.shape[:1] + grid.shape[2:], np.result_type(op, grid))
    width = max(1, (_SERIAL_MNK - 1) // op.size)
    for start in range(0, grid.shape[2], width):
        cols = slice(start, start + width)
        np.matmul(op, grid[:, :, cols], out=out[:, :, cols])
    return out.reshape(shape[:axis] + op.shape[:1] + shape[axis + 1:])


def _apply_pair(tensor: np.ndarray, op: _PairBlocks, ax1: int, ax2: int) -> np.ndarray:
    rest = tuple(a for a in range(tensor.ndim) if a not in (ax1, ax2))
    moved = np.transpose(tensor, (ax1, ax2) + rest)
    flat = moved[op.index].reshape(op.index[0].size, -1)
    width = max(1, (_SERIAL_MNK - 1) // tensor.shape[ax1] ** 2)  # blocks are at most c x c
    for start in range(0, flat.shape[1], width):
        panel = flat[:, start:start + width]
        for block, lo, hi in zip(op.blocks, op.bounds, op.bounds[1:]):
            panel[lo:hi] = block @ panel[lo:hi]
    out = np.empty_like(moved)
    out[op.index] = flat.reshape(op.index[0].shape + moved.shape[2:])
    return np.transpose(out, np.argsort((ax1, ax2) + rest))


class _FockWorkspace:
    """Evolving state; pure vector until the first channel element."""

    def __init__(self, num_modes: int, cutoff: int, rho: np.ndarray | None = None):
        """Vacuum, or the density matrix ``rho``."""
        self.num_modes = num_modes
        self.cutoff = cutoff
        self.vec: np.ndarray | None = None
        self.rho: np.ndarray | None = None
        if rho is None:
            self.vec = np.zeros((cutoff,) * num_modes, dtype=complex)
            self.vec[(0,) * num_modes] = 1.0
        else:
            self.rho = rho.reshape((cutoff,) * (2 * num_modes))

    def _densify(self) -> None:
        if self.vec is not None:
            flat = self.vec.reshape(-1)
            self.rho = np.outer(flat, flat.conj()).reshape(
                (self.cutoff,) * (2 * self.num_modes)
            )
            self.vec = None

    def apply_unitary(self, op: np.ndarray | _PairBlocks, modes: tuple[int, ...]) -> None:
        """Apply a ``cutoff x cutoff`` matrix to one mode, blocks to a pair."""
        apply = _apply_single if len(modes) == 1 else _apply_pair
        if self.vec is not None:
            self.vec = apply(self.vec, op, *modes)
            return
        assert self.rho is not None
        self.rho = apply(self.rho, op, *modes)
        self.rho = apply(self.rho, op.conj(), *(self.num_modes + m for m in modes))

    def apply_channel(self, op: _PairBlocks, mode: int) -> None:
        """Apply a channel, a block operator on the (ket, bra) axes of ``mode``."""
        self._densify()
        assert self.rho is not None
        self.rho = _apply_pair(self.rho, op, mode, self.num_modes + mode)

    def density(self) -> np.ndarray:
        self._densify()
        assert self.rho is not None
        dim = self.cutoff**self.num_modes
        return self.rho.reshape(dim, dim)


def _apply_element(ws: _FockWorkspace, elem: Element) -> None:
    cut = ws.cutoff
    if isinstance(elem, (Squeeze, Displace)):
        ws.apply_unitary(element_matrix(elem, cut), (elem.mode,))
    elif isinstance(elem, (BeamSplitter, TwoModeSqueeze)):
        ws.apply_unitary(_pair_operator(elem, cut), (elem.mode1, elem.mode2))
    elif isinstance(elem, Loss):
        if elem.transmission < 1.0:
            ws.apply_channel(_channel(float(elem.transmission), 1.0, cut), elem.mode)
    elif isinstance(elem, ThermalMix):
        if elem.reflectivity > 0.0:
            # V -> (1-d)V + d(nbar+1/2)I  ==  amplifier(1 + d*nbar) o loss
            gain = 1.0 + float(elem.reflectivity) * float(elem.mean_photons)
            eta = (1.0 - float(elem.reflectivity)) / gain
            ws.apply_channel(_channel(eta, gain, cut), elem.mode)
    else:  # pragma: no cover
        raise TypeError(f"unknown element {elem!r}")


def _replay(ws: _FockWorkspace, circuit: GaussianCircuit) -> FockDensity:
    if circuit.num_modes != ws.num_modes:
        raise ValueError(f"circuit has {circuit.num_modes} modes, the state {ws.num_modes}")
    for elem in circuit.elements:
        _apply_element(ws, elem)
    return FockDensity(ws.num_modes, ws.cutoff, ws.density())


def replay_fock(
    circuit: GaussianCircuit,
    cutoff: int,
    *,
    strict: bool = True,
    tail_tol: float = 1e-6,
    boundary_tol: float = 1e-3,
) -> FockDensity:
    """Replay a circuit on the truncated Fock space, starting from vacuum.

    With ``strict=True`` a :class:`TruncationError` is raised when the
    result fails the tail/boundary convergence checks.
    """
    rho = _replay(_FockWorkspace(circuit.num_modes, cutoff), circuit)
    if strict and not rho.converged(tail_tol, boundary_tol):
        raise TruncationError(
            f"cutoff {cutoff} too small: tail_mass={rho.tail_mass:.3e}, "
            f"boundary_mass={rho.boundary_mass():.3e}"
        )
    return rho


def evolve_fock(rho: FockDensity, circuit: GaussianCircuit) -> FockDensity:
    """Continue a replay: apply ``circuit`` to the density ``rho``, with no
    convergence check (the elements conserve or lose probability, so the
    tail of ``rho`` carries over)."""
    return _replay(_FockWorkspace(rho.num_modes, rho.cutoff, rho.matrix), circuit)


# ---------------------------------------------------------------------------
# measurements and comparisons
# ---------------------------------------------------------------------------


def _table(probs: np.ndarray, cutoff: int, floor: float) -> FCTable:
    """Probabilities above ``floor`` keyed by outcome; the rest is tail."""
    keep = probs > floor
    entries = dict(zip(map(tuple, np.argwhere(keep).tolist()), probs[keep].tolist()))
    return FCTable(entries, cutoff, max(0.0, 1.0 - sum(entries.values())))


def photon_distribution(rho: FockDensity, *, floor: float = 1e-16) -> FCTable:
    """Diagonal probabilities grouped by occupation tuple."""
    return _table(rho.occupations(), rho.cutoff, floor)


def _psd_sqrt(mat: np.ndarray) -> np.ndarray:
    w, v = np.linalg.eigh(mat)
    w = np.clip(w, 0.0, None)
    return (v * np.sqrt(w)) @ v.conj().T


def fidelity_fock(rho1: FockDensity, rho2: FockDensity) -> float:
    """Uhlmann fidelity of two truncated densities (nuclear norm of
    ``sqrt(rho1) sqrt(rho2)``)."""
    if rho1.matrix.shape != rho2.matrix.shape:
        raise ValueError("density matrices must share a shape")
    for rho in (rho1, rho2):
        if rho.tail_mass > 1e-3:
            raise TruncationError(f"tail mass {rho.tail_mass:.2e} too large for fidelity")
    prod = _psd_sqrt(rho1.matrix) @ _psd_sqrt(rho2.matrix)
    sing = np.linalg.svd(prod, compute_uv=False)
    return float(min(1.0, sing.sum()))


def mean_photon_fock(rho: FockDensity, mode: int) -> float:
    occ = rho.occupations()
    axes = tuple(a for a in range(rho.num_modes) if a != mode)
    marg = occ.sum(axis=axes) if axes else occ
    return float(np.arange(rho.cutoff) @ marg)


def _dark_kernel(dark_p1: float, floor: float = 1e-16) -> np.ndarray:
    """Registered dark counts: geometric with P(>=1 count) = dark_p1."""
    if dark_p1 <= 0.0:
        return np.array([1.0])
    probs = [1.0 - dark_p1]
    k = 1
    while (1.0 - dark_p1) * dark_p1**k > floor:
        probs.append((1.0 - dark_p1) * dark_p1**k)
        k += 1
    return np.array(probs)


def noise_kernel(det) -> np.ndarray:
    """Distribution of the spurious counts one detector adds: geometric
    dark counts, plus two counts with probability ``det.pump_p2``."""
    dark = _dark_kernel(float(det.dark_p1))
    pump = float(det.pump_p2)
    kernel = np.zeros(len(dark) + 2)
    kernel[: len(dark)] += dark * (1.0 - pump)
    if pump > 0.0:
        kernel[2:] += dark * pump
    return kernel


def noisy_occupations(rho: FockDensity, det) -> np.ndarray:
    """Observed count probabilities, one axis per detector: the occupations
    convolved with each detector's :func:`noise_kernel` in turn.  Axes run
    past the signal cutoff by the kernel's length less one."""
    kernel = noise_kernel(det)
    cut = rho.cutoff
    conv = sum(k * np.eye(cut + kernel.size - 1, cut, -s) for s, k in enumerate(kernel))
    grid = rho.occupations()
    for axis in range(rho.num_modes):
        grid = _apply_single(grid, conv, axis)
    return grid


def attach_detector_noise(rho: FockDensity, det) -> FCTable:
    """Observed distribution after per-detector dark counts and pump leak.

    ``det`` needs ``dark_p1`` (probability of registering at least one
    noise photon) and ``pump_p2`` (probability of a spurious two-photon
    event) attributes.  Noise is convolved classically and independently
    per detector; outcomes may exceed the signal cutoff.
    """
    return _table(noisy_occupations(rho, det), rho.cutoff, 1e-16)


# ---------------------------------------------------------------------------
# Gaussian -> Fock conversion
# ---------------------------------------------------------------------------


def _thermal_diag(nbar: float, cutoff: int) -> np.ndarray:
    ratio = nbar / (1.0 + nbar)
    return ratio ** np.arange(cutoff) / (1.0 + nbar)


def _apply_passive(ws: _FockWorkspace, w: np.ndarray) -> None:
    num_modes = w.shape[0]
    if num_modes == 2:
        ws.apply_unitary(_passive_operator(w, ws.cutoff), (0, 1))
        return
    # general case: QR-style reduction into two-mode mixes
    work = w.copy()
    ops: list[tuple[np.ndarray, tuple[int, int]]] = []
    for col in range(num_modes):
        for row in range(col + 1, num_modes):
            a, b = work[col, col], work[row, col]
            norm = math.hypot(abs(a), abs(b))
            if abs(b) < 1e-14:
                continue
            g = np.array([[np.conj(a), np.conj(b)], [-b, a]]) / norm
            full = np.eye(num_modes, dtype=complex)
            full[np.ix_([col, row], [col, row])] = g
            work = full @ work
            ops.append((np.linalg.inv(g), (col, row)))
    phases = np.angle(np.diag(work))
    for mode in range(num_modes):
        op = np.diag(np.exp(1j * phases[mode] * np.arange(ws.cutoff)))
        ws.apply_unitary(op, (mode,))
    for g, (i, j) in reversed(ops):
        ws.apply_unitary(_passive_operator(g, ws.cutoff), (i, j))


def gaussian_to_fock(state: GaussianState, cutoff: int) -> FockDensity:
    """Synthesize the truncated Fock density of a Gaussian state.

    Route: Williamson normal form (thermal core), Bloch-Messiah of the
    symplectic part (passive / squeeze / passive), then displacement.
    """
    sympl, nu = williamson(state.cov)
    o1, rs, o2 = bloch_messiah(sympl)
    nbars = np.clip(nu - 0.5, 0.0, None)
    core = None
    if np.max(nbars) > 1e-12:
        diags = [_thermal_diag(float(nb), cutoff) for nb in nbars]
        joint = diags[0]
        for d in diags[1:]:
            joint = np.outer(joint, d).reshape(-1)
        core = np.diag(joint.astype(complex))
    ws = _FockWorkspace(state.num_modes, cutoff, core)
    _apply_passive(ws, unitary_from_orthosymplectic(o2))
    for mode, r in enumerate(rs):
        if abs(r) > 1e-14:
            # Z scales x by exp(+r); Squeeze(r) scales x by exp(-r)
            ws.apply_unitary(element_matrix(Squeeze(mode, -float(r)), cutoff), (mode,))
    _apply_passive(ws, unitary_from_orthosymplectic(o1))
    n = state.num_modes
    for mode in range(n):
        alpha = (state.mean[mode] + 1j * state.mean[mode + n]) / math.sqrt(2.0)
        if abs(alpha) > 1e-14:
            ws.apply_unitary(element_matrix(Displace(mode, complex(alpha)), cutoff), (mode,))
    return FockDensity(state.num_modes, cutoff, ws.density())
