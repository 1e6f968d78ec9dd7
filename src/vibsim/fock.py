"""Truncated Fock-space simulator.

Brute-force ground truth for photon-number statistics, overlaps and
fidelities of small circuits.  Unitary elements are exponentials of the
truncated ladder-operator generators, so they are exactly unitary on the
truncated space; loss is an exact Kraus sum and thermal admixture is a
pure-loss/amplifier composition, both of which stay inside the truncated
space up to genuine tail mass.

A state is held as a factor X of its density rho = X X+, on which unitaries
act from one side: a pure state as its ket, a mixed Gaussian state in synthesis
as the purification diag(sqrt(p)) of its thermal core, which starts past its
first passive mixing.  A channel densifies it.  Counts read the diagonal alone,
so a lossy experiment's are evolved, bit for bit, on the density's
number-balanced sector alone: c^3 entries, and no c^4 array (:func:`_photon_counts`).

Every two-mode operator conserves a photon number: beam splitters and
other passive mixings conserve the total n1 + n2, the two-mode squeezer
the difference n1 - n2.  They are built and applied as one small unitary
per value of that quantity, so an operator holds O(cutoff^3) entries
rather than the cutoff^4 of the dense pair matrix.  Loss and the
amplifier are Kraus families "shift by k times diagonal weights"; they
conserve the ket-minus-bra photon difference of their mode, so a channel
(thermal admixture: loss then amplifier, composed) is the same kind of
block operator on the mode's (ket, bra) axes, O(cutoff^3) entries too.
Every generator is tridiagonal within its blocks (the single-mode squeezer
within each photon-number parity), so each block exponential is one real
tridiagonal eigenproblem, solved in one stack per size class of blocks.  On a
ket, a pair operator builds and applies only the blocks that hold a nonzero
row, and counts build a channel's blocks only where the sector is nonzero.
Blocks are applied to column panels small enough that BLAS runs each product
on the calling thread.  Every operator updates the state in place, one block's
rows or one panel at a time, so a state is held once plus at most a cutoff-th of it.
Operators are built per call: they are keyed by element parameters, which
seldom repeat.  Only tables whose key does repeat are cached, read-only: the
block layout and the binomial roots of the loss Kraus weights, which depend
only on the cutoff, and the detector-noise convolution, which depends only on
the detector and the cutoff.  Loss weights and two-mode squeezed amplitudes
take leading stack axes, so a source fit scores its candidates in one call.
Importing the package loads numpy only, and so does every block exponential:
numpy's ``eigh`` solves each tridiagonal block.  scipy loads with the first
passive mixing or Williamson/Bloch-Messiah call, that is with
:func:`gaussian_to_fock`.
"""

from __future__ import annotations

import math
import os
import resource
from dataclasses import dataclass
from functools import lru_cache
from typing import NamedTuple

import numpy as np

from .decompositions import (
    bloch_messiah,
    givens_reduction,
    unitary_from_orthosymplectic,
    williamson,
)
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
    "FockMemoryError",
    "FockDensity",
    "element_matrix",
    "replay_fock",
    "photon_distribution",
    "fidelity_fock",
    "noise_kernel",
    "noisy_occupations",
    "attach_detector_noise",
    "gaussian_to_fock",
]


class TruncationError(RuntimeError):
    """Raised when a truncated computation has not converged."""


class FockMemoryError(MemoryError):
    """Raised, before allocating, for an array too large for memory or a soft rlimit."""


# ---------------------------------------------------------------------------
# operator construction
# ---------------------------------------------------------------------------


def _expm_tridiagonal(diag: np.ndarray, lower: np.ndarray) -> np.ndarray:
    """exp(iH) for the Hermitian tridiagonal H with real diagonal ``diag``
    and subdiagonal ``lower``, via H = D T D+ with a diagonal phase D and
    T real symmetric tridiagonal; leading axes stack matrices of one size.
    numpy's real ``eigh`` (LAPACK's ?syevd) solves T, so no Fock operator
    loads scipy, and it gives the bits of LAPACK's tridiagonal solver ?stevd
    on every block the operators build: ?sytrd's reflectors on an already
    tridiagonal T have zero weight and leave it as it is, and both routines
    hand it to the same ?stedc, even at size 1 and matrix by matrix in a stack.
    ?stedc solves each unreduced block on its own and sorts the eigenvalues last,
    so T padded by decoupled diagonal entries above its spectrum gives T's
    eigenpairs first, and its exponential, with T's bits (:func:`_expm_blocks`),
    unless ?syevd scales one of the two: to a norm outside about 1e-146 ... 1e146."""
    angles = np.cumsum(np.angle(lower), axis=-1)
    gauge = np.exp(1j * np.concatenate((np.zeros(angles.shape[:-1] + (1,)), angles), axis=-1))
    n = diag.shape[-1]
    t = np.zeros(diag.shape[:-1] + (n * n,))
    t[..., :: n + 1] = diag
    t[..., n:: n + 1] = np.abs(lower)  # the subdiagonal: eigh reads the lower triangle only
    w, v = np.linalg.eigh(t.reshape(t.shape[:-1] + (n, n)))
    rotated = (v * np.exp(1j * w)[..., None, :]) @ np.swapaxes(v, -1, -2)
    return gauge[..., :, None] * rotated * gauge.conj()[..., None, :]


#: blocks are solved in stacks of one size class, each padded to the next multiple of this
_SIZE_CLASS = 6


def _expm_blocks(diags: list, lowers: list) -> list[np.ndarray]:
    """:func:`_expm_tridiagonal` of each block ``diags[k]``, ``lowers[k]``, of any
    size, with one stacked solve per size class: each block is padded by diagonal
    entries twice its Gershgorin bound, and keeps the bits of its lone solve.  A
    nonzero block whose bound lies outside 1e-100 ... 1e100 is solved alone."""
    sizes = np.array([d.size for d in diags], dtype=int)
    classes = -(-sizes // _SIZE_CLASS) * _SIZE_CLASS
    out = [None] * sizes.size
    for size in sorted(set(classes.tolist())):  # np.unique would import numpy.ma
        members = np.flatnonzero(classes == size)
        diag, lower = np.zeros((members.size, size)), np.zeros((members.size, size - 1), complex)
        for row, k in enumerate(members):
            diag[row, :sizes[k]], lower[row, :sizes[k] - 1] = diags[k], lowers[k]
        top = np.abs(diag).max(-1) + 2 * np.abs(lower).max(-1, initial=0.0)
        diag = np.where(np.arange(size) < sizes[members, None], diag, 2 * top[:, None])
        for k, bound, block in zip(members, top, _expm_tridiagonal(diag, lower)):
            out[k] = (block[:sizes[k], :sizes[k]] if bound == 0 or 1e-100 < bound < 1e100
                      else _expm_tridiagonal(diags[k], lowers[k]))
    return out


def _squeeze_matrix(r: float, phase: float, cutoff: int) -> np.ndarray:
    """exp((conj(z) a^2 - z a+^2) / 2), z = r e^{i phase}: tridiagonal per parity."""
    z = r * np.exp(1j * phase)
    out = np.zeros((cutoff, cutoff), dtype=complex)
    parities = (np.arange(0, cutoff, 2), np.arange(1, cutoff, 2))
    lowers = [0.5j * z * np.sqrt((n[:-1] + 1.0) * (n[:-1] + 2.0)) for n in parities]
    for n, block in zip(parities, _expm_blocks([np.zeros(n.size) for n in parities], lowers)):
        out[np.ix_(n, n)] = block
    return out


class _PairBlocks(NamedTuple):
    """Block-diagonal operator on a mode pair.

    ``index`` lists the pair states (m1, m2) block by block; block ``k``
    occupies entries ``bounds[k]:bounds[k + 1]`` and acts there as
    ``blocks[k]``, or not at all where that is None.  ``index`` and
    ``bounds`` are the cached :func:`_block_layout`.
    """

    index: tuple[np.ndarray, np.ndarray]
    bounds: tuple[int, ...]
    blocks: tuple[np.ndarray, ...]

    def conj(self) -> "_PairBlocks":
        return self._replace(blocks=tuple(b.conj() for b in self.blocks))


@lru_cache(maxsize=128)
def _block_layout(cutoff: int, difference: bool) -> tuple[tuple[np.ndarray, ...], tuple[int, ...]]:
    """Pair states (m1, m2) grouped by m1 + m2, or by m1 - m2 when
    ``difference``, in increasing m1 within each group, and the group
    bounds; the arrays are read-only."""
    levels = np.arange(cutoff)
    values = range(1 - cutoff, cutoff) if difference else range(2 * cutoff - 1)
    perm, bounds = [], [0]
    for value in values:
        m2 = levels - value if difference else value - levels
        inside = (m2 >= 0) & (m2 < cutoff)
        perm.append(levels[inside] * cutoff + m2[inside])
        bounds.append(bounds[-1] + perm[-1].size)
    index = np.divmod(np.concatenate(perm), cutoff)
    for arr in index:
        arr.setflags(write=False)
    return index, tuple(bounds)


def _pair_blocks(
    coupling: complex, phase1: float, phase2: float, squeezer: bool, cutoff: int, live=None
) -> _PairBlocks:
    """Two-mode unitary exp(G) with
    G = coupling A - conj(coupling) A+ + i (phase1 n1 + phase2 n2).

    A = a1+ a2 for a passive element, which conserves n1 + n2, and
    A = a1+ a2+ for the two-mode squeezer, which conserves n1 - n2.  One
    block per value of the conserved quantity holds its pair states in
    increasing m1, on which G is tridiagonal.  Only the blocks a boolean
    mask ``live`` selects are built; the others are None.
    """
    index, bounds = _block_layout(cutoff, squeezer)
    (m1, m2), diag = index, phase1 * index[0] + phase2 * index[1]
    # G = iH; A links neighbours i -> i + 1 by sqrt(m1[i + 1] * max(m2[i], m2[i + 1])),
    # here along the whole layout, of which each block reads its own links
    lower = -1j * coupling * np.sqrt(m1[1:] * (m2[1:] if squeezer else m2[:-1]))
    keep = range(len(bounds) - 1) if live is None else np.flatnonzero(live)
    blocks = dict(zip(keep, _expm_blocks([diag[bounds[k]:bounds[k + 1]] for k in keep],
                                         [lower[bounds[k]:bounds[k + 1] - 1] for k in keep])))
    return _PairBlocks(index, bounds, tuple(blocks.get(k) for k in range(len(bounds) - 1)))


def _pair_operator(elem: BeamSplitter | TwoModeSqueeze, cutoff: int, live=None) -> _PairBlocks:
    if isinstance(elem, BeamSplitter):
        # mode generator theta [[0, e^{i phase}], [-e^{-i phase}, 0]]
        coupling = float(elem.theta) * np.exp(1j * float(elem.phase))
        return _pair_blocks(complex(coupling), 0.0, 0.0, False, cutoff, live)
    return _pair_blocks(complex(float(elem.r)), 0.0, 0.0, True, cutoff, live)


def _passive_operator(w: np.ndarray, cutoff: int, live=None) -> _PairBlocks:
    """Fock unitary of a two-mode passive mixing a -> W a."""
    # principal logarithm from the Schur form, diagonal for a unitary W
    # (scipy's logm takes milliseconds on 2 x 2 and wakes BLAS threads)
    from scipy.linalg import schur

    t, z = schur(np.asarray(w, dtype=complex), output="complex")
    gen = (z * (1j * np.angle(np.diag(t)))) @ z.conj().T
    return _pair_blocks(
        complex(gen[0, 1]), float(gen[0, 0].imag), float(gen[1, 1].imag), False, cutoff, live
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
        # exp(alpha a+ - conj(alpha) a)
        lower = -1j * complex(elem.alpha) * np.sqrt(np.arange(1.0, cutoff))
        return _expm_tridiagonal(np.zeros(cutoff), lower)
    if isinstance(elem, (BeamSplitter, TwoModeSqueeze)):
        op = _pair_operator(elem, cutoff)
        perm = op.index[0] * cutoff + op.index[1]
        out = np.zeros((cutoff * cutoff,) * 2, dtype=complex)
        for lo, hi, block in zip(op.bounds, op.bounds[1:], op.blocks):
            out[np.ix_(perm[lo:hi], perm[lo:hi])] = block
        return out
    raise TypeError(f"{type(elem).__name__} has no unitary matrix")


@lru_cache(maxsize=128)
def _binomial_roots(cutoff: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(k, n, sqrt(C(n + k, k))) over the k, n with n + k < cutoff."""
    levels = np.arange(cutoff)
    steps = np.arange(1, cutoff)[:, None]
    # binom[k, n] = C(n + k, k) = prod_{i <= k} (n + i) / i
    binom = np.vstack([np.ones(cutoff), np.cumprod((levels + steps) / steps, axis=0)])
    k, n = np.nonzero(np.add.outer(levels, levels) < cutoff)
    out = k, n, np.sqrt(binom[k, n])
    for arr in out:
        arr.setflags(write=False)
    return out


def _loss_kraus(eta, cutoff: int) -> np.ndarray:
    """Loss amplitudes K[n, n + k] = sqrt(C(n + k, k) eta^n (1-eta)^k); their
    squares are the binomial thinning of the occupations.  An array of
    ``eta`` gives one matrix per entry, stacked on its axes."""
    k, n, root = _binomial_roots(cutoff)
    eta = np.asarray(eta, dtype=float)[..., None]
    out = np.zeros(eta.shape[:-1] + (cutoff, cutoff))
    out[..., n, n + k] = root * np.sqrt(eta**n * (1.0 - eta) ** k)
    return out


def _channel(transmission: float, gain: float, cutoff: int, differences=None) -> _PairBlocks:
    """Loss of ``transmission`` eta, then a quantum-limited amplifier of ``gain``
    cosh(s)^2, as blocks on a mode's (ket, bra) axes by ket-minus-bra difference:
    all of them, or those of ``differences`` alone (the others are None).

    Kraus operators K_k[n-k, n] = sqrt(C(n,k) eta^(n-k) (1-eta)^k) and
    K_k[n+k, n] = sqrt(C(n+k,k)) tanh(s)^k / cosh(s)^(n+1), tabulated as
    K_t[n + t, n] = table[cutoff - 1 + t, n] for a shift t = -k or k; the
    tables' extra column n = cutoff stays zero.
    """
    th, ch = math.tanh(math.acosh(math.sqrt(gain))), math.sqrt(gain)
    levels = np.arange(cutoff)
    k, n, root = _binomial_roots(cutoff)
    loss, amp = np.zeros((2, 2 * cutoff - 1, cutoff + 1))
    loss[cutoff - 1 - k, n + k] = _loss_kraus(transmission, cutoff)[n, n + k]
    with np.errstate(over="ignore"):  # cosh(s)^(n + 1) past the float range weighs 0
        amp[cutoff - 1 + k, n] = root * th**k / ch ** (n + 1)

    # all blocks at once, zero-padded to cutoff x cutoff: block d holds the
    # (ket, bra) states (n0 + j, m0 + j), n0 - m0 = d, for j < cutoff - |d|,
    # and K_t rho K_t+ moves entry j to i = j + t, weighted K_t[n + t, n] K_t[m + t, m];
    # from j = cutoff - |d| on, n0 + j or m0 + j reaches the zero column
    shown = np.arange(1 - cutoff, cutoff) if differences is None else np.array(differences, int)
    diff = shown[:, None]
    row = (cutoff - 1 + levels[:, None] - levels) * (cutoff + 1)
    ket = row + np.minimum(np.maximum(diff, 0) + levels, cutoff)[:, None, :]
    bra = row + np.minimum(np.maximum(-diff, 0) + levels, cutoff)[:, None, :]
    prod = (amp.take(ket) * amp.take(bra)) @ (loss.take(ket) * loss.take(bra))
    blocks = {d: p[:s, :s].astype(complex) for d, p, s in zip(shown, prod, cutoff - abs(shown))}
    return _PairBlocks(*_block_layout(cutoff, True),
                       tuple(map(blocks.get, range(1 - cutoff, cutoff))))


def _tmsv_amplitudes(r, cutoff: int) -> np.ndarray:
    """psi_n of the truncated two-mode squeezed vacuum sum_n psi_n |n, n>: the
    vacuum column of the n1 - n2 = 0 block of :func:`_pair_blocks`.  An array
    of ``r`` gives one column per entry, stacked on its axes, in one solve."""
    lower = -1j * np.asarray(r, dtype=float)[..., None] * np.arange(1.0, cutoff)
    return _expm_tridiagonal(np.zeros(lower.shape[:-1] + (cutoff,)), lower)[..., :, 0]


# ---------------------------------------------------------------------------
# density representation
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class FockDensity:
    """Density operator of ``num_modes`` modes truncated at ``cutoff``, held
    as a ``factor`` X of shape (cutoff**num_modes, k) with rho = X X+: a ket
    (k = 1) or a purification.  A channel's result keeps its density ``rho``,
    or its ``diagonal`` alone for counts.  ``tail_mass = 1 - trace`` is the
    probability that has left the truncated space (zero for unitary circuits)."""

    num_modes: int
    cutoff: int
    factor: np.ndarray | None = None
    rho: np.ndarray | None = None
    diagonal: np.ndarray | None = None

    def __post_init__(self) -> None:
        dim = self.cutoff**self.num_modes
        data = next((x for x in (self.factor, self.rho, self.diagonal) if x is not None), None)
        shape = np.shape(data)
        if (shape != (dim,) if data is self.diagonal else
                len(shape) != 2 or shape[0] != dim or (data is self.rho and shape[1] != dim)):
            raise ValueError(f"shape {shape} does not match {dim}")
        data.setflags(write=False)
        if data is not self.factor or shape[1] == 1:
            # a density's diagonal, or a ket's |x|^2 in one array: the trace
            # of a pure result is reported to the bit
            terms = (data * data.conj() if data is self.factor
                     else (data if data is self.diagonal else data.diagonal())[:, None])
            tr = float(terms.sum().real)
            occupations = terms.real.sum(axis=1)
        else:
            # |X_ij|^2 as X X+ forms its diagonal, in panels of a cutoff-th of X
            occupations = np.empty(dim)
            step = max(1, dim // self.cutoff)
            for lo in range(0, dim, step):
                x = data[lo:lo + step]
                occupations[lo:lo + step] = (x * x.conj()).real.sum(axis=1)
            tr = float(occupations.sum())
        if not -1e-10 < tr < 1.0 + 1e-9:
            raise ValueError(f"trace {tr} is not a probability")
        object.__setattr__(self, "_occupations", np.clip(occupations, 0.0, None))
        object.__setattr__(self, "_trace", tr)

    @property
    def matrix(self) -> np.ndarray:
        """The density matrix, Hermitian-symmetrised; built on each call."""
        x, mat = self.factor, self.rho
        if x is None and mat is None:
            raise ValueError("only the diagonal of this density was kept")
        if x is not None:
            mat = np.outer(x, x.conj()) if x.shape[1] == 1 else x @ x.conj().T
        return (mat + mat.conj().T) * 0.5

    @property
    def trace(self) -> float:
        return self._trace

    @property
    def tail_mass(self) -> float:
        return max(0.0, 1.0 - self.trace)

    def occupations(self) -> np.ndarray:
        """Diagonal probabilities reshaped to one axis per mode."""
        return self._occupations.reshape((self.cutoff,) * self.num_modes)

    def boundary_mass(self) -> float:
        """Probability of any mode occupying the top two levels, plus the
        trace deficit; a convergence diagnostic."""
        occ = self.occupations()
        interior = occ[(slice(0, self.cutoff - 2),) * self.num_modes]
        return float(1.0 - interior.sum())

    def converged(self) -> bool:
        """Tail mass at most 1e-6 and boundary mass at most 1e-3."""
        return self.tail_mass <= 1e-6 and self.boundary_mass() <= 1e-3


# ---------------------------------------------------------------------------
# evolution
# ---------------------------------------------------------------------------


#: complex multiply-adds per product from which OpenBLAS uses a second
#: thread; waking it costs 20 times a 30 x 30 block product (470 us, not 20),
#: and its spinning slowed replays by 30 % and made their time unsteady
_SERIAL_MNK = 1 << 16


def _apply_single(tensor: np.ndarray, op: np.ndarray, axis: int) -> np.ndarray:
    """Apply ``op`` to axis ``axis`` of ``tensor`` one panel at a time: in
    place for a square ``op``, into a new array for one that lengthens the
    axis (the detector-noise convolution).  In place, a panel holds at most
    a cutoff-th of the tensor, unless one column panel of one leading index
    is more; the column panels are those of a whole-tensor update."""
    shape = tensor.shape
    # (before, axis, after): a view of a C-contiguous tensor, op acts on the middle
    grid = tensor.reshape(math.prod(shape[:axis]), shape[axis], -1)
    width = max(1, (_SERIAL_MNK - 1) // op.size)
    if op.shape[0] == shape[axis]:
        out = grid
        batch = max(1, tensor.size // (shape[axis] ** 2 * min(width, grid.shape[2])))
    else:
        out = np.empty(grid.shape[:1] + op.shape[:1] + grid.shape[2:], np.result_type(op, grid))
        batch = grid.shape[0]
    for lo in range(0, grid.shape[0], batch):
        for start in range(0, grid.shape[2], width):
            panel = (slice(lo, lo + batch), slice(None), slice(start, start + width))
            out[panel] = op @ grid[panel]
    return out.reshape(shape[:axis] + op.shape[:1] + shape[axis + 1:])


def _apply_pair(tensor: np.ndarray, op: _PairBlocks, ax1: int, ax2: int) -> np.ndarray:
    """Apply ``op`` to axes ``ax1`` and ``ax2`` of ``tensor``, in place: each
    block's rows, at most a cutoff-th of the tensor, are gathered, updated
    panel by panel and scattered back.  The rows of a block None stay as they are."""
    rest = tuple(a for a in range(tensor.ndim) if a not in (ax1, ax2))
    moved = np.transpose(tensor, (ax1, ax2) + rest)
    width = max(1, (_SERIAL_MNK - 1) // tensor.shape[ax1] ** 2)  # blocks are at most c x c
    for block, lo, hi in zip(op.blocks, op.bounds, op.bounds[1:]):
        if block is None:
            continue
        pairs = (op.index[0][lo:hi], op.index[1][lo:hi])
        rows = moved[pairs].reshape(hi - lo, -1)
        for start in range(0, rows.shape[1], width):
            cols = slice(start, start + width)
            rows[:, cols] = block @ rows[:, cols]
        moved[pairs] = rows.reshape((hi - lo,) + moved.shape[2:])
        del rows  # before the next block's gather, so one block's copy is alive
    return tensor


#: complex entries of numpy's iterator buffers, which a gather, a scatter or a
#: broadcast product holds beside the state
_BUFFER_ENTRIES = 1 << 14


def _state_bytes(num_modes: int, cutoff: int, kind: str) -> float:
    """Bytes at the peak of a state's updates, for ``kind`` "ket",
    "purification" or "density".  A ket is held three times: at the end, the
    conjugate and the product that form its |x|^2.  A purification or a
    density is held once, plus the cutoff-th of it that a block's rows or a
    panel copy.  Beside it sit numpy's buffers and the largest operator
    build: a channel's 6 cutoff**3 entries, which a replay's ket builds before
    it densifies, or a pair unitary's cutoff**3 in a purification."""
    if kind == "ket":
        entries = 3 * cutoff**num_modes + 6 * cutoff**3
    else:
        state = cutoff ** (2 * num_modes)
        entries = state + state // cutoff + (1 if kind == "purification" else 6) * cutoff**3
    entries += _BUFFER_ENTRIES
    return 16.0 * entries if entries < 1e300 else math.inf


def _physical_memory() -> int:
    """Bytes of physical memory."""
    return os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")


def _read_text(path: str) -> str:
    """A file's text, or "" where it cannot be read."""
    try:
        with open(path) as f:
            return f.read()
    except (OSError, ValueError):
        return ""


def _cgroup_memory() -> int | None:
    """Bytes of the memory limit of the process's own cgroup: the v2 ``memory.max``
    or the v1 ``memory.limit_in_bytes`` of the cgroup ``/proc/self/cgroup`` names,
    or None where neither is readable or set (v2 writes "max")."""
    for line in _read_text("/proc/self/cgroup").splitlines():
        parts = line.split(":", 2)
        if len(parts) != 3 or (parts[1] and "memory" not in parts[1].split(",")):
            continue
        where = parts[2].rstrip("/")
        limit = _read_text(f"/sys/fs/cgroup/memory{where}/memory.limit_in_bytes" if parts[1]
                           else f"/sys/fs/cgroup{where}/memory.max").strip()
        if limit.isdigit():
            return int(limit)
    return None


def _refuse_beyond_memory(what: str, need: float) -> None:
    """Raise :class:`FockMemoryError` when ``need`` bytes exceed the least of physical
    memory, the process's soft RLIMIT_AS less the address space it maps already,
    its soft RLIMIT_DATA and its cgroup's memory limit, the bound of every guard."""
    limits = [(_physical_memory(), "physical memory", 0)]
    for n in ("RLIMIT_AS", "RLIMIT_DATA"):
        soft = resource.getrlimit(getattr(resource, n))[0]
        if soft != resource.RLIM_INFINITY:
            # what the process maps already (VmSize, where readable) counts against RLIMIT_AS
            status = _read_text("/proc/self/status") if n == "RLIMIT_AS" else ""
            kib = status.partition("\nVmSize:")[2].split()[:1]
            mapped = 1024 * int(kib[0]) if kib and kib[0].isdigit() else 0
            limits.append((soft, f"the soft {n}", mapped))
    cgroup = _cgroup_memory()
    if cgroup is not None:
        limits.append((cgroup, "the memory limit of the process's cgroup", 0))
    have, name, mapped = min(limits, key=lambda limit: (limit[0] - limit[2], limit[1]))
    if need > have - mapped:
        less = f", less the {mapped:.3g} bytes the process maps" if mapped else ""
        raise FockMemoryError(
            f"{what} needs about {need:.3g} bytes of working memory, "
            f"more than the {have:.3g} bytes of {name}{less}"
        )


def _check_memory(num_modes: int, cutoff: int, kind: str) -> None:
    """Refuse, before allocating, a state that would not fit in physical memory."""
    _refuse_beyond_memory(f"cutoff {cutoff} on {num_modes} modes",
                          _state_bytes(num_modes, cutoff, kind))


class _FockWorkspace:
    """Evolving state: a factor of its density until the first channel, then
    the density.  The factor is the vacuum ket, or the purification
    diag(sqrt(weights)) of a diagonal density with a trailing column axis
    that unitaries leave alone.  The workspace owns its arrays: every
    operator updates them in place."""

    def __init__(self, num_modes: int, cutoff: int, weights: np.ndarray | None = None):
        _check_memory(num_modes, cutoff, "ket" if weights is None else "purification")
        self.num_modes = num_modes
        self.cutoff = cutoff
        self.rho: np.ndarray | None = None
        if weights is None:
            self.vec: np.ndarray | None = np.zeros((cutoff,) * num_modes, dtype=complex)
            self.vec[(0,) * num_modes] = 1.0
        else:
            root = np.sqrt(weights).astype(complex)
            self.vec = np.diag(root).reshape((cutoff,) * num_modes + (-1,))

    def _densify(self) -> None:
        if self.vec is not None:
            _check_memory(self.num_modes, self.cutoff, "density")
            flat = self.vec.reshape(-1)
            self.rho = np.outer(flat, flat.conj()).reshape(
                (self.cutoff,) * (2 * self.num_modes)
            )
            self.vec = None

    def live(self, modes: tuple[int, int], difference: bool) -> np.ndarray | None:
        """Which :func:`_block_layout` blocks of ``modes`` hold a nonzero entry of a
        ket, so that only those are built and applied; None (all) on a purification
        or a density, whose mask would read a copy of all of it."""
        if self.vec is None or self.vec.ndim > self.num_modes:
            return None
        c, (index, bounds) = self.cutoff, _block_layout(self.cutoff, difference)
        held = np.moveaxis(self.vec != 0, modes, (0, 1)).reshape(c, c, -1).any(axis=2)
        return np.logical_or.reduceat(held[index], bounds[:-1])

    def apply_unitary(self, op: np.ndarray | _PairBlocks, modes: tuple[int, ...]) -> None:
        """Apply a ``cutoff x cutoff`` matrix to one mode, blocks to a pair."""
        act = _apply_single if len(modes) == 1 else _apply_pair
        if self.vec is not None:
            self.vec = act(self.vec, op, *modes)
            return
        assert self.rho is not None
        self.rho = act(self.rho, op, *modes)
        self.rho = act(self.rho, op.conj(), *(self.num_modes + m for m in modes))

    def apply_channel(self, transmission: float, gain: float, mode: int) -> None:
        """Apply a :func:`_channel`, a block operator on the (ket, bra) axes of ``mode``."""
        op = _channel(transmission, gain, self.cutoff)
        self._densify()
        assert self.rho is not None
        self.rho = _apply_pair(self.rho, op, mode, self.num_modes + mode)

    def apply_start_passive(self, w: np.ndarray) -> None:
        """Apply the passive mixing ``w`` to the start state.  It keeps the vacuum ket; on a
        two-mode purification diag(sqrt(weights)) each entry of a block's product has one nonzero
        term, so scaling the block's columns by their roots gives its bits, up to signs of zero."""
        if self.vec is not None and self.vec.ndim == self.num_modes:
            return
        if self.vec is None or self.num_modes != 2:  # a density: a subclass may start from one
            return _apply_passive(self, w)
        op, x = _passive_operator(w, self.cutoff), self.vec.reshape(self.cutoff**2, -1)
        for block, lo, hi in zip(op.blocks, op.bounds, op.bounds[1:]):
            s = op.index[0][lo:hi] * self.cutoff + op.index[1][lo:hi]
            x[np.ix_(s, s)] = block * x[s, s]

    def result(self) -> FockDensity:
        dim = self.cutoff**self.num_modes
        if self.vec is not None:
            return FockDensity(self.num_modes, self.cutoff, factor=self.vec.reshape(dim, -1))
        return FockDensity(self.num_modes, self.cutoff, rho=self.rho.reshape(dim, dim))


def _apply_element(ws: _FockWorkspace, elem: Element) -> None:
    cut = ws.cutoff
    if isinstance(elem, (Squeeze, Displace)):
        ws.apply_unitary(element_matrix(elem, cut), (elem.mode,))
    elif isinstance(elem, (BeamSplitter, TwoModeSqueeze)):
        modes = (elem.mode1, elem.mode2)
        live = ws.live(modes, isinstance(elem, TwoModeSqueeze))
        ws.apply_unitary(_pair_operator(elem, cut, live), modes)
    elif isinstance(elem, Loss):
        if elem.transmission < 1.0:
            ws.apply_channel(float(elem.transmission), 1.0, elem.mode)
    elif isinstance(elem, ThermalMix):
        if elem.reflectivity > 0.0:
            # V -> (1-d)V + d(nbar+1/2)I  ==  amplifier(1 + d*nbar) o loss
            gain = 1.0 + float(elem.reflectivity) * float(elem.mean_photons)
            eta = (1.0 - float(elem.reflectivity)) / gain
            ws.apply_channel(eta, gain, elem.mode)
    else:  # pragma: no cover
        raise TypeError(f"unknown element {elem!r}")


def _checked(rho: FockDensity, strict: bool = True) -> FockDensity:
    """``rho``, once it passes :meth:`FockDensity.converged` where ``strict``."""
    if strict and not rho.converged():
        raise TruncationError(
            f"cutoff {rho.cutoff} too small: tail_mass={rho.tail_mass:.3e}, "
            f"boundary_mass={rho.boundary_mass():.3e}"
        )
    return rho


def replay_fock(circuit: GaussianCircuit, cutoff: int, *, strict: bool = True) -> FockDensity:
    """Replay a circuit on the truncated Fock space, starting from vacuum.

    With ``strict=True`` a :class:`TruncationError` is raised when the
    result fails :meth:`FockDensity.converged`.
    """
    ws = _FockWorkspace(circuit.num_modes, cutoff)
    for elem in circuit.elements:
        _apply_element(ws, elem)
    return _checked(ws.result(), strict)


def _sector(cutoff: int, d: int) -> tuple[np.ndarray, ...]:
    """Index (a + j, b + k, b + j, a + k), a = max(d, 0), b = max(-d, 0), of block
    [j, k] of the sector n1 - m1 = m2 - n2 = d of a density rho[n1, n2, m1, m2]."""
    a, b, j = max(d, 0), max(-d, 0), np.arange(cutoff - abs(d))
    return a + j[:, None], b + j, b + j[:, None], a + j


@lru_cache(maxsize=128)
def _sector_layout(cutoff: int) -> tuple[tuple[int, ...], tuple, tuple]:
    """The sector n1 - m1 = m2 - n2 of a density as one flat array: ``bounds`` of
    its :func:`_sector` blocks d, row-major, in increasing d.  Per pair block
    N = n1 + n2 of :func:`_block_layout`: ``take``, the flat entries of
    rho[S_N, S_N], and ``cols``, the increasing pair index n1 c + n2 of S_N;
    the arrays are read-only."""
    c, diffs = cutoff, np.arange(1 - cutoff, cutoff)
    sizes, a, b = c - abs(diffs), np.maximum(diffs, 0), np.maximum(-diffs, 0)
    bounds = np.concatenate(([0], np.cumsum(sizes**2)))
    index, pair_bounds = _block_layout(c, False)
    take, cols = [], []
    for lo, hi in zip(pair_bounds, pair_bounds[1:]):
        n1, n2 = index[0][lo:hi], index[1][lo:hi]
        d = c - 1 + n1[:, None] - n1  # block of (ket, bra) = (n, m): n1 - m1
        take.append(bounds[d] + (n1[:, None] - a[d]) * sizes[d] + n2[:, None] - b[d])
        cols.append(n1 * c + n2)
    for arr in take + cols:
        arr.setflags(write=False)
    return tuple(bounds.tolist()), tuple(take), tuple(cols)


class _CountsWorkspace(_FockWorkspace):
    """From the first channel on it holds the sector alone, :func:`_sector_layout`'s
    flat ``sector`` with views ``blocks``; channels update blocks ``sectors``."""

    def _densify(self) -> None:
        """The sector of the ket's density, past the whole density's guard (which
        reserves more than the sector holds), so a refusal is the replay's."""
        if self.vec is not None:
            _check_memory(2, self.cutoff, "density")
            c, psi, bounds = self.cutoff, self.vec, _sector_layout(self.cutoff)[0]
            self.sector = np.empty(bounds[-1], dtype=complex)
            self.blocks = [self.sector[lo:hi].reshape(c - abs(d), -1)
                           for d, lo, hi in zip(range(1 - c, c), bounds, bounds[1:])]
            for d, block in zip(range(1 - c, c), self.blocks):
                # block by block, as the replay's: an elementwise product's bits depend on
                # where its operands sit in the array
                n1, n2, m1, m2 = _sector(c, d)
                block[...] = psi[n1, n2] * psi[m1, m2].conj()
            self.vec = None

    def apply_unitary(self, op: np.ndarray | _PairBlocks, modes: tuple[int, ...]) -> None:
        """A beam splitter on modes (0, 1), on the sector as :func:`_apply_pair`'s two
        passes: rho[S_N, S_N] at its columns of zeroed rows, and the products of the
        panels that hold one."""
        if self.vec is not None:
            return super().apply_unitary(op, modes)
        c = self.cutoff
        width = (_SERIAL_MNK - 1) // c**2
        _, take, cols = _sector_layout(c)
        for block, index, col in zip(op.blocks, take, cols):
            rows = np.zeros((col.size, c * c), dtype=complex)
            rows[:, col] = self.sector[index]
            for side in (block, block.conj()):  # the ket's rows, then the bra's
                for start in range(col[0] // width * width, col[-1] + 1, width):
                    panel = slice(start, start + width)
                    rows[:, panel] = side @ rows[:, panel]
                rows[:, col] = rows[:, col].T
            self.sector[index] = rows[:, col]

    def apply_channel(self, transmission: float, gain: float, mode: int) -> None:
        """Channel blocks only for the blocks d of ``sectors`` that hold a nonzero entry."""
        self._densify()
        c = self.cutoff
        live = [d for d in self.sectors if self.blocks[c - 1 + d].any()]
        op = _channel(transmission, gain, c, [(d, -d)[mode] for d in live])
        for d in live:  # as on the density's rows: block d on mode 0, -d on mode 1
            block, rows = op.blocks[c - 1 + (d, -d)[mode]], self.blocks[c - 1 + d]
            rows = rows.T if mode else rows
            rows[...] = block @ rows


def _photon_counts(circuit: GaussianCircuit, cutoff: int) -> FockDensity:
    """:func:`replay_fock`'s counts of a two-mode circuit (occupations, trace,
    masses and refusals) bit for bit, from the c^3 entries of its density's
    sector n1 - m1 = m2 - n2, with no c^4 array: channels keep each mode's
    ket-minus-bra difference and beam splitters n1 + n2, so the diagonal reads
    only that sector.  Every product is one of :func:`_apply_pair`'s, on the
    sector's columns of its panels.  A channel block's product has the bits of
    every column panel but a one-column one (a matrix-vector product): where
    :func:`_apply_pair` leaves one, or a unitary other than a beam splitter on
    modes (0, 1) follows a channel, the replay runs whole."""
    elements, c = circuit.elements, cutoff
    lossy = [isinstance(e, (Loss, ThermalMix)) for e in elements] + [True]
    if circuit.num_modes != 2 or (c * c - 1) % max(1, (_SERIAL_MNK - 1) // c**2) == 0 or not all(
            isinstance(e, (Loss, ThermalMix)) or isinstance(e, BeamSplitter) and e.mode1 == 0
            for e in elements[lossy.index(True):]):
        return replay_fock(circuit, cutoff)
    ws = _CountsWorkspace(2, c)
    last = max((i for i, e in enumerate(elements) if isinstance(e, BeamSplitter)), default=-1)
    for i, elem in enumerate(elements):
        ws.sectors = range(1 - c, c) if i < last else (0,)
        _apply_element(ws, elem)
    return _checked(ws.result() if ws.vec is not None else
                    FockDensity(2, c, diagonal=ws.blocks[c - 1].reshape(-1)))


# ---------------------------------------------------------------------------
# measurements and comparisons
# ---------------------------------------------------------------------------


def _table(probs: np.ndarray) -> FCTable:
    """Probabilities above 1e-16 keyed by outcome; the rest is tail."""
    keep = probs > 1e-16
    return FCTable(dict(zip(map(tuple, np.argwhere(keep).tolist()), probs[keep].tolist())))


def photon_distribution(rho: FockDensity) -> FCTable:
    """Diagonal probabilities grouped by occupation tuple."""
    return _table(rho.occupations())


def _psd_sqrt(mat: np.ndarray) -> np.ndarray:
    w, v = np.linalg.eigh(mat)
    w = np.clip(w, 0.0, None)
    return (v * np.sqrt(w)) @ v.conj().T


def fidelity_fock(rho1: FockDensity, rho2: FockDensity) -> float:
    """Uhlmann fidelity of two truncated densities (nuclear norm of
    ``sqrt(rho1) sqrt(rho2)``)."""
    if (rho1.num_modes, rho1.cutoff) != (rho2.num_modes, rho2.cutoff):
        raise ValueError("density matrices must share a shape")
    for rho in (rho1, rho2):
        if rho.tail_mass > 1e-3:
            raise TruncationError(f"tail mass {rho.tail_mass:.2e} too large for fidelity")
    prod = _psd_sqrt(rho1.matrix) @ _psd_sqrt(rho2.matrix)
    sing = np.linalg.svd(prod, compute_uv=False)
    return float(min(1.0, sing.sum()))


def _dark_terms_bound(p: float) -> int:
    """At least the number of dark-count terms :func:`noise_kernel` keeps,
    in closed form: its loop stops at the first j with (1 - p) p^j <= 1e-16."""
    if not 0.0 < p < 1.0:
        return 1
    return max(1, math.ceil(math.log(1e-16 / (1.0 - p)) / math.log(p))) + 2


#: bytes per dark-count term while :func:`noise_kernel` builds: a Python
#: float, its list slot and the array entries
_DARK_TERM_BYTES = 64


def _kernel(p: float, pump: float) -> np.ndarray:
    # the loop runs once per term, so it may not start on a kernel that cannot fit
    _refuse_beyond_memory(f"detector noise with dark_p1 {p!r}",
                          _DARK_TERM_BYTES * float(_dark_terms_bound(p)))
    dark = [1.0 - p]
    while p > 0.0 and (1.0 - p) * p ** len(dark) > 1e-16:
        dark.append((1.0 - p) * p ** len(dark))
    kernel = np.zeros(len(dark) + 2)
    kernel[: len(dark)] += np.array(dark) * (1.0 - pump)
    if pump > 0.0:
        kernel[2:] += np.array(dark) * pump
    return kernel


def noise_kernel(det) -> np.ndarray:
    """Distribution of the spurious counts one detector adds: geometric dark
    counts with P(>= 1 count) = ``det.dark_p1``, down to probability 1e-16,
    plus two counts with probability ``det.pump_p2``.  A kernel too long for
    memory raises :class:`FockMemoryError` before it is built."""
    return _kernel(float(det.dark_p1), float(det.pump_p2))


@lru_cache(maxsize=128)
def _convolution(dark_p1: float, pump_p2: float, cutoff: int) -> np.ndarray:
    """Matrix that convolves an occupation axis of length ``cutoff`` with
    the noise kernel of ``dark_p1`` and ``pump_p2``."""
    kernel = _kernel(dark_p1, pump_p2)
    shift, level = np.indices((kernel.size, cutoff))
    conv = np.zeros((cutoff + kernel.size - 1, cutoff))
    conv[shift + level, level] = kernel[:, None]
    conv.setflags(write=False)
    return conv


def _noise_convolution(det, cutoff: int, ndim: int) -> np.ndarray:
    """The :func:`_convolution` of ``det`` at ``cutoff``, once a grid of
    ``ndim`` such axes is known to fit in memory with its noisy counts."""
    p = float(det.dark_p1)
    terms = _dark_terms_bound(p)
    # the last axis's input and output, the convolution and its index build
    size = cutoff + terms + 1
    need = 8.0 * (2.0 * size**ndim + 3.0 * (terms + 2) * cutoff)
    _refuse_beyond_memory(f"detector noise with dark_p1 {p!r} on {ndim} axes at cutoff {cutoff}",
                          need)
    return _convolution(p, float(det.pump_p2), cutoff)


def noisy_occupations(grid: np.ndarray, det) -> np.ndarray:
    """Observed count probabilities of the occupation ``grid``, one axis per
    detector: the occupations convolved with each detector's
    :func:`noise_kernel` in turn.  Axes run past the signal cutoff by the
    kernel's length less one."""
    conv = _noise_convolution(det, grid.shape[0], grid.ndim)
    for axis in range(grid.ndim):
        grid = _apply_single(grid, conv, axis)
    return grid


def attach_detector_noise(rho: FockDensity, det) -> FCTable:
    """Observed distribution after per-detector dark counts and pump leak.

    ``det`` needs ``dark_p1`` (probability of registering at least one
    noise photon) and ``pump_p2`` (probability of a spurious two-photon
    event) attributes.  Noise is convolved classically and independently
    per detector; outcomes may exceed the signal cutoff.
    """
    return _table(noisy_occupations(rho.occupations(), det))


# ---------------------------------------------------------------------------
# Gaussian -> Fock conversion
# ---------------------------------------------------------------------------


def _apply_passive(ws: _FockWorkspace, w: np.ndarray) -> None:
    num_modes = w.shape[0]
    if num_modes == 2:
        ws.apply_unitary(_passive_operator(w, ws.cutoff, ws.live((0, 1), False)), (0, 1))
        return
    # diag(d) = G_k ... G_1 w: the phases of d first, then each G undone
    rotations, diagonal = givens_reduction(w)
    for mode, phase in enumerate(np.angle(diagonal)):
        op = np.diag(np.exp(1j * phase * np.arange(ws.cutoff)))
        ws.apply_unitary(op, (mode,))
    for i, j, _, g in reversed(rotations):
        ws.apply_unitary(_passive_operator(g.conj().T, ws.cutoff, ws.live((i, j), False)), (i, j))


def gaussian_to_fock(state: GaussianState, cutoff: int) -> FockDensity:
    """Synthesize the truncated Fock density of a Gaussian state.

    Route: Williamson normal form (thermal core), Bloch-Messiah of the
    symplectic part (passive / squeeze / passive), then displacement.  A
    mixed state starts from the purification of its thermal core, so every
    unitary acts on one side only.
    """
    sympl, nu = williamson(state.cov)
    o1, rs, o2 = bloch_messiah(sympl)
    nbars = np.clip(nu - 0.5, 0.0, None)
    weights = None
    if np.max(nbars) > 1e-12:
        weights = np.ones(1)
        for nb in nbars:
            thermal = (nb / (1.0 + nb)) ** np.arange(cutoff) / (1.0 + nb)
            weights = np.outer(weights, thermal).reshape(-1)
    ws = _FockWorkspace(state.num_modes, cutoff, weights)
    ws.apply_start_passive(unitary_from_orthosymplectic(o2))
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
    return ws.result()
