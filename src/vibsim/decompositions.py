"""Symplectic matrix decompositions used for state synthesis.

All matrices are real and use the xxpp quadrature ordering of
:mod:`vibsim.gaussian`.
"""

from __future__ import annotations

import numpy as np

from .gaussian import BeamSplitter, symplectic_form

__all__ = [
    "williamson",
    "bloch_messiah",
    "unitary_from_orthosymplectic",
    "givens_reduction",
    "givens_rotations",
]


def _xxpp_to_xpxp_perm(num_modes: int) -> np.ndarray:
    """Permutation indices p with A_xpxp = A_xxpp[p][:, p]."""
    idx = np.empty(2 * num_modes, dtype=int)
    idx[0::2] = np.arange(num_modes)
    idx[1::2] = np.arange(num_modes) + num_modes
    return idx


def williamson(cov: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Williamson normal form of a symmetric positive-definite matrix.

    Returns ``(S, nu)`` with ``cov = S @ D @ S.T`` where
    ``D = diag(nu_1..nu_M, nu_1..nu_M)`` and ``S`` symplectic.
    """
    from scipy.linalg import schur, sqrtm

    cov = np.asarray(cov, dtype=float)
    n2 = cov.shape[0]
    if cov.shape != (n2, n2) or n2 % 2:
        raise ValueError("covariance must be square with even dimension")
    num_modes = n2 // 2
    perm = _xxpp_to_xpxp_perm(num_modes)
    vp = cov[np.ix_(perm, perm)]

    omega_xp = np.zeros((n2, n2))
    j2 = np.array([[0.0, 1.0], [-1.0, 0.0]])
    for i in range(num_modes):
        omega_xp[2 * i : 2 * i + 2, 2 * i : 2 * i + 2] = j2

    root = sqrtm(vp).real
    root_inv = np.linalg.inv(root)
    skew = root_inv @ omega_xp @ root_inv
    skew = 0.5 * (skew - skew.T)
    # real Schur form of a skew matrix: 2x2 blocks [[0, b], [-b, 0]]
    t, q = schur(skew, output="real")
    lam = np.empty(num_modes)
    for i in range(num_modes):
        b = t[2 * i, 2 * i + 1]
        if b < 0:  # swap the plane's basis vectors so b > 0
            q[:, [2 * i, 2 * i + 1]] = q[:, [2 * i + 1, 2 * i]]
            b = -b
        lam[i] = b
    nu = 1.0 / lam
    scale = np.repeat(np.sqrt(lam), 2)
    s_xp = root @ q @ np.diag(scale)

    inv_perm = np.argsort(perm)
    s = s_xp[np.ix_(inv_perm, inv_perm)]
    # re-order modes so nu ascends, for reproducibility
    order = np.argsort(nu)
    mode_perm = np.concatenate([order, order + num_modes])
    return s[:, mode_perm], nu[order]


def _symplectic_planes(p: np.ndarray, omega: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Pair the eigenvectors of a symmetric positive-definite symplectic
    matrix into (x, p) planes.

    Returns ``(q, r)`` with ``q`` orthogonal symplectic (xxpp) and
    ``p = q @ diag(exp(r), exp(-r)) @ q.T``.
    """
    dim = p.shape[0]
    num_modes = dim // 2
    evals, evecs = np.linalg.eigh(p)
    x_cols: list[np.ndarray] = []
    p_cols: list[np.ndarray] = []
    rs: list[float] = []
    used = np.zeros(dim, dtype=bool)
    order = np.argsort(-evals)  # largest first so each plane is picked once
    for k in order:
        if used[k] or evals[k] < 1.0 - 1e-12:
            continue
        v = evecs[:, k]
        # project out planes already chosen (needed in degenerate clusters)
        for u in x_cols + p_cols:
            v = v - (u @ v) * u
        norm = np.linalg.norm(v)
        if norm < 1e-8:
            used[k] = True
            continue
        v = v / norm
        w = -omega @ v
        for u in x_cols + p_cols:
            w = w - (u @ w) * u
        w = w / np.linalg.norm(w)
        x_cols.append(v)
        p_cols.append(w)
        rs.append(float(np.log(max(evals[k], 1.0))))
        used[k] = True
        if len(rs) == num_modes:
            break
    if len(rs) != num_modes:
        raise np.linalg.LinAlgError("failed to pair symplectic eigenplanes")
    q = np.column_stack(x_cols + p_cols)
    return q, np.array(rs)


def bloch_messiah(s: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Euler/Bloch-Messiah decomposition of a real symplectic matrix.

    Returns ``(o1, r, o2)`` with ``s = o1 @ Z @ o2`` where ``o1``, ``o2``
    are orthogonal symplectic and ``Z = diag(exp(r), exp(-r))`` in xxpp
    ordering (x scaled by ``exp(r_i)`` on mode i).
    """
    s = np.asarray(s, dtype=float)
    dim = s.shape[0]
    num_modes = dim // 2
    omega = symplectic_form(num_modes)
    if np.max(np.abs(s @ omega @ s.T - omega)) > 1e-8:
        raise ValueError("input matrix is not symplectic")
    # polar decomposition s = p @ o, p symmetric positive definite; only p is formed
    u, sing, vt = np.linalg.svd(s)
    p = u @ np.diag(sing) @ u.T
    q, r = _symplectic_planes(p, omega)
    z_inv = np.exp(np.concatenate([-r, r]))
    o2 = np.diag(z_inv) @ q.T @ s  # q.T @ o, since p = q @ Z @ q.T
    # clean round-off: project onto the orthogonal group
    uu, _, vv = np.linalg.svd(o2)
    o2 = uu @ vv
    return q, r, o2


def unitary_from_orthosymplectic(o: np.ndarray) -> np.ndarray:
    """Complex mode-mixing unitary W of a passive symplectic matrix.

    Inverse of :func:`vibsim.gaussian.passive_symplectic`.
    """
    dim = o.shape[0]
    num_modes = dim // 2
    xx = o[:num_modes, :num_modes]
    px = o[num_modes:, :num_modes]
    w = xx + 1j * px
    if np.max(np.abs(w @ w.conj().T - np.eye(num_modes))) > 1e-8:
        raise ValueError("matrix is not orthogonal symplectic")
    return w


def givens_reduction(u: np.ndarray) -> tuple[list[tuple[int, int, float, np.ndarray]], np.ndarray]:
    """Reduce a unitary to ``diag(d) = G_k ... G_1 u`` with two-mode
    rotations that zero the lower triangle column by column (Reck et al.,
    Phys. Rev. Lett. 73, 58 (1994)); returns ``[(i, j, theta, g)]`` and ``d``.

    A real ``u`` keeps real arithmetic: ``theta = arctan2(b, a)``,
    ``g = [[cos, sin], [-sin, cos]]``.  For a complex one the phases of
    ``a`` and ``b`` move into ``g`` and ``theta = arctan2(|b|, |a|)``.
    """
    work = np.array(u)
    n = work.shape[0]
    is_complex = np.iscomplexobj(work)
    rotations = []
    for col in range(n - 1):
        for row in range(col + 1, n):
            a, b = work[col, col], work[row, col]
            if abs(b) < 1e-14:
                continue
            if is_complex:
                pa, pb = np.exp(1j * np.angle(a)), np.exp(1j * np.angle(b))
                theta = np.arctan2(abs(b), abs(a))
            else:
                pa = pb = 1.0
                theta = np.arctan2(b, a)
            c, s = np.cos(theta), np.sin(theta)
            g = np.array([[c * np.conj(pa), s * np.conj(pb)], [-s * pb, c * pa]])
            full = np.eye(n, dtype=work.dtype)
            full[np.ix_([col, row], [col, row])] = g
            work = full @ work
            rotations.append((col, row, theta, g))
    return rotations, np.diag(work)


def givens_rotations(rot: np.ndarray) -> list[BeamSplitter]:
    """Decompose a real orthogonal matrix with det +1 into beam splitters.

    The returned elements, applied in order to an input vector of mode
    operators, realize ``a -> rot @ a``.
    """
    rot = np.asarray(rot, dtype=float)
    if abs(np.linalg.det(rot) - 1.0) > 1e-8:
        raise ValueError("expected a rotation (orthogonal, det +1)")
    rotations, diagonal = givens_reduction(rot)
    # a beam splitter of angle theta has W = [[c, s], [-s, c]]: undo the
    # rotations in reverse, after pi rotations folding the diagonal's sign pairs
    neg = [i for i, d in enumerate(diagonal) if d < 0]
    elements = [BeamSplitter(i, j, -theta) for i, j, theta, _ in reversed(rotations)]
    for i, j in zip(neg[0::2], neg[1::2]):
        elements.insert(0, BeamSplitter(i, j, np.pi))
    return elements
