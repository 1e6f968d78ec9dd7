"""Independent reference computations for the benchmark's output checks.

Written with numpy alone, from the physics rather than from vibsim's code:
closed-form Gaussian covariances of the experiment model and of the
targets, pure-target fidelities, vacuum probabilities and mean photon
numbers, a numpy-only maximiser for the fidelity landscapes, and a
generator of tomography histograms from binomially thinned geometric
statistics.

Conventions are the ones vibsim documents: quadratures ordered
``(x_1..x_M, p_1..p_M)``, vacuum covariance ``I/2``, a beam splitter of
intensity transmission ``t`` mixes with ``W = [[sqrt t, sqrt(1-t)],
[-sqrt(1-t), sqrt t]]``, ``Squeeze(r)`` scales ``x`` by ``exp(-r)``.
"""

from __future__ import annotations

import math

import numpy as np

# ---------------------------------------------------------------------------
# covariance matrices (batched over a leading axis where noted)
# ---------------------------------------------------------------------------


def _passive(w: np.ndarray) -> np.ndarray:
    """Real 2M x 2M symplectic of a real mode mixing ``a -> W a``."""
    m = w.shape[-1]
    out = np.zeros(w.shape[:-2] + (2 * m, 2 * m))
    out[..., :m, :m] = w
    out[..., m:, m:] = w
    return out


def _bs(t: np.ndarray) -> np.ndarray:
    """Batched two-mode beam splitter of intensity transmission ``t``."""
    c, s = np.sqrt(t), np.sqrt(1.0 - t)
    w = np.empty(t.shape + (2, 2))
    w[..., 0, 0] = c
    w[..., 0, 1] = s
    w[..., 1, 0] = -s
    w[..., 1, 1] = c
    return _passive(w)


def _attenuate(v: np.ndarray, mode: int, keep: np.ndarray, added: np.ndarray) -> np.ndarray:
    """Scale one mode's rows and columns by sqrt(keep) and add ``added``
    to its two diagonal entries (loss and thermal admixture)."""
    m = v.shape[-1] // 2
    scale = np.ones(v.shape[:-1])
    g = np.sqrt(keep)
    scale[..., mode] = g
    scale[..., mode + m] = g
    v = v * scale[..., :, None] * scale[..., None, :]
    v[..., mode, mode] += added
    v[..., mode + m, mode + m] += added
    return v


def experiment_cov(source: str, params: dict, *, loss_pre=(1.0, 1.0),
                   loss_post=(1.0, 1.0), delta: float = 0.0) -> np.ndarray:
    """Covariance of the two-mode experiment model, batched over the
    arrays in ``params``: ``r`` for a two-mode squeezed source, ``r1`` and
    ``r2`` for a pair of single-mode squeezers, and ``t`` for the
    interference beam splitter."""
    t = np.asarray(params["t"], dtype=float)
    shape = t.shape
    v = np.zeros(shape + (4, 4))
    if source == "tmsv":
        r = np.broadcast_to(np.asarray(params["r"], dtype=float), shape)
        c2, s2 = 0.5 * np.cosh(2 * r), 0.5 * np.sinh(2 * r)
        for i in (0, 1, 2, 3):
            v[..., i, i] = c2
        v[..., 0, 1] = v[..., 1, 0] = s2
        v[..., 2, 3] = v[..., 3, 2] = -s2
        nbar = (np.sinh(r) ** 2, np.sinh(r) ** 2)
    else:
        r1 = np.broadcast_to(np.asarray(params["r1"], dtype=float), shape)
        r2 = np.broadcast_to(np.asarray(params["r2"], dtype=float), shape)
        # mode 0 is squeezed in p (x stretched), mode 1 in x
        v[..., 0, 0] = 0.5 * np.exp(2 * r1)
        v[..., 2, 2] = 0.5 * np.exp(-2 * r1)
        v[..., 1, 1] = 0.5 * np.exp(-2 * r2)
        v[..., 3, 3] = 0.5 * np.exp(2 * r2)
        nbar = (np.sinh(r1) ** 2, np.sinh(r2) ** 2)
    if delta > 0.0:
        for mode in (0, 1):
            v = _attenuate(v, mode, 1.0 - delta, delta * (nbar[mode] + 0.5))
    for mode, eta in enumerate(loss_pre):
        v = _attenuate(v, mode, eta, 0.5 * (1.0 - eta))
    s = _bs(t)
    v = s @ v @ np.swapaxes(s, -1, -2)
    for mode, eta in enumerate(loss_post):
        v = _attenuate(v, mode, eta, 0.5 * (1.0 - eta))
    return v


def optical_target_moments(squeeze, bs_angle=None, displacement=None):
    """Mean and covariance of squeezers followed by one beam splitter and a
    displacement, as in the ``optical`` target recipe."""
    sq = np.asarray(squeeze, dtype=float)
    m = sq.size
    v = 0.5 * np.diag(np.concatenate([np.exp(-2 * sq), np.exp(2 * sq)]))
    if bs_angle is not None:
        c, s = math.cos(bs_angle), math.sin(bs_angle)
        sym = _passive(np.array([[c, s], [-s, c]]))
        v = sym @ v @ sym.T
    mean = np.zeros(2 * m)
    for i, (re, im) in enumerate(displacement or []):
        mean[i] = math.sqrt(2.0) * re
        mean[i + m] = math.sqrt(2.0) * im
    return mean, v


def transition_moments(duschinsky, ground, excited, displacement=None):
    """Mean and covariance of the vibronic state of a Duschinsky transition.

    The point transformation ``J = diag(sqrt w') U diag(1/sqrt w)`` acts on
    the ground-state vacuum: ``V_xx = J J^T / 2``, ``V_pp = (J J^T)^-1 / 2``,
    and the dimensionless displacement shifts ``x``.
    """
    u = np.asarray(duschinsky, dtype=float)
    j = np.diag(np.sqrt(excited)) @ u @ np.diag(1.0 / np.sqrt(ground))
    jj = j @ j.T
    m = u.shape[0]
    v = np.zeros((2 * m, 2 * m))
    v[:m, :m] = 0.5 * jj
    v[m:, m:] = 0.5 * np.linalg.inv(jj)
    mean = np.zeros(2 * m)
    if displacement is not None:
        mean[:m] = np.asarray(displacement, dtype=float)
    return mean, v


# ---------------------------------------------------------------------------
# observables of Gaussian states
# ---------------------------------------------------------------------------


def pure_fidelity(v_model: np.ndarray, v_target: np.ndarray, delta_mean=None) -> np.ndarray:
    """Uhlmann fidelity (non-squared) to a pure target:
    ``F = det(V1 + V2)^(-1/4) exp(-d^T (V1 + V2)^-1 d / 4)``; batched over
    ``v_model``."""
    vs = v_model + v_target
    f = np.linalg.det(vs) ** -0.25
    if delta_mean is not None and np.any(delta_mean):
        f = f * np.exp(-0.25 * delta_mean @ np.linalg.solve(vs, delta_mean))
    return f


def vacuum_probability(mean: np.ndarray, v: np.ndarray) -> float:
    """Probability of no photon in any mode: the overlap with vacuum."""
    vs = v + 0.5 * np.eye(v.shape[0])
    expo = -0.5 * mean @ np.linalg.solve(vs, mean)
    return float(math.exp(expo) / math.sqrt(np.linalg.det(vs)))


def mean_photons(mean: np.ndarray, v: np.ndarray) -> np.ndarray:
    m = v.shape[0] // 2
    d = np.diag(v)
    return 0.5 * (d[:m] + d[m:] - 1.0) + 0.5 * (mean[:m] ** 2 + mean[m:] ** 2)


def classical_fidelity(v_target: np.ndarray) -> float:
    """Fidelity of the best classical state, a coherent state at the
    target's mean, to a pure target."""
    return float(np.linalg.det(v_target + 0.5 * np.eye(v_target.shape[0])) ** -0.25)


# ---------------------------------------------------------------------------
# numpy-only maximiser of the experiment fidelity
# ---------------------------------------------------------------------------

BOUNDS = {"r": (0.0, 2.0), "r1": (0.0, 2.0), "r2": (0.0, 2.0), "t": (0.0, 1.0)}


def free_names(source: str) -> tuple[str, ...]:
    return ("r", "t") if source == "tmsv" else ("r1", "r2", "t")


def fidelity_landscape(source, v_target, *, loss_pre, delta, factor, loss_post=(1.0, 1.0)):
    """Vectorised fidelity of the model as a function of its controllables."""
    names = free_names(source)

    def f(x: np.ndarray) -> np.ndarray:
        params = {n: x[..., i] for i, n in enumerate(names)}
        cov = experiment_cov(source, params, loss_pre=loss_pre, loss_post=loss_post, delta=delta)
        return factor * pure_fidelity(cov, v_target)

    return names, f


def grid_maximum(f, names, rng: np.random.Generator, points: int) -> tuple[float, np.ndarray]:
    """Maximum of ``f`` over a regular grid shifted by a seeded offset."""
    axes = []
    for n in names:
        lo, hi = BOUNDS[n]
        step = (hi - lo) / points
        axes.append(lo + step * (np.arange(points) + rng.uniform(0.0, 1.0)))
    mesh = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, len(names))
    vals = f(mesh)
    best = int(np.argmax(vals))
    return float(vals[best]), mesh[best]


def refine(f, names, x0: np.ndarray, *, step: float = 0.05, tol: float = 1e-11):
    """Compass search from ``x0`` inside the bounds; returns the maximum."""
    lo = np.array([BOUNDS[n][0] for n in names])
    hi = np.array([BOUNDS[n][1] for n in names])
    dirs = np.concatenate([np.eye(len(names)), -np.eye(len(names))])
    x = np.clip(np.asarray(x0, dtype=float), lo, hi)
    fx = float(f(x))
    while step > tol:
        cand = np.clip(x + step * dirs, lo, hi)
        vals = f(cand)
        k = int(np.argmax(vals))
        if vals[k] > fx:
            x, fx = cand[k], float(vals[k])
        else:
            step *= 0.5
    return fx, x


def independent_maximum(f, names, rng, points: int = 14) -> tuple[float, float]:
    """(grid maximum, refined maximum) of a fidelity landscape."""
    g, x = grid_maximum(f, names, rng, points)
    best, _ = refine(f, names, x)
    return g, max(best, g)


# ---------------------------------------------------------------------------
# detector noise and tomography histograms
# ---------------------------------------------------------------------------


def noise_kernel(dark_p1: float, pump_p2: float) -> np.ndarray:
    """Per-detector spurious-count distribution: geometric dark counts with
    P(at least one) = dark_p1, plus two extra counts with probability
    pump_p2."""
    kmax = 1
    while dark_p1 > 0.0 and (1.0 - dark_p1) * dark_p1**kmax > 1e-17:
        kmax += 1
    dark = (1.0 - dark_p1) * dark_p1 ** np.arange(kmax)
    out = np.zeros(kmax + 2)
    out[:kmax] += (1.0 - pump_p2) * dark
    out[2:] += pump_p2 * dark
    return out


def noise_mean(dark_p1: float, pump_p2: float) -> float:
    return dark_p1 / (1.0 - dark_p1) + 2.0 * pump_p2


def _binomial_matrix(nmax: int, eta: float) -> np.ndarray:
    """B[n, m] = C(n, m) eta^m (1-eta)^(n-m)."""
    b = np.zeros((nmax + 1, nmax + 1))
    for n in range(nmax + 1):
        for m in range(n + 1):
            b[n, m] = math.comb(n, m) * eta**m * (1.0 - eta) ** (n - m)
    return b


def lossy_tmsv_counts(r: float, eta: tuple[float, float], dark_p1: float,
                      pump_p2: float, nmax: int = 60) -> np.ndarray:
    """Joint count distribution of a two-mode squeezed source, each arm
    thinned binomially and convolved with its detector's noise kernel."""
    lam = math.tanh(r) ** 2
    pn = (1.0 - lam) * lam ** np.arange(nmax + 1)
    joint = _binomial_matrix(nmax, eta[0]).T @ np.diag(pn) @ _binomial_matrix(nmax, eta[1])
    k = noise_kernel(dark_p1, pump_p2)
    conv = np.apply_along_axis(np.convolve, 0, joint, k)
    conv = np.apply_along_axis(np.convolve, 1, conv, k)
    return conv / conv.sum()


def pooled_tvd(p: np.ndarray, q: np.ndarray, cutoff: int) -> float:
    """Total variation distance of two joint distributions after pooling
    every outcome with a count at or above ``cutoff`` into one sink."""
    a, b = p[:cutoff, :cutoff], q[:cutoff, :cutoff]
    return 0.5 * (float(np.abs(a - b).sum()) + abs((1.0 - a.sum()) - (1.0 - b.sum())))


def sample_counts(probs: np.ndarray, shots: int, rng: np.random.Generator) -> np.ndarray:
    flat = rng.multinomial(shots, probs.reshape(-1))
    return flat.reshape(probs.shape)


def write_histogram(path, counts: np.ndarray) -> None:
    """CSV ``m1,m2,count`` plus a JSON sidecar with the shot count."""
    lines = ["m1,m2,count"]
    for (m1, m2), c in np.ndenumerate(counts):
        if c:
            lines.append(f"{m1},{m2},{c}")
    path.write_text("\n".join(lines) + "\n")
    path.with_suffix(".json").write_text('{"shots": %d}\n' % int(counts.sum()))


# ---------------------------------------------------------------------------
# tables
# ---------------------------------------------------------------------------


def read_table_csv(path) -> dict[tuple[int, ...], tuple[float, float]]:
    """Rows of an ``ideal_table.csv`` / ``observed.csv``: outcome ->
    (frequency, probability)."""
    rows = path.read_text().splitlines()
    header = rows[0].split(",")
    modes = len(header) - 2
    out = {}
    for line in rows[1:]:
        fields = line.split(",")
        out[tuple(int(v) for v in fields[:modes])] = (float(fields[modes]), float(fields[modes + 1]))
    return out


def table_means(probs: dict[tuple[int, ...], float], modes: int) -> np.ndarray:
    means = np.zeros(modes)
    for outcome, p in probs.items():
        means += p * np.asarray(outcome, dtype=float)
    return means
