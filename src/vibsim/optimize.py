"""Derivative-free optimization of experiment parameters and Monte Carlo
propagation of parameter uncertainty.  Nelder-Mead runs advance in lockstep,
all their candidates scored in one call."""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, replace

import numpy as np

from .experiment import (
    DetectorModel,
    ExperimentModel,
    ParameterUncertainty,
    SMSVPair,
    TMSV,
    model_fidelities,
)
from .fixtures import IDEAL_BS_TRANSMISSION
from .gaussian import MAX_SQUEEZING, _anywhere
from .vibronic import OpticalTarget

__all__ = [
    "OptResult",
    "nelder_mead",
    "optimize_experiment",
    "loss_sweep",
    "MonteCarloResult",
    "monte_carlo_fidelity",
    "MONTE_CARLO_BYTES_PER_DRAW",
    "DEFAULT_BOUNDS",
    "SIMPLEX_STEP",
]

#: first-simplex step of :func:`nelder_mead`, as a share of each bound range
SIMPLEX_STEP = 0.05


@dataclass(frozen=True)
class OptResult:
    x: np.ndarray
    value: float
    iterations: int
    converged: bool


def _clamp(x: np.ndarray, lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    return np.minimum(np.maximum(x, lo), hi)


def nelder_mead(objective, start, bounds, tol=1e-6, max_iter=2000) -> OptResult:
    """Maximize ``objective`` with a bounded Nelder-Mead simplex, with the
    standard coefficients: reflection 1, expansion 2, contraction and shrink 1/2.

    ``objective`` maps a (k, n) array of points to their k values.  It gets
    the first simplex, each shrink, and each iteration's reflection,
    expansion and contraction in one call (one of the three goes unused).
    Candidate points are clamped into ``bounds`` before evaluation.
    Terminates when the simplex diameter drops below ``tol`` or after
    ``max_iter`` iterations (the best point so far is returned either way).
    """
    return _lockstep(lambda asks: objective(asks[0]), [_simplex(start, bounds, tol, max_iter)])[0]


def _simplex(start, bounds, tol, max_iter):
    """A run of :func:`nelder_mead`: it yields the clamped (k, n) points it
    needs scored, is sent their k values, and returns its :class:`OptResult`."""
    start = np.asarray(start, dtype=float)
    n = start.size
    if n < 1:
        raise ValueError("need at least one parameter")
    lo = np.array([b[0] for b in bounds], dtype=float)
    hi = np.array([b[1] for b in bounds], dtype=float)
    if lo.size != n or np.any(lo > hi):
        raise ValueError("invalid bounds")
    if np.any(start < lo) or np.any(start > hi):
        raise ValueError("start must lie within bounds")

    def evaluate(points: list[np.ndarray]):  # the values -objective
        return (-np.asarray((yield _clamp(np.array(points), lo, hi)))).tolist()

    simplex = [start]
    for i in range(n):
        step = SIMPLEX_STEP * (hi[i] - lo[i]) if math.isfinite(hi[i] - lo[i]) else 0.1
        step = step if step > 0 else 0.1
        vertex = start.copy()
        vertex[i] = vertex[i] + step if vertex[i] + step <= hi[i] else vertex[i] - step
        simplex.append(vertex)
    values = yield from evaluate(simplex)

    iterations = 0
    converged = False
    while iterations < max_iter:
        order = np.argsort(values)
        simplex = [simplex[i] for i in order]
        values = [values[i] for i in order]
        # np.linalg.norm's and np.mean's arithmetic, without their per-call overhead
        diameter = max(math.sqrt(d.dot(d)) for d in (v - simplex[0] for v in simplex[1:]))
        if diameter < tol:
            converged = True
            break
        iterations += 1
        centroid = sum(simplex[1:-1], simplex[0]) / n
        worst = simplex[-1]
        reflected = centroid + (centroid - worst)
        expanded = centroid + 2.0 * (centroid - worst)
        contracted = centroid + 0.5 * (worst - centroid)
        fr, fe, fc = yield from evaluate([reflected, expanded, contracted])
        if values[0] <= fr < values[-2]:
            simplex[-1], values[-1] = reflected, fr
            continue
        if fr < values[0]:
            simplex[-1], values[-1] = (expanded, fe) if fe < fr else (reflected, fr)
            continue
        if fc < values[-1]:
            simplex[-1], values[-1] = contracted, fc
            continue
        best = simplex[0]
        simplex = [best] + [best + 0.5 * (v - best) for v in simplex[1:]]
        values = [values[0]] + (yield from evaluate(simplex[1:]))

    ibest = int(np.argmin(values))
    xbest = _clamp(simplex[ibest], lo, hi)
    return OptResult(xbest, -values[ibest], iterations, converged)


def _lockstep(objective, runs) -> list[OptResult]:
    """The results of ``runs`` of :func:`_simplex`, advanced together: at each
    step ``objective`` gets a dict of every unfinished run's points by run
    index, and returns all their values in that order in one array."""
    results, asks = {}, {i: next(run) for i, run in enumerate(runs)}
    while asks:
        values, end = np.asarray(objective(asks)), 0
        for i, points in list(asks.items()):
            end += len(points)
            try:
                asks[i] = runs[i].send(values[end - len(points):end])
            except StopIteration as done:
                results[i] = done.value
                del asks[i]
    return [results[i] for i in range(len(runs))]


#: physical parameter ranges for the experiment controllables
DEFAULT_BOUNDS = {
    "r": (0.0, 2.0),
    "r1": (0.0, 2.0),
    "r2": (0.0, 2.0),
    "bs_transmission": (0.0, 1.0),
}


def _optima(objective, starts, bounds) -> list[OptResult]:
    """Runs from ``starts`` to a simplex diameter of 1e-8, then one
    deterministic restart of each from its optimum perturbed, each set in
    :func:`_lockstep`: the restart's result where strictly better, and
    ``converged`` if either run converged."""
    def runs(points):
        return _lockstep(objective, [_simplex(x, b, 1e-8, 2000) for x, b in zip(points, bounds)])

    first = runs(starts)
    lo, hi = zip(*(np.array(b, dtype=float).T for b in bounds))
    alts = runs([_clamp(r.x + 0.07 * (h - l), l, h) for r, l, h in zip(first, lo, hi)])
    return [replace(alt if alt.value > r.value else r, converged=r.converged or alt.converged)
            for r, alt in zip(first, alts)]


def optimize_experiment(
    template: ExperimentModel, target: OpticalTarget
) -> tuple[ExperimentModel, float]:
    """Choose the controllable parameters (source squeezing and beam splitter
    transmission) maximizing the model fidelity, to a simplex diameter of
    1e-8.  One deterministic restart from a perturbed start guards against a
    poor initial simplex.  :func:`_optimum` also says whether a run converged.
    """
    model, result = _optimum(template, target)
    return model, result.value


def _optimum(template: ExperimentModel, target: OpticalTarget) -> tuple[ExperimentModel, OptResult]:
    """:func:`optimize_experiment`'s model, and its better run's result (see :func:`_optima`)."""
    controllables = {**asdict(template.source), "bs_transmission": template.bs_transmission}
    names = list(controllables)

    def objective(asks: dict[int, np.ndarray]) -> np.ndarray:
        return model_fidelities(template, target, **dict(zip(names, asks[0].T)))

    start = np.array(list(controllables.values()))
    [best] = _optima(objective, [start], [[DEFAULT_BOUNDS[n] for n in names]])
    return template.with_values(**dict(zip(names, best.x))), best


@dataclass(frozen=True)
class _SweepSource(SMSVPair):
    """A stack of SMSV pairs (rows at r = 0) and TMSVs (rows at r1 = r2 = 0):
    a source at zero squeezing passes through its elements with the same bits,
    bar a zero's sign, and adds exactly zero thermal photons.  Only r1 and r2
    are range-checked; the sweep's bounds hold r in [0, 2]."""

    r: float = 0.0

    def elements(self) -> list:  # a squeezer at zero on every row is left out
        return [e for e in super().elements() + TMSV.elements(self) if _anywhere(e.r != 0.0)]

    def mode_photons(self) -> tuple:
        return tuple(a + b for a, b in zip(super().mode_photons(), TMSV.mode_photons(self)))


def loss_sweep(
    target: OpticalTarget,
    losses,
    detector: DetectorModel,
    distinguishability: float,
) -> dict[str, list[float]]:
    """Optimized fidelity against equal pre-interference loss in both arms.

    At each loss, in the given order, three sources are optimized as
    :func:`optimize_experiment` does, each warm-started from its optimum at
    the previous loss: an SMSV pair with ideal detectors (``f_smsv``, and
    ``f_smsv_noisydet`` scaled by the detector's noise fidelity factor), a
    TMSV with ``detector`` (``f_tmsv``), and that TMSV with
    ``distinguishability`` (``f_tmsv_dist``).  Their runs, then their
    restarts, advance in :func:`_optima`'s lockstep: each step is one stack
    of :class:`_SweepSource` models, each row with the bits of its model alone.
    """
    factor = detector.noise_fidelity_factor
    names = ("r1", "r2", "r", "bs_transmission", "distinguishability")
    # each curve's row of these and its detector factor, and the entries its controllables fill
    fixed = np.array([[0, 0, 0, 0, 0, 1], [0, 0, 0, 0, 0, factor],
                      [0, 0, 0, 0, distinguishability, factor]], dtype=float)
    places = ([0, 1, 3], [2, 3], [2, 3])
    bounds = [[DEFAULT_BOUNDS[names[j]] for j in place] for place in places]
    starts = [np.array([abs(target.squeeze[0]), abs(target.squeeze[1]), IDEAL_BS_TRANSMISSION]),
              np.array([0.5, 0.5]), np.array([0.5, 0.5])]
    curves = {"f_smsv": [], "f_smsv_noisydet": [], "f_tmsv": [], "f_tmsv_dist": []}
    for loss in losses:
        template = ExperimentModel(_SweepSource(0.0, 0.0), 1.0, (1.0 - loss, 1.0 - loss),
                                   detector=detector.ideal())

        def objective(asks: dict[int, np.ndarray]) -> np.ndarray:
            rows = []
            for i, points in asks.items():
                rows.append(np.tile(fixed[i], (len(points), 1)))
                rows[-1][:, places[i]] = points
            rows = np.concatenate(rows)
            return model_fidelities(template, target, **dict(zip(names, rows[:, :5].T))) * rows[:, 5]

        best = _optima(objective, starts, bounds)
        starts = [r.x for r in best]
        for name, r in zip(("f_smsv", "f_tmsv", "f_tmsv_dist"), best):
            curves[name].append(r.value)
        curves["f_smsv_noisydet"].append(curves["f_smsv"][-1] * factor)
    return curves


#: bytes of working memory per draw of :func:`monte_carlo_fidelity`, which
#: holds the drawn columns and the stacked fold of all of them at once:
#: tracemalloc peaks of 912-963 bytes a draw, at 3000 to 100 000 draws of
#: either source with clamps, and about 40 % on top
MONTE_CARLO_BYTES_PER_DRAW = 1350.0


@dataclass(frozen=True)
class MonteCarloResult:
    mean: float
    std: float
    samples: np.ndarray
    clamp_events: int


def monte_carlo_fidelity(
    model: ExperimentModel,
    target: OpticalTarget,
    unc: ParameterUncertainty,
    n: int = 100,
    seed: int = 0,
) -> MonteCarloResult:
    """Propagate parameter uncertainty: draw each characterized parameter
    from an independent normal, clamp to its physical range, and collect
    the fidelity distribution.

    Exactly-unit transmissions and zero distinguishability are treated as
    "not part of the model" rather than characterized values, and are not
    perturbed.  Draws of squeezing above ``MAX_SQUEEZING``, or any whose
    fidelity overflows float64, raise a ``ValueError`` that names ``sigma_r``.
    """
    if n < 2:
        raise ValueError("need at least two samples")
    source = asdict(model.source)
    k = len(source)
    # every parameter, in the stream order of one model at a time; one that is
    # not drawn gets z = 0 and keeps its value
    values = np.array([*source.values(), model.bs_transmission, *model.loss_pre,
                       *model.loss_post, model.distinguishability])
    sigma = np.array([unc.sigma_r] * k + [unc.sigma_t] + [unc.sigma_loss] * 4 + [unc.sigma_delta])
    drawn = [True] * (k + 1) + [eta < 1.0 for eta in values[k + 1:-1]] + [values[-1] > 0.0]
    z = np.zeros((n, len(values)))
    z[:, drawn] = np.random.default_rng(seed).standard_normal((n, sum(drawn)))
    with np.errstate(over="ignore"):  # a huge sigma draws inf, as float arithmetic does
        perturbed = values + sigma * z
    clamped = _clamp(perturbed, 0.0, np.array([math.inf] * k + [1.0] * 6))
    # sigma_r is the one spread that no clamp bounds: check its draws before evaluating any
    top = float(clamped[:, :k].max())
    drawn_r = f"uncertainties.sigma_r = {unc.sigma_r:g} draws squeezing up to {top:.4g}"
    if not top <= MAX_SQUEEZING:
        raise ValueError(f"{drawn_r}; a squeezing magnitude must be finite, >= 0 and at most "
                         f"{MAX_SQUEEZING:g}")
    try:
        # a singular solve or an overflow: a draw squeezed past what float64 holds
        with np.errstate(over="raise", divide="raise", invalid="raise"):
            samples = model_fidelities(
                model, target, **dict(zip(source, clamped.T)), bs_transmission=clamped[:, k],
                loss_pre=clamped[:, k + 1:k + 3], loss_post=clamped[:, k + 3:k + 5],
                distinguishability=clamped[:, -1])
    except (np.linalg.LinAlgError, FloatingPointError) as exc:
        raise ValueError(f"{drawn_r}, past what float64 holds of a fidelity: {exc}") from None
    clamps = int(np.count_nonzero(clamped != perturbed))

    return MonteCarloResult(
        float(samples.mean()), float(samples.std(ddof=1)), samples, clamps
    )
