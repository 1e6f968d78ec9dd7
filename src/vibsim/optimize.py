"""Derivative-free optimization of experiment parameters and Monte Carlo
propagation of parameter uncertainty."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .experiment import (
    DetectorModel,
    ExperimentModel,
    ParameterUncertainty,
    SMSVPair,
    TMSV,
    model_fidelity,
)
from .fixtures import IDEAL_BS_TRANSMISSION
from .vibronic import OpticalTarget

__all__ = [
    "OptResult",
    "nelder_mead",
    "optimize_experiment",
    "loss_sweep",
    "MonteCarloResult",
    "monte_carlo_fidelity",
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


def nelder_mead(
    objective,
    start,
    bounds,
    tol: float = 1e-6,
    max_iter: int = 2000,
    *,
    alpha: float = 1.0,
    gamma: float = 2.0,
    rho: float = 0.5,
    sigma: float = 0.5,
) -> OptResult:
    """Maximize ``objective`` with a bounded Nelder-Mead simplex.

    Candidate points are clamped into ``bounds`` before evaluation.
    Terminates when the simplex diameter drops below ``tol`` or after
    ``max_iter`` iterations (the best point so far is returned either way).
    """
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

    def f(x: np.ndarray) -> float:
        return -float(objective(_clamp(x, lo, hi)))

    simplex = [start]
    for i in range(n):
        step = SIMPLEX_STEP * (hi[i] - lo[i]) if math.isfinite(hi[i] - lo[i]) else 0.1
        step = step if step > 0 else 0.1
        vertex = start.copy()
        vertex[i] = vertex[i] + step if vertex[i] + step <= hi[i] else vertex[i] - step
        simplex.append(vertex)
    values = [f(v) for v in simplex]

    iterations = 0
    converged = False
    while iterations < max_iter:
        order = np.argsort(values)
        simplex = [simplex[i] for i in order]
        values = [values[i] for i in order]
        diameter = max(np.linalg.norm(v - simplex[0]) for v in simplex[1:])
        if diameter < tol:
            converged = True
            break
        iterations += 1
        centroid = np.mean(simplex[:-1], axis=0)
        worst = simplex[-1]
        reflected = centroid + alpha * (centroid - worst)
        fr = f(reflected)
        if values[0] <= fr < values[-2]:
            simplex[-1], values[-1] = reflected, fr
            continue
        if fr < values[0]:
            expanded = centroid + gamma * (centroid - worst)
            fe = f(expanded)
            if fe < fr:
                simplex[-1], values[-1] = expanded, fe
            else:
                simplex[-1], values[-1] = reflected, fr
            continue
        contracted = centroid + rho * (worst - centroid)
        fc = f(contracted)
        if fc < values[-1]:
            simplex[-1], values[-1] = contracted, fc
            continue
        best = simplex[0]
        simplex = [best] + [best + sigma * (v - best) for v in simplex[1:]]
        values = [values[0]] + [f(v) for v in simplex[1:]]

    ibest = int(np.argmin(values))
    xbest = _clamp(simplex[ibest], lo, hi)
    return OptResult(xbest, -values[ibest], iterations, converged)


#: physical parameter ranges for the experiment controllables
DEFAULT_BOUNDS = {
    "r": (0.0, 2.0),
    "r1": (0.0, 2.0),
    "r2": (0.0, 2.0),
    "t_bs": (0.0, 1.0),
}


def _free_parameters(model: ExperimentModel, free) -> list[str]:
    if free is not None:
        return list(free)
    if isinstance(model.source, TMSV):
        return ["r", "t_bs"]
    return ["r1", "r2", "t_bs"]


def _get_parameter(model: ExperimentModel, name: str) -> float:
    if name == "r":
        return model.source.r
    if name == "r1":
        return model.source.r1
    if name == "r2":
        return model.source.r2
    if name == "t_bs":
        return model.bs_transmission
    raise ValueError(f"unknown controllable {name!r}")


def optimize_experiment(
    template: ExperimentModel,
    target: OpticalTarget,
    free=None,
    *,
    tol: float = 1e-8,
    max_iter: int = 2000,
) -> tuple[ExperimentModel, float]:
    """Choose the controllable parameters maximizing the model fidelity.

    ``free`` names the controllables (default: source squeezing plus beam
    splitter transmission).  One deterministic restart from a perturbed
    start guards against a poor initial simplex.
    """
    names = _free_parameters(template, free)
    if not names:
        raise ValueError("need at least one free parameter")
    bounds = [DEFAULT_BOUNDS[n] for n in names]

    def objective(x: np.ndarray) -> float:
        model = template.with_values(**dict(zip(names, x)))
        return model_fidelity(model, target)

    start = np.array([_get_parameter(template, n) for n in names])
    best = nelder_mead(objective, start, bounds, tol=tol, max_iter=max_iter)
    lo = np.array([b[0] for b in bounds])
    hi = np.array([b[1] for b in bounds])
    alt_start = _clamp(best.x + 0.07 * (hi - lo), lo, hi)
    alt = nelder_mead(objective, alt_start, bounds, tol=tol, max_iter=max_iter)
    if alt.value > best.value:
        best = alt
    model = template.with_values(**dict(zip(names, best.x)))
    return model, best.value


def loss_sweep(
    target: OpticalTarget,
    losses,
    detector: DetectorModel,
    distinguishability: float,
) -> dict[str, list[float]]:
    """Optimized fidelity against equal pre-interference loss in both arms.

    At each loss, in the given order, three sources are optimized, each
    warm-started from its optimum at the previous loss: an SMSV pair with
    ideal detectors (``f_smsv``, and ``f_smsv_noisydet`` scaled by the
    detector's noise fidelity factor), a TMSV with ``detector``
    (``f_tmsv``), and that TMSV with ``distinguishability``
    (``f_tmsv_dist``).
    """
    squeeze = (abs(target.squeeze[0]), abs(target.squeeze[1]))
    ideal = DetectorModel(0.0, 0.0, 1.0)
    models = {
        "f_smsv": ExperimentModel(SMSVPair(*squeeze), IDEAL_BS_TRANSMISSION, detector=ideal),
        "f_tmsv": ExperimentModel(TMSV(0.5), 0.5, detector=detector),
        "f_tmsv_dist": ExperimentModel(
            TMSV(0.5), 0.5, distinguishability=distinguishability, detector=detector
        ),
    }
    curves = {"f_smsv": [], "f_smsv_noisydet": [], "f_tmsv": [], "f_tmsv_dist": []}
    for loss in losses:
        for name, model in models.items():
            models[name], f = optimize_experiment(
                model.with_values(loss_pre=(1.0 - loss, 1.0 - loss)), target
            )
            curves[name].append(f)
        curves["f_smsv_noisydet"].append(curves["f_smsv"][-1] * detector.noise_fidelity_factor)
    return curves


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
    perturbed.
    """
    if n < 2:
        raise ValueError("need at least two samples")
    rng = np.random.default_rng(seed)
    samples = np.empty(n)
    clamps = 0

    def draw(value: float, sigma: float, lo: float, hi: float) -> float:
        nonlocal clamps
        perturbed = value + sigma * rng.standard_normal()
        clamped = min(max(perturbed, lo), hi)
        if clamped != perturbed:
            clamps += 1
        return clamped

    for i in range(n):
        updates: dict[str, float] = {}
        if isinstance(model.source, TMSV):
            updates["r"] = draw(model.source.r, unc.sigma_r, 0.0, math.inf)
        else:
            updates["r1"] = draw(model.source.r1, unc.sigma_r, 0.0, math.inf)
            updates["r2"] = draw(model.source.r2, unc.sigma_r, 0.0, math.inf)
        updates["t_bs"] = draw(model.bs_transmission, unc.sigma_t, 0.0, 1.0)
        updates["loss_pre"] = tuple(
            draw(eta, unc.sigma_loss, 0.0, 1.0) if eta < 1.0 else eta
            for eta in model.loss_pre
        )
        updates["loss_post"] = tuple(
            draw(eta, unc.sigma_loss, 0.0, 1.0) if eta < 1.0 else eta
            for eta in model.loss_post
        )
        if model.distinguishability > 0.0:
            updates["distinguishability"] = draw(
                model.distinguishability, unc.sigma_delta, 0.0, 1.0
            )
        samples[i] = model_fidelity(model.with_values(**updates), target)

    return MonteCarloResult(
        float(samples.mean()), float(samples.std(ddof=1)), samples, clamps
    )
