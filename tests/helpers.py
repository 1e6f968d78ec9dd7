"""Shared test utilities: random circuit generation and independent
brute-force oracles."""

from __future__ import annotations

import math

import numpy as np

from vibsim import calibrate, fock
from vibsim.gaussian import (
    BeamSplitter,
    Displace,
    GaussianCircuit,
    Loss,
    Squeeze,
    ThermalMix,
    TwoModeSqueeze,
    mean_photon,
    replay,
)

TROPOLONE_IDEAL = {
    (0, 0): 0.7731,
    (2, 0): 0.1097,
    (1, 1): 0.0469,
    (0, 2): 0.0041,
    (4, 0): 0.0233,
    (3, 1): 0.0200,
}


def random_circuit(
    rng: np.random.Generator,
    num_modes: int = 2,
    *,
    channels: bool = True,
    displacement: bool = True,
    max_mode_photons: float = 0.7,
    max_elements: int = 6,
) -> GaussianCircuit:
    """Random small circuit whose per-mode mean photon number stays below
    ``max_mode_photons`` (keeps truncated comparisons tight)."""
    while True:
        kinds = ["squeeze", "bs", "tms"]
        if channels:
            kinds += ["loss", "thermal"]
        if displacement:
            kinds.append("displace")
        elements = []
        for _ in range(rng.integers(2, max_elements + 1)):
            kind = kinds[rng.integers(len(kinds))]
            mode = int(rng.integers(num_modes))
            other = int((mode + 1 + rng.integers(num_modes - 1)) % num_modes) if num_modes > 1 else 0
            if kind == "squeeze":
                elements.append(Squeeze(mode, rng.uniform(-0.5, 0.5), rng.uniform(0, 2 * np.pi)))
            elif kind == "bs" and num_modes > 1:
                elements.append(BeamSplitter(mode, other, rng.uniform(-np.pi / 2, np.pi / 2),
                                             rng.uniform(0, 2 * np.pi)))
            elif kind == "tms" and num_modes > 1:
                elements.append(TwoModeSqueeze(mode, other, rng.uniform(0, 0.4)))
            elif kind == "loss":
                elements.append(Loss(mode, rng.uniform(0.3, 1.0)))
            elif kind == "thermal":
                elements.append(ThermalMix(mode, rng.uniform(0.0, 0.4), rng.uniform(0.0, 0.5)))
            elif kind == "displace":
                elements.append(Displace(mode, complex(rng.uniform(-0.4, 0.4), rng.uniform(-0.4, 0.4))))
        if not elements:
            continue
        circuit = GaussianCircuit(num_modes, elements)
        state = replay(circuit)
        if max(mean_photon(state, m) for m in range(num_modes)) < max_mode_photons:
            return circuit


class WholeOperatorWorkspace(fock._FockWorkspace):
    """A workspace that builds and applies every block of a pair operator on a
    ket, also those whose rows are zero; an oracle of the live-block build."""

    def live(self, modes, difference):
        return None


def lossy_tmsv_distribution(r: float, eta: float, nmax: int) -> dict[tuple[int, int], float]:
    """Closed form: geometric two-mode squeezed statistics thinned by
    independent binomial loss in each arm."""
    th2 = math.tanh(r) ** 2
    ch2 = math.cosh(r) ** 2
    out: dict[tuple[int, int], float] = {}
    for n in range(nmax + 40):
        pn = th2**n / ch2
        for m1 in range(min(n, nmax) + 1):
            b1 = math.comb(n, m1) * eta**m1 * (1 - eta) ** (n - m1)
            for m2 in range(min(n, nmax) + 1):
                b2 = math.comb(n, m2) * eta**m2 * (1 - eta) ** (n - m2)
                out[(m1, m2)] = out.get((m1, m2), 0.0) + pn * b1 * b2
    return out


def table_total_variation(p: dict, q: dict) -> float:
    keys = set(p) | set(q)
    return 0.5 * sum(abs(p.get(k, 0.0) - q.get(k, 0.0)) for k in keys)


def clear_fock_caches() -> None:
    """Empty every ``lru_cache`` builder of :mod:`vibsim.fock` and of
    :mod:`vibsim.calibrate`."""
    for fn in (*vars(fock).values(), *vars(calibrate).values()):
        if hasattr(fn, "cache_clear"):
            fn.cache_clear()


def lazy_nelder_mead(objective, start, bounds, tol=1e-6, max_iter=2000, events=None):
    """The Nelder-Mead method that calls a scalar ``objective`` on one point
    at a time, and only when the simplex rules read its value; an oracle of
    ``nelder_mead``, which scores every step's candidates in one call.
    ``events`` collects "iteration" and "shrink" as they happen."""
    from vibsim.optimize import SIMPLEX_STEP, OptResult, _clamp

    start = np.asarray(start, dtype=float)
    n = start.size
    lo = np.array([b[0] for b in bounds], dtype=float)
    hi = np.array([b[1] for b in bounds], dtype=float)
    events = [] if events is None else events

    def value(x):
        return -float(objective(_clamp(x, lo, hi)))

    simplex = [start]
    for i in range(n):
        step = SIMPLEX_STEP * (hi[i] - lo[i]) if math.isfinite(hi[i] - lo[i]) else 0.1
        step = step if step > 0 else 0.1
        vertex = start.copy()
        vertex[i] = vertex[i] + step if vertex[i] + step <= hi[i] else vertex[i] - step
        simplex.append(vertex)
    values = [value(v) for v in simplex]
    iterations = 0
    converged = False
    while iterations < max_iter:
        order = np.argsort(values)
        simplex = [simplex[i] for i in order]
        values = [values[i] for i in order]
        if max(np.linalg.norm(v - simplex[0]) for v in simplex[1:]) < tol:
            converged = True
            break
        iterations += 1
        events.append("iteration")
        centroid = np.mean(simplex[:-1], axis=0)
        worst = simplex[-1]
        reflected = centroid + (centroid - worst)
        fr = value(reflected)
        if values[0] <= fr < values[-2]:
            simplex[-1], values[-1] = reflected, fr
            continue
        if fr < values[0]:
            expanded = centroid + 2.0 * (centroid - worst)
            fe = value(expanded)
            simplex[-1], values[-1] = (expanded, fe) if fe < fr else (reflected, fr)
            continue
        contracted = centroid + 0.5 * (worst - centroid)
        fc = value(contracted)
        if fc < values[-1]:
            simplex[-1], values[-1] = contracted, fc
            continue
        events.append("shrink")
        best = simplex[0]
        simplex = [best] + [best + 0.5 * (v - best) for v in simplex[1:]]
        values = [values[0]] + [value(v) for v in simplex[1:]]
    ibest = int(np.argmin(values))
    return OptResult(_clamp(simplex[ibest], lo, hi), -values[ibest], iterations, converged)


def sequential_loss_sweep(target, losses, detector, distinguishability):
    """The loss sweep that optimizes its three curves one after another, each
    loss's run and restart through ``optimize_experiment``; an oracle of
    ``loss_sweep``, which advances the three runs, then the three restarts, in
    lockstep."""
    from vibsim.experiment import TMSV, ExperimentModel, SMSVPair
    from vibsim.fixtures import IDEAL_BS_TRANSMISSION
    from vibsim.optimize import optimize_experiment

    squeeze = (abs(target.squeeze[0]), abs(target.squeeze[1]))
    models = {
        "f_smsv": ExperimentModel(
            SMSVPair(*squeeze), IDEAL_BS_TRANSMISSION, detector=detector.ideal()
        ),
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
