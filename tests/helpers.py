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
