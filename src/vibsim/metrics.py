"""Distances, error bounds, and the classical benchmark.

The bound chain: total variation distance of photon statistics is at most
the trace distance of the states, which is at most ``sqrt(1 - F^2)``; a
statistical term and a model-mismatch term add on top.  The classical
benchmark is the highest-fidelity state with a regular P-function, a
coherent state sharing the target's displacement.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .gaussian import GaussianState, fidelity
from .tables import FCTable
from .vibronic import OpticalTarget

__all__ = [
    "ErrorBudget",
    "ClassicalBenchmark",
    "WitnessResult",
    "tvd",
    "restrict_to",
    "trace_bound",
    "total_bound",
    "closest_classical",
    "witness",
]


@dataclass(frozen=True)
class ErrorBudget:
    """Fidelity-based error bound plus statistical and model terms."""

    fidelity: float
    fidelity_bound: float
    eps_stat: float
    eps_g: float
    total: float


@dataclass(frozen=True)
class ClassicalBenchmark:
    classical_state: GaussianState
    classical_fidelity: float
    classical_bound: float


@dataclass(frozen=True)
class WitnessResult:
    passes: bool
    margin_sigmas: float


def tvd(p: FCTable, q: FCTable, *, residual_sink: bool = True) -> float:
    """Total variation distance ``(1/2) sum |p - q|``.

    With ``residual_sink=True`` each table's unlisted remainder is folded
    into a shared sink outcome before comparing; with ``False`` only the
    listed outcomes are compared (the convention for excerpted tables whose
    remainders cover different outcome sets).
    """
    if p.num_modes != q.num_modes:
        raise ValueError("tables have different mode counts")
    if residual_sink:
        p, q = p.with_sink(), q.with_sink()
    keys = set(p.entries) | set(q.entries)
    return 0.5 * sum(abs(p.probability(k) - q.probability(k)) for k in keys)


def restrict_to(table: FCTable, outcomes) -> FCTable:
    """Restrict a table to the given outcomes (remainder becomes tail)."""
    return FCTable({tuple(o): table.probability(tuple(o)) for o in outcomes})


def trace_bound(f: float) -> float:
    """Upper bound ``sqrt(1 - F^2)`` on the trace distance."""
    if not 0.0 <= f <= 1.0:
        raise ValueError("fidelity must lie in [0, 1]")
    return math.sqrt(max(0.0, 1.0 - f * f))


def total_bound(f: float, eps_stat: float, eps_g: float) -> ErrorBudget:
    """Full error budget: fidelity bound plus sampling and model terms."""
    if eps_stat < 0 or eps_g < 0:
        raise ValueError("error terms must be >= 0")
    fb = trace_bound(f)
    return ErrorBudget(f, fb, eps_stat, eps_g, fb + eps_stat + eps_g)


def closest_classical(target: OpticalTarget) -> ClassicalBenchmark:
    """Best classical (regular-P-function) approximation of the target: the
    coherent state with the target's displacement; vacuum when the target
    is undisplaced."""
    target_state = target.state()
    n = target_state.num_modes
    classical = GaussianState(target_state.mean.copy(), 0.5 * np.eye(2 * n))
    f = fidelity(classical, target_state)
    return ClassicalBenchmark(classical, f, trace_bound(f))


def witness(f_exp: float, sigma_f: float, bench: ClassicalBenchmark) -> WitnessResult:
    """Non-classicality witness: the experiment must beat the classical
    fidelity; the margin is reported in standard deviations."""
    if sigma_f <= 0:
        raise ValueError("sigma_f must be positive")
    margin = (f_exp - bench.classical_fidelity) / sigma_f
    return WitnessResult(f_exp > bench.classical_fidelity, margin)
