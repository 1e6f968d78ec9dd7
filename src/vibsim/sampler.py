"""Finite-shot sampling from photon-number distributions and statistical
error estimation for the resulting Franck-Condon estimates."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .tables import CountHistogram, FCTable

__all__ = ["sample", "FCEstimate", "estimate_fc"]


def sample(table: FCTable, shots: int, seed: int, metadata: dict | None = None) -> CountHistogram:
    """Multinomial draw of ``shots`` samples from a probability table.

    The table's unlisted remainder is sampled as the sink outcome.
    Deterministic for a fixed seed.
    """
    if shots < 1:
        raise ValueError("shots must be >= 1")
    full = table.with_sink()
    outcomes = sorted(full.entries)
    probs = np.array([full.entries[o] for o in outcomes], dtype=float)
    probs = np.clip(probs, 0.0, None)
    probs /= probs.sum()
    rng = np.random.default_rng(seed)
    counts = rng.multinomial(shots, probs)
    hist = {o: int(c) for o, c in zip(outcomes, counts) if c > 0}
    return CountHistogram(hist, shots, metadata or {})


@dataclass(frozen=True)
class FCEstimate:
    table: FCTable
    eps_stat: float


def estimate_fc(hist: CountHistogram, seed: int = 0) -> FCEstimate:
    """Relative frequencies plus a bootstrap bound on the sampling error.

    ``eps_stat`` is the 95th percentile of the total variation distance
    between 1000 bootstrap resamples and the point estimate.
    """
    n = hist.total_shots
    table = hist.frequencies()
    # a zero count stays a category: the multinomial's draws depend on their number
    probs = np.array([table.entries.get(o, 0.0) for o in sorted(hist.counts)])
    resampled = np.random.default_rng(seed).multinomial(n, probs, size=1000) / n
    tvds = 0.5 * np.abs(resampled - probs).sum(axis=1)
    return FCEstimate(table, float(np.percentile(tvds, 95.0)))
