"""Re-measure the single-call reference figures on the bundled tropolone
scenario: each call's median wall time over repeats, each repeat from empty
operator caches, then one traced call for its work counts.

Run from the root of the checkout:

    python3 bench/recent.py
"""

from __future__ import annotations

import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(ROOT / "bench"))

import numpy as np  # noqa: E402

import reference as ref  # noqa: E402
import tracing  # noqa: E402

REPEATS = 5


def _timed(fn, repeats: int) -> float:
    times = []
    for _ in range(repeats):
        tracing.clear_caches()
        start = time.perf_counter()
        fn()
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def _traced(fn):
    """fn's result, and calls and inclusive seconds per traced function."""
    tracing.clear_caches()
    tracer = tracing.Tracer()
    tracer.install()
    try:
        result = fn()
    finally:
        tracer.uninstall()
    out: dict[str, tuple[int, float]] = {}
    for name, start, end, *_ in tracer.spans:
        calls, secs = out.get(name, (0, 0.0))
        out[name] = (calls + 1, secs + (end - start) / 1e9)
    return result, out


def main() -> int:
    from vibsim import fixtures
    from vibsim.calibrate import fit_source
    from vibsim.experiment import model_fidelity, observed_distribution
    from vibsim.fock import gaussian_to_fock
    from vibsim.optimize import monte_carlo_fidelity, optimize_experiment
    from vibsim.tables import CountHistogram
    from vibsim.vibronic import fc_factors

    target = fixtures.tropolone_target()
    model = fixtures.characterized_model()
    unc = fixtures.parameter_uncertainty()
    best, _ = optimize_experiment(model, target)
    rng = np.random.default_rng(7)
    probs = ref.lossy_tmsv_counts(model.source.r, model.loss_pre, model.detector.dark_p1,
                                  model.detector.pump_p2)

    def hist(counts):
        return CountHistogram({k: int(v) for k, v in np.ndenumerate(counts) if v},
                              int(counts.sum()))

    hist_t = hist(ref.sample_counts(probs, 1_000_000, rng))
    hist_r = hist(ref.sample_counts(probs.T, 1_000_000, rng))

    rows = [
        ("fc_factors (tropolone, cutoff 20)", lambda: fc_factors(target, 20), REPEATS),
        ("model_fidelity", lambda: model_fidelity(model, target), 200),
        ("optimize_experiment", lambda: optimize_experiment(model, target), REPEATS),
        ("Monte Carlo, n=100",
         lambda: monte_carlo_fidelity(best, target, unc, n=100, seed=7), REPEATS),
        ("observed_distribution (cutoff 20)", lambda: observed_distribution(model, 20), REPEATS),
        ("gaussian_to_fock (cutoff 30)", lambda: gaussian_to_fock(target.state(), 30), REPEATS),
        ("fit_source (cutoff 14, 10^6 shots per setting)",
         lambda: fit_source(hist_t, hist_r, model.detector, cutoff=14), 1),
    ]
    print("| Call | Median time | Work counts (one traced call) |")
    print("| --- | --- | --- |")
    for label, fn, repeats in rows:
        secs = _timed(fn, repeats)
        result, spans = _traced(fn)
        notes = []
        if label.startswith("observed"):
            for name in ("fock.replay_fock", "fock.attach_detector_noise"):
                notes.append(f"{name.split('.')[1]} {1e3 * spans[name][1]:.0f} ms traced")
        if label.startswith(("optimize", "Monte")):
            notes.append(f"{spans['experiment.model_fidelity'][0]} model_fidelity calls")
        if label.startswith("fit_source"):
            notes.append(f"{result.iterations} iterations, "
                         f"{spans['fock.replay_fock'][0]} Fock replays")
        unit = f"{1e3 * secs:.2f} ms" if secs < 0.01 else f"{secs:.3g} s"
        print(f"| {label} | {unit} (n={repeats}) | {', '.join(notes)} |", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
