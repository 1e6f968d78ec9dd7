"""Characterization fits: source tomography from photon-counting
histograms, the pump-power law for squeezing, and mode overlap from
interference visibility."""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import fock
from .experiment import DetectorModel
from .gaussian import BeamSplitter, GaussianCircuit, Loss, TwoModeSqueeze
from .optimize import SIMPLEX_STEP, nelder_mead
from .tables import CountHistogram, FCTable

__all__ = [
    "TomographyFit",
    "fit_source",
    "predicted_distribution",
    "pump_to_r",
    "PumpFit",
    "fit_pump_curve",
    "hom_to_delta",
    "read_histogram_csv",
    "write_histogram_csv",
]


@dataclass(frozen=True)
class TomographyFit:
    r: float
    eta: tuple[float, float]
    residual_tvd: float
    converged: bool
    iterations: int


def _lossy_source(r: float, eta: tuple[float, float], cutoff: int) -> fock.FockDensity:
    """Truncated density of a two-mode squeezed source after per-arm loss."""
    elements = [TwoModeSqueeze(0, 1, r)] + [Loss(m, e) for m, e in enumerate(eta) if e < 1.0]
    return fock.replay_fock(GaussianCircuit(2, elements), cutoff, strict=False)


def _at_setting(source: fock.FockDensity, bs_transmission: float) -> fock.FockDensity:
    """The source after the beam splitter set to ``bs_transmission``."""
    theta = math.acos(math.sqrt(bs_transmission))
    if theta == 0.0:
        return source
    return fock.evolve_fock(source, GaussianCircuit(2, [BeamSplitter(0, 1, theta)]))


def predicted_distribution(
    r: float,
    eta: tuple[float, float],
    bs_transmission: float,
    det: DetectorModel,
    cutoff: int,
) -> FCTable:
    """Photon statistics of a lossy two-mode squeezed source measured by
    noisy detectors, for one beam-splitter setting."""
    rho = _at_setting(_lossy_source(r, eta, cutoff), bs_transmission)
    return fock.attach_detector_noise(rho, det)


def _outcomes(hist: CountHistogram) -> tuple[np.ndarray, np.ndarray]:
    """Outcomes of a two-mode histogram, one row each, and their frequencies."""
    if hist.num_modes != 2:
        # the mode count is set by the header of a histogram file
        raise HistogramFormatError("source tomography needs two-mode histograms", 1)
    outcomes = np.array(list(hist.counts), dtype=np.int64)
    return outcomes, np.array(list(hist.counts.values()), dtype=float) / hist.total_shots


def _pooled(grid: np.ndarray, cutoff: int) -> tuple[np.ndarray, float]:
    """Probabilities of the outcomes below ``cutoff`` in both modes, and the
    sink holding all the rest."""
    head = grid[:cutoff, :cutoff]
    return head, 1.0 - float(head.sum())


def _observed(hist: CountHistogram, cutoff: int) -> tuple[np.ndarray, float]:
    """The relative frequencies of ``hist``, pooled."""
    outcomes, probs = _outcomes(hist)
    grid = np.zeros((cutoff, cutoff))
    inside = np.all((outcomes >= 0) & (outcomes < cutoff), axis=1)
    grid[tuple(outcomes[inside].T)] = probs[inside]
    return _pooled(grid, cutoff)


def _pooled_tvd(p: tuple[np.ndarray, float], q: tuple[np.ndarray, float]) -> float:
    """(1/2) (sum |p - q| + |sink_p - sink_q|) of two pooled distributions."""
    return 0.5 * (float(np.abs(p[0] - q[0]).sum()) + abs(p[1] - q[1]))


#: (r, eta_1, eta_2) box of the source fit
_BOUNDS = np.array([(0.0, 1.5), (0.0, 1.0), (0.0, 1.0)])


def _moment_start(hist: CountHistogram, det: DetectorModel) -> np.ndarray:
    """(r, eta_1, eta_2) from the count moments of the transmissive setting.

    A two-mode squeezed vacuum holds s = sinh(r)^2 photons per arm with
    covariance s^2 + s; binomial loss scales the means by eta_i and the
    covariance by eta_1 eta_2, and independent detector noise adds its mean
    mu to each arm and nothing to the covariance.  Hence the estimate in
    :func:`fit_source`, or (0.3, 0.5, 0.5) without a positive excess
    covariance.  Sink rows (the unlisted mass, whose counts are unknown)
    are left out.  The start is clamped one first-simplex step inside the
    bounds, which keeps it off the flat r = 0 and eta = 0 edges, where
    the objective does not depend on the other parameters.
    """
    outcomes, probs = _outcomes(hist)
    listed = np.all(outcomes >= 0, axis=1)
    outcomes, probs = outcomes[listed], probs[listed]
    kernel = fock.noise_kernel(det)
    means = probs @ outcomes
    cov = probs @ (outcomes[:, 0] * outcomes[:, 1]) - means[0] * means[1]
    n1, n2 = means - np.arange(kernel.size) @ kernel
    excess = cov - n1 * n2
    if n1 > 0.0 and n2 > 0.0 and excess > 0.0:
        s = n1 * n2 / excess
        start = np.array([math.asinh(math.sqrt(s)), n1 / s, n2 / s])
    else:
        start = np.array([0.3, 0.5, 0.5])
    lo, hi = _BOUNDS.T
    margin = SIMPLEX_STEP * (hi - lo)
    return np.clip(start, lo + margin, hi - margin)


def fit_source(
    hist_100_0: CountHistogram,
    hist_0_100: CountHistogram,
    det: DetectorModel,
    *,
    cutoff: int = 12,
    start: tuple[float, float, float] | None = None,
    tol: float = 1e-7,
    max_iter: int = 1500,
) -> TomographyFit:
    """Recover the source squeezing and the per-arm transmissions from the
    two straight-through beam-splitter settings.

    ``hist_100_0`` is recorded with the beam splitter fully transmissive,
    ``hist_0_100`` fully reflective.  The detector model is held fixed at
    its independently characterized values.  The fit minimizes the summed
    total variation distance between predicted and observed statistics,
    each pooled into its outcomes below ``cutoff`` in both modes and one
    sink for the rest; the worse of the two residuals is reported (a
    candidate for the model-mismatch error term).

    Without an explicit ``start`` the simplex starts from the moment
    estimate of the transmissive counts: with n_i = <m_i> - mu, mu the
    mean count the detector noise adds,
    s = sinh(r)^2 = n_1 n_2 / (Cov(m_1, m_2) - n_1 n_2) and eta_i = n_i / s
    (see :func:`_moment_start`).  Each candidate replays the lossy source
    once; the reflective setting adds the beam splitter to that density.
    """
    observed = [_observed(hist, cutoff) for hist in (hist_100_0, hist_0_100)]
    if start is None:
        start = _moment_start(hist_100_0, det)

    def residuals(x) -> tuple[float, float]:
        r, e1, e2 = x
        source = _lossy_source(r, (e1, e2), cutoff)
        return tuple(
            _pooled_tvd(_pooled(fock.noisy_occupations(_at_setting(source, t), det), cutoff), obs)
            for t, obs in zip((1.0, 0.0), observed)
        )

    result = nelder_mead(
        lambda x: -sum(residuals(x)),
        np.asarray(start, dtype=float),
        bounds=_BOUNDS.tolist(),
        tol=tol,
        max_iter=max_iter,
    )
    r, e1, e2 = (float(v) for v in result.x)
    res_t, res_r = residuals(result.x)
    at_bounds = r >= 1.5 - 1e-9 or min(e1, e2) <= 1e-9
    return TomographyFit(
        r,
        (e1, e2),
        max(res_t, res_r),
        bool(result.converged and not at_bounds),
        result.iterations,
    )


def pump_to_r(power: float, k: float) -> float:
    """Squeezing from pump power under the square-root law r = k*sqrt(P)."""
    if power < 0:
        raise ValueError("power must be >= 0")
    return k * math.sqrt(power)


@dataclass(frozen=True)
class PumpFit:
    k: float
    residuals: tuple[float, ...]
    sigma_r: float


def fit_pump_curve(points, max_power: float | None = None) -> PumpFit:
    """Least-squares fit of r = k*sqrt(P) on (power, r) pairs.

    ``max_power`` restricts the fit to the low-power plateau; residuals for
    every supplied point are reported so outliers can be inspected.
    """
    pts = [(float(p), float(r)) for p, r in points]
    if len(pts) < 2:
        raise ValueError("need at least two points")
    selected = [(p, r) for p, r in pts if max_power is None or p <= max_power]
    if len(selected) < 2:
        raise ValueError("plateau selection keeps fewer than two points")
    sq = np.array([math.sqrt(p) for p, _ in selected])
    rs = np.array([r for _, r in selected])
    k = float(sq @ rs / (sq @ sq))
    residuals = tuple(r - k * math.sqrt(p) for p, r in pts)
    sel_res = np.array([r - k * math.sqrt(p) for p, r in selected])
    sigma = float(np.sqrt(np.mean(sel_res**2)))
    return PumpFit(k, residuals, sigma)


def hom_to_delta(visibility: float) -> float:
    """Distinguishability from the interference-dip visibility."""
    if not 0.0 <= visibility <= 1.0:
        raise ValueError("visibility must lie in [0, 1]")
    return 1.0 - visibility


# ---------------------------------------------------------------------------
# histogram file format: CSV `m1,..,mM,count` plus a JSON metadata sidecar
# ---------------------------------------------------------------------------


class HistogramFormatError(ValueError):
    def __init__(self, message: str, line: int):
        super().__init__(f"line {line}: {message}")
        self.line = line


def write_histogram_csv(hist: CountHistogram, path) -> None:
    path = Path(path)
    modes = hist.num_modes
    with path.open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow([f"m{i + 1}" for i in range(modes)] + ["count"])
        for outcome in sorted(hist.counts):
            writer.writerow(list(outcome) + [hist.counts[outcome]])
    sidecar = path.with_suffix(".json")
    meta = {"shots": hist.total_shots, **hist.metadata}
    sidecar.write_text(json.dumps(meta, sort_keys=True, indent=2) + "\n")


def read_histogram_csv(path) -> CountHistogram:
    path = Path(path)
    counts: dict[tuple[int, ...], int] = {}
    try:
        reader = csv.reader(path.read_text().splitlines())
    except UnicodeDecodeError:
        raise HistogramFormatError("not UTF-8 text", 1) from None
    try:
        header = next(reader)
    except StopIteration:
        raise HistogramFormatError("empty file", 1) from None
    if len(header) < 2 or header[-1].strip() != "count":
        raise HistogramFormatError("header must be m1,..,mM,count", 1)
    modes = len(header) - 1
    for lineno, row in enumerate(reader, start=2):
        if not row:
            continue
        if len(row) != modes + 1:
            raise HistogramFormatError(f"expected {modes + 1} fields", lineno)
        try:
            outcome = tuple(int(v) for v in row[:-1])
            count = int(row[-1])
        except ValueError:
            raise HistogramFormatError("non-integer field", lineno) from None
        if count < 0:
            raise HistogramFormatError("negative count", lineno)
        counts[outcome] = counts.get(outcome, 0) + count
    if not counts:
        raise HistogramFormatError("no data rows", 2)
    metadata = {}
    sidecar = path.with_suffix(".json")
    if sidecar.exists():
        try:
            metadata = json.loads(sidecar.read_text())
        except json.JSONDecodeError as exc:
            raise HistogramFormatError(f"{sidecar.name}: {exc.msg}", exc.lineno) from None
        except UnicodeDecodeError:
            raise HistogramFormatError(f"{sidecar.name}: not UTF-8 text", 1) from None
        if not isinstance(metadata, dict):
            raise HistogramFormatError(f"{sidecar.name}: expected a JSON object", 1)
        metadata.pop("shots", None)
    return CountHistogram(counts, sum(counts.values()), metadata)
