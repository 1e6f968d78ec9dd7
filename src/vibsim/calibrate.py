"""Characterization fits: source tomography from photon-counting
histograms, the pump-power law for squeezing, and mode overlap from
interference visibility."""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass
from functools import lru_cache
from pathlib import Path

import numpy as np

from . import fock
from .experiment import DetectorModel, _mixing_angle
from .gaussian import BeamSplitter
from .optimize import SIMPLEX_STEP, nelder_mead
from .tables import CountHistogram, FCTable, is_sink

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


@lru_cache(maxsize=4)
def _splitter(bs_transmission: float, cutoff: int) -> np.ndarray:
    """|U|^2 of the beam splitter set to ``bs_transmission``, on flat pair
    occupations, squared entry by entry.  Cached, since every fit asks for
    the same two settings, and so read-only."""
    u = fock.element_matrix(BeamSplitter(0, 1, _mixing_angle(bs_transmission)), cutoff)
    weights = u.real**2 + u.imag**2
    weights.setflags(write=False)
    return weights


def _count_grids(points: np.ndarray, splitters: np.ndarray, cutoff: int) -> np.ndarray:
    """Occupation grids, (k, s, cutoff, cutoff), of a lossy two-mode squeezed
    source at each of the k (r, eta_1, eta_2) ``points``, behind each of the
    s stacked ``splitters`` (:func:`_splitter`).

    The source holds |n, n> and loss only lowers n1 and n2, so the lossy
    density has no coherence between two states of the same n1 + n2,
    which a beam splitter conserves: it maps occupations through |U|^2, as
    loss does through binomial thinning, and no density is needed.  Each
    grid of the stack keeps the bits it has alone.
    """
    psi = fock._tmsv_amplitudes(points[:, 0], cutoff)
    thin = fock._loss_kraus(points[:, 1:], cutoff) ** 2
    source = (thin[:, 0] * (psi.real**2 + psi.imag**2)[:, None]) @ np.swapaxes(thin[:, 1], 1, 2)
    return (splitters @ source.reshape(len(points), 1, -1, 1)).reshape(
        len(points), -1, cutoff, cutoff)


def predicted_distribution(
    r: float,
    eta: tuple[float, float],
    bs_transmission: float,
    det: DetectorModel,
    cutoff: int,
) -> FCTable:
    """Photon statistics of a lossy two-mode squeezed source measured by
    noisy detectors, for one beam-splitter setting."""
    grids = _count_grids(np.array([[r, *eta]], dtype=float),
                         _splitter(bs_transmission, cutoff)[None], cutoff)
    return fock._table(fock.noisy_occupations(grids[0, 0], det))


def _outcomes(hist: CountHistogram) -> tuple[np.ndarray, np.ndarray]:
    """Outcomes of a two-mode histogram, one row each, and their frequencies."""
    if hist.num_modes != 2:
        # the mode count is set by the header of a histogram file
        raise HistogramFormatError("source tomography needs two-mode histograms", 1)
    outcomes = np.array(list(hist.counts), dtype=np.int64)
    return outcomes, np.array(list(hist.counts.values()), dtype=float) / hist.total_shots


def _pooled(grids: np.ndarray, cutoff: int) -> tuple[np.ndarray, np.ndarray]:
    """Probabilities of the outcomes below ``cutoff`` in both modes, on the
    last two axes of ``grids``, and the sinks holding all the rest."""
    heads = grids[..., :cutoff, :cutoff]
    return heads, 1.0 - heads.sum(axis=(-2, -1))


def _observed(hist: CountHistogram, cutoff: int) -> np.ndarray:
    """The relative frequencies of ``hist`` on a cutoff x cutoff grid."""
    outcomes, probs = _outcomes(hist)
    grid = np.zeros((cutoff, cutoff))
    inside = np.all((outcomes >= 0) & (outcomes < cutoff), axis=1)
    grid[tuple(outcomes[inside].T)] = probs[inside]
    return grid


def _pooled_tvds(p: tuple[np.ndarray, np.ndarray], q: tuple[np.ndarray, np.ndarray]) -> np.ndarray:
    """(1/2) (sum |p - q| + |sink_p - sink_q|) of pooled distributions, one
    per grid of the stacks."""
    return 0.5 * (np.abs(p[0] - q[0]).sum(axis=(-2, -1)) + np.abs(p[1] - q[1]))


def _noisy_pooled(grids: np.ndarray, conv, cutoff: int) -> tuple[np.ndarray, np.ndarray]:
    """:func:`_pooled` counts of the occupation ``grids`` behind detectors whose noise
    ``conv`` convolves (``fock._noise_convolution``), ``_STACK_BYTES`` of them at a time."""
    flat, step = grids.reshape(-1, cutoff, cutoff), max(1, _STACK_BYTES // (8 * len(conv) ** 2))
    heads, sinks = np.empty(flat.shape), np.empty(len(flat))
    for i in range(0, len(flat), step):
        noisy = fock._apply_single(fock._apply_single(flat[i:i + step], conv, 1), conv, 2)
        heads[i:i + step], sinks[i:i + step] = _pooled(noisy, cutoff)
    return heads.reshape(grids.shape), sinks.reshape(grids.shape[:-2])


#: bytes of noisy count grids held at once, or one grid's: what the noise memory check counts
_STACK_BYTES = 1 << 24

#: (r, eta_1, eta_2) box of the source fit
_BOUNDS = np.array([(0.0, 1.5), (0.0, 1.0), (0.0, 1.0)])


def _moment_start(hist: CountHistogram, det: DetectorModel) -> np.ndarray:
    """(r, eta_1, eta_2) from the count moments of the transmissive setting.

    A two-mode squeezed vacuum holds s = sinh(r)^2 photons per arm with
    covariance s^2 + s; binomial loss scales the means by eta_i and the
    covariance by eta_1 eta_2, and independent detector noise adds its mean
    mu to each arm and nothing to the covariance.  Hence, with
    n_i = <m_i> - mu, s = n_1 n_2 / (Cov(m_1, m_2) - n_1 n_2) and
    eta_i = n_i / s, or (0.3, 0.5, 0.5) without a positive excess
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
    # in float64: int64 products wrap once both counts of a row pass about 3e9
    cov = probs @ (outcomes[:, 0] * outcomes[:, 1].astype(float)) - means[0] * means[1]
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

    The simplex starts from the moment estimate of the transmissive counts
    (:func:`_moment_start`).  Each Nelder-Mead step scores its candidates in
    one call: their count grids from occupations (:func:`_count_grids`).
    """
    observed = _pooled(np.stack([_observed(h, cutoff) for h in (hist_100_0, hist_0_100)]), cutoff)
    splitters = np.stack([_splitter(t, cutoff) for t in (1.0, 0.0)])
    start = _moment_start(hist_100_0, det)
    conv = fock._noise_convolution(det, cutoff, 2)  # after the start's own kernel check

    def residuals(points: np.ndarray) -> np.ndarray:  # (k, 2): each setting's pooled TVD
        return _pooled_tvds(_noisy_pooled(_count_grids(points, splitters, cutoff), conv, cutoff),
                            observed)

    result = nelder_mead(lambda points: -residuals(points).sum(axis=1), start, _BOUNDS,
                         tol=tol, max_iter=max_iter)
    r, e1, e2 = (float(v) for v in result.x)
    res_t, res_r = residuals(result.x[None]).tolist()[0]
    lo, hi = _BOUNDS.T
    converged = result.converged and not (r >= hi[0] - 1e-9 or min(e1 - lo[1], e2 - lo[2]) <= 1e-9)
    return TomographyFit(r, (e1, e2), max(res_t, res_r), bool(converged), result.iterations)


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
        reader = csv.reader(path.read_text(encoding="utf-8").splitlines())
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
            fields = [int(v) for v in row]
        except ValueError:
            raise HistogramFormatError("non-integer field", lineno) from None
        if any(abs(v) >= 2**63 for v in fields):  # the fit holds outcomes as int64
            raise HistogramFormatError("field beyond the 64-bit integer range", lineno)
        outcome, count = tuple(fields[:-1]), fields[-1]
        if count < 0:
            raise HistogramFormatError("negative count", lineno)
        counts[outcome] = counts.get(outcome, 0) + count
    if not any(c for outcome, c in counts.items() if not is_sink(outcome)):
        # no rows, or every shot in the sink (-1,..,-1) or another negative outcome
        raise HistogramFormatError(f"{path.name}: no counts on a listed outcome", 2)
    metadata = {}
    sidecar = path.with_suffix(".json")
    if sidecar.exists():
        try:
            metadata = json.loads(sidecar.read_text(encoding="utf-8"))
        except json.JSONDecodeError as exc:
            raise HistogramFormatError(f"{sidecar.name}: {exc.msg}", exc.lineno) from None
        except UnicodeDecodeError:
            raise HistogramFormatError(f"{sidecar.name}: not UTF-8 text", 1) from None
        if not isinstance(metadata, dict):
            raise HistogramFormatError(f"{sidecar.name}: expected a JSON object", 1)
        metadata.pop("shots", None)
    return CountHistogram(counts, sum(counts.values()), metadata)
