import math

import numpy as np
import pytest

from vibsim.calibrate import (
    HistogramFormatError,
    PumpFit,
    _moment_start,
    fit_pump_curve,
    fit_source,
    hom_to_delta,
    predicted_distribution,
    pump_to_r,
    read_histogram_csv,
    write_histogram_csv,
)
from vibsim.experiment import DetectorModel
from vibsim.sampler import sample
from vibsim.tables import CountHistogram

DET = DetectorModel()


def synthetic_histograms(r, eta, shots, seed, cutoff=12):
    """Sampled photon counts for the two straight-through settings."""
    h = []
    for setting, t in (("100:0", 1.0), ("0:100", 0.0)):
        table = predicted_distribution(r, eta, t, DET, cutoff)
        h.append(sample(table, shots, seed=seed, metadata={"bs_setting": setting}))
        seed += 1
    return h


def exact_histograms(r, eta, cutoff, det=DET):
    """The exact model distributions of both settings as 10^9-shot "data"."""
    shots = 10**9
    hists = []
    for t, name in ((1.0, "100:0"), (0.0, "0:100")):
        table = predicted_distribution(r, eta, t, det, cutoff).with_sink()
        counts = {k: round(p * shots) for k, p in table.entries.items() if p > 1e-12}
        hists.append(CountHistogram(counts, sum(counts.values()), {"bs_setting": name}))
    return hists


def assert_round_trip(r, eta, seed):
    hist_t, hist_r = synthetic_histograms(r, eta, 1_000_000, seed=seed)
    fit = fit_source(hist_t, hist_r, DET)
    assert fit.converged
    assert fit.r == pytest.approx(r, abs=0.01)
    assert fit.eta[0] == pytest.approx(eta[0], abs=0.02)
    assert fit.eta[1] == pytest.approx(eta[1], abs=0.02)


class TestFitSource:
    def test_round_trip(self):
        assert_round_trip(0.3, (0.45, 0.40), seed=17)

    # pairs on which the fit, started at (0.3, 0.5, 0.5), reported convergence
    # at r = 0.2605 and r = 0.430, well above the summed TVD of the truth
    @pytest.mark.parametrize(
        "r, eta, seed", [(0.302, (0.316, 0.36), 1086), (0.483, (0.342, 0.315), 1284)]
    )
    def test_round_trip_formerly_stalled(self, r, eta, seed):
        assert_round_trip(r, eta, seed)

    def test_perfect_statistics_zero_residual(self):
        r, eta, cutoff = 0.25, (0.5, 0.6), 10
        hists = exact_histograms(r, eta, cutoff)
        fit = fit_source(hists[0], hists[1], DET, cutoff=cutoff, tol=1e-11, max_iter=4000)
        assert fit.residual_tvd < 1e-7
        assert fit.r == pytest.approx(r, abs=1e-5)

    def test_swapping_settings_swaps_arms(self):
        hist_t, hist_r = synthetic_histograms(0.35, (0.55, 0.35), 400_000, seed=23)
        fit = fit_source(hist_t, hist_r, DET)
        swapped = fit_source(hist_r, hist_t, DET)
        assert fit.eta[0] == pytest.approx(swapped.eta[1], abs=0.02)
        assert fit.eta[1] == pytest.approx(swapped.eta[0], abs=0.02)

    def test_unbiased_over_datasets(self):
        recovered = []
        for seed in range(20):
            hist_t, hist_r = synthetic_histograms(0.3, (0.5, 0.5), 200_000, seed=100 + 3 * seed)
            recovered.append(fit_source(hist_t, hist_r, DET).r)
        assert abs(np.mean(recovered) - 0.3) < 0.003


class TestMomentStart:
    @pytest.mark.parametrize(
        "r, eta, det",
        [
            (0.25, (0.5, 0.6), DET),
            (0.6, (0.35, 0.7), DET),
            (0.45, (0.9, 0.3), DetectorModel(0.004, 0.002)),
            (0.4, (0.5, 0.5), DetectorModel(0.0, 0.0)),
        ],
    )
    def test_exact_statistics(self, r, eta, det):
        hist_t, _ = exact_histograms(r, eta, 20, det)
        start = _moment_start(hist_t, det)
        assert start == pytest.approx([r, *eta], abs=0.01)

    def test_sink_rows_left_out(self):
        # 2 % of the shots in the sink, which holds no count vector; read as
        # (-1, -1) it would lower both means by 0.02 and the fallback would win
        hist_t, _ = exact_histograms(0.25, (0.5, 0.6), 20)
        sink = hist_t.total_shots // 50
        counts = dict(hist_t.counts)
        counts[(-1, -1)] = counts.get((-1, -1), 0) + sink
        hist = CountHistogram(counts, hist_t.total_shots + sink)
        assert _moment_start(hist, DET) == pytest.approx([0.25, 0.5, 0.6], abs=0.01)

    def test_vacuum_counts_fall_back(self):
        hist = CountHistogram({(0, 0): 1000}, 1000)
        assert _moment_start(hist, DET) == pytest.approx([0.3, 0.5, 0.5])

    def test_start_clamped_inside_bounds(self):
        # an excess covariance of 1e-4 on means of 0.1 asks for sinh(r)^2 = 100
        # and eta = 0.001; the start stays one simplex step inside the bounds
        hist = CountHistogram({(0, 0): 8201, (1, 0): 799, (0, 1): 799, (1, 1): 201}, 10_000)
        start = _moment_start(hist, DetectorModel(0.0, 0.0))
        assert start == pytest.approx([1.425, 0.05, 0.05])


class TestPumpLaw:
    def test_zero_power(self):
        assert pump_to_r(0.0, 0.05) == 0.0

    def test_quadrupling_power_doubles_r(self):
        assert pump_to_r(400.0, 0.03) == pytest.approx(2 * pump_to_r(100.0, 0.03))

    def test_inverse_round_trip(self):
        k = 0.042
        for power in (10.0, 55.0, 90.0):
            r = pump_to_r(power, k)
            assert (r / k) ** 2 == pytest.approx(power, rel=1e-12)

    def test_fit_exact_data(self):
        k = 0.05
        points = [(p, k * math.sqrt(p)) for p in (10, 25, 50, 75, 100)]
        fit = fit_pump_curve(points)
        assert fit.k == pytest.approx(k, rel=1e-12)
        assert np.allclose(fit.residuals, 0.0, atol=1e-14)

    def test_plateau_excludes_corrupted_point(self):
        k = 0.05
        points = [(p, k * math.sqrt(p)) for p in (10, 25, 50, 75, 100)]
        points.append((300.0, k * math.sqrt(300.0) * 1.5))  # nonlinear regime
        full = fit_pump_curve(points)
        plateau = fit_pump_curve(points, max_power=100.0)
        assert plateau.k == pytest.approx(k, rel=1e-12)
        assert abs(full.k - k) > 1e-3
        assert abs(plateau.residuals[-1]) > 0.1  # outlier still reported

    def test_noisy_recovery_within_one_percent(self):
        rng = np.random.default_rng(71)
        k = 0.05
        points = [(p, k * math.sqrt(p) + rng.normal(0, 0.01)) for p in
                  np.linspace(10, 100, 12)]
        fit = fit_pump_curve(points, max_power=100.0)
        assert fit.k == pytest.approx(k, rel=0.01)
        assert fit.sigma_r == pytest.approx(0.01, rel=0.6)

    def test_too_few_points(self):
        with pytest.raises(ValueError):
            fit_pump_curve([(10.0, 0.1)])


class TestHom:
    def test_perfect_visibility(self):
        assert hom_to_delta(1.0) == 0.0

    def test_reference_visibility(self):
        assert hom_to_delta(0.94) == pytest.approx(0.06, abs=1e-12)

    def test_range_check(self):
        with pytest.raises(ValueError):
            hom_to_delta(1.2)


class TestHistogramIO:
    def test_round_trip(self, tmp_path):
        hist = CountHistogram({(0, 0): 5, (2, 1): 3}, 8, {"power_uw": 40.0, "bs_setting": "100:0"})
        path = tmp_path / "counts.csv"
        write_histogram_csv(hist, path)
        loaded = read_histogram_csv(path)
        assert loaded.counts == hist.counts
        assert loaded.total_shots == 8
        assert loaded.metadata["power_uw"] == 40.0

    def test_malformed_row_reports_line(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("m1,m2,count\n0,0,10\n1,oops,3\n")
        with pytest.raises(HistogramFormatError) as err:
            read_histogram_csv(path)
        assert "line 3" in str(err.value)

    def test_missing_header(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("0,0\n")
        with pytest.raises(HistogramFormatError):
            read_histogram_csv(path)
