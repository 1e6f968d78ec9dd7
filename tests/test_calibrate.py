import itertools
import math
from fractions import Fraction

import numpy as np
import pytest

from vibsim import calibrate, fock
from vibsim.calibrate import (
    SIMPLEX_STEP,
    HistogramFormatError,
    PumpFit,
    _BOUNDS,
    _count_grids,
    _moment_start,
    _noisy_pooled,
    _observed,
    _pooled,
    _pooled_tvds,
    _splitter,
    fit_pump_curve,
    fit_source,
    hom_to_delta,
    predicted_distribution,
    pump_to_r,
    read_histogram_csv,
    write_histogram_csv,
)
from vibsim.experiment import DetectorModel, _mixing_angle
from vibsim.gaussian import BeamSplitter, GaussianCircuit, Loss, TwoModeSqueeze
from vibsim.sampler import sample
from vibsim.tables import CountHistogram
from helpers import clear_fock_caches, lazy_nelder_mead

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


class TestPredictedDistribution:
    """The count grids come from occupations alone; the Fock replay of the
    whole circuit, density and all, is the oracle."""

    @pytest.mark.parametrize("cutoff", [6, 12, 20])
    def test_matches_density_replay(self, cutoff):
        detectors = [DetectorModel(0.0, 0.0), DetectorModel(0.004, 0.0), DetectorModel(0.0, 0.002)]
        etas = [(0.0, 0.6), (1.0, 0.45), (0.45, 1.0), (1.0, 1.0), (0.3, 0.8)]
        for r, eta, t in itertools.product([0.0, 0.3, 0.7, 1.2], etas, [1.0, 0.0, 0.3, 0.7]):
            theta = math.acos(math.sqrt(t))
            circuit = GaussianCircuit(2, [TwoModeSqueeze(0, 1, r), Loss(0, eta[0]),
                                          Loss(1, eta[1]), BeamSplitter(0, 1, theta)])
            rho = fock.replay_fock(circuit, cutoff, strict=False)
            for det in detectors:
                oracle = fock.noisy_occupations(rho.occupations(), det)
                table = predicted_distribution(r, eta, t, det, cutoff)
                grid = np.zeros_like(oracle)
                grid[tuple(np.array(list(table.entries)).T)] = list(table.entries.values())
                assert np.abs(grid - oracle).max() < 1e-14, (r, eta, t, det)


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


def scalar_count_grids(r, eta, splitters, det, cutoff):
    """The count grids of one candidate, built alone: the oracle of the
    stacked :func:`calibrate._count_grids` and :func:`calibrate._noisy_pooled`."""
    psi = fock._expm_tridiagonal(np.zeros(cutoff), -1j * complex(r) * np.arange(1.0, cutoff))[:, 0]
    k, n, root = fock._binomial_roots(cutoff)
    thin_1, thin_2 = np.zeros((2, cutoff, cutoff))
    for thin, e in zip((thin_1, thin_2), eta):
        thin[n, n + k] = (root * np.sqrt(e**n * (1.0 - e) ** k)) ** 2
    source = ((thin_1 * (psi.real**2 + psi.imag**2)) @ thin_2.T).reshape(-1)
    return [fock.noisy_occupations((w @ source).reshape(cutoff, cutoff), det) for w in splitters]


def scalar_pooled_tvd(grid, observed_grid, cutoff) -> float:
    """The pooled TVD of one grid against observed frequencies, computed alone."""
    head, obs = grid[:cutoff, :cutoff], observed_grid[:cutoff, :cutoff]
    sink, obs_sink = 1.0 - float(head.sum()), 1.0 - float(obs.sum())
    return 0.5 * (float(np.abs(head - obs).sum()) + abs(sink - obs_sink))


class TestStackedCandidates:
    """A stack of candidates gives each one's count grids and pooled TVDs with
    the bits of the candidate built alone."""

    ROWS = [(0.0, 0.5, 0.4), (1.5, 0.3, 0.8), (0.4, 0.0, 0.6), (0.7, 1.0, 0.2), (0.3, 1.0, 0.0),
            (0.55, 0.45, 0.35)]

    @pytest.mark.parametrize("stack_bytes", [calibrate._STACK_BYTES, 1],
                             ids=["one-call", "grid-by-grid"])
    @pytest.mark.parametrize("cutoff", [2, 6, 12, 14])
    @pytest.mark.parametrize("k", [1, 3, 4])
    def test_grids_and_tvds_keep_their_bits(self, monkeypatch, cutoff, k, stack_bytes):
        monkeypatch.setattr(calibrate, "_STACK_BYTES", stack_bytes)
        det = DetectorModel(0.004, 0.0015)
        splitters = [_splitter(t, cutoff) for t in (1.0, 0.0)]
        conv = fock._noise_convolution(det, cutoff, 2)
        hists = synthetic_histograms(0.35, (0.5, 0.4), 100_000, seed=cutoff, cutoff=max(cutoff, 6))
        observed_grids = np.stack([_observed(h, cutoff) for h in hists])
        for first in range(0, len(self.ROWS), k):
            points = np.array((self.ROWS * 2)[first:first + k])
            heads, sinks = _noisy_pooled(_count_grids(points, np.stack(splitters), cutoff), conv,
                                         cutoff)
            tvds = _pooled_tvds((heads, sinks), _pooled(observed_grids, cutoff))
            alone = [scalar_count_grids(p[0], p[1:], splitters, det, cutoff) for p in points]
            assert heads.tobytes() == np.array(alone)[..., :cutoff, :cutoff].tobytes()
            expected = [[1.0 - float(g[:cutoff, :cutoff].sum()) for g in pair] for pair in alone]
            assert sinks.tobytes() == np.array(expected).tobytes()
            expected = [[scalar_pooled_tvd(g, o, cutoff) for g, o in zip(pair, observed_grids)]
                        for pair in alone]
            assert tvds.tobytes() == np.array(expected).tobytes()

    def test_predicted_distribution_is_the_stack_of_one(self):
        for r, *eta in self.ROWS:
            for t in (1.0, 0.0, 0.3):
                (grid,) = scalar_count_grids(r, eta, [_splitter(t, 12)], DET, 12)
                table = predicted_distribution(r, tuple(eta), t, DET, 12)
                assert table.entries == fock._table(grid).entries

    @pytest.mark.parametrize("r, eta, seed", [(0.3, (0.45, 0.40), 17), (0.302, (0.316, 0.36), 1086),
                                              (0.6, (0.7, 0.25), 5)])
    def test_fit_equals_the_fit_one_candidate_at_a_time(self, r, eta, seed):
        hists = synthetic_histograms(r, eta, 1_000_000, seed=seed)
        splitters = [_splitter(t, 12) for t in (1.0, 0.0)]
        observed_grids = [_observed(h, 12) for h in hists]

        def residuals(x):
            grids = scalar_count_grids(x[0], x[1:], splitters, DET, 12)
            return [scalar_pooled_tvd(g, o, 12) for g, o in zip(grids, observed_grids)]

        fit = fit_source(*hists, DET)
        alone = lazy_nelder_mead(lambda x: -sum(residuals(x)), _moment_start(hists[0], DET),
                                 _BOUNDS, tol=1e-7, max_iter=1500)
        assert [v.hex() for v in (fit.r, *fit.eta)] == [float(v).hex() for v in alone.x]
        assert fit.residual_tvd.hex() == max(residuals(alone.x)).hex()
        assert fit.iterations == alone.iterations


class TestCandidateInvariants:
    """The tables a fit's candidates share are built once and cached."""

    def test_caches_do_not_change_a_fit(self):
        hist_t, hist_r = synthetic_histograms(0.35, (0.5, 0.4), 200_000, seed=41)

        def bits(fit):
            return fit.r.hex(), *(e.hex() for e in fit.eta), fit.residual_tvd.hex()

        clear_fock_caches()
        cold = fit_source(hist_t, hist_r, DET)
        # the convolution is built once per fit, and read from the cache by the next
        assert fock._convolution.cache_info()[:2] == (0, 1)
        assert fock._binomial_roots.cache_info().hits > 0
        assert bits(fit_source(hist_t, hist_r, DET)) == bits(cold)
        assert fock._convolution.cache_info()[:2] == (1, 1)
        assert _splitter.cache_info().hits > 0

    @pytest.mark.parametrize("t", [1.0, 0.0, 0.3])
    def test_splitter_is_the_squared_unitary(self, t):
        # the blockwise route: each block of the pair operator squared and
        # placed on the flat pair occupations by the layout
        for cutoff in (6, 12, 14):
            op = fock._pair_operator(BeamSplitter(0, 1, _mixing_angle(t)), cutoff)
            perm = op.index[0] * cutoff + op.index[1]
            expected = np.zeros((cutoff * cutoff,) * 2)
            for lo, hi, block in zip(op.bounds, op.bounds[1:], op.blocks):
                expected[np.ix_(perm[lo:hi], perm[lo:hi])] = block.real**2 + block.imag**2
            assert _splitter(t, cutoff).tobytes() == expected.tobytes()

    def test_cached_tables_are_read_only(self):
        tables = (*fock._binomial_roots(12), fock._convolution(0.002, 0.001, 12),
                  _splitter(1.0, 12), *fock._block_layout(12, False)[0],
                  *fock._block_layout(12, True)[0])
        for arr in tables:
            with pytest.raises(ValueError):
                arr[0] = 1

    def test_pump_leak_keys_the_convolution(self):
        vacuum = np.zeros((12, 12))
        vacuum[0, 0] = 1.0
        a, b = (fock.noisy_occupations(vacuum, DetectorModel(0.002, pump))
                for pump in (0.001, 0.002))
        assert a.shape == b.shape and not np.array_equal(a, b)
        assert (a[2, 0], b[2, 0]) == pytest.approx((0.001, 0.002), rel=0.01)


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

    def test_huge_counts_keep_the_covariance_sign(self):
        # 4e9 * 4e9 wraps in int64; in exact integers the excess covariance
        # is positive, and the start comes from it, not from the fallback
        counts = {(0, 0): 600, (1, 0): 150, (0, 1): 150, (1, 1): 99, (4_000_000_000,) * 2: 1}
        total = sum(counts.values())
        moments = [sum(Fraction(c * f(m), total) for m, c in counts.items())
                   for f in (lambda m: m[0], lambda m: m[1], lambda m: m[0] * m[1])]
        n1, n2, cross = moments
        excess = cross - 2 * n1 * n2
        assert excess > 0
        s = n1 * n2 / excess
        exact = [math.asinh(math.sqrt(s)), float(n1 / s), float(n2 / s)]
        lo, hi = _BOUNDS.T
        margin = SIMPLEX_STEP * (hi - lo)
        start = _moment_start(CountHistogram(counts, total), DetectorModel(0.0, 0.0))
        assert start == pytest.approx(np.clip(exact, lo + margin, hi - margin))
        assert start != pytest.approx([0.3, 0.5, 0.5])

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

    @pytest.mark.parametrize(
        "rows, line, message",
        [
            ("0,0,0\n1,0,0\n", 2, "bad.csv: no counts on a listed outcome"),
            ("-1,-1,100\n", 2, "bad.csv: no counts on a listed outcome"),
            ("-1,-1,60\n-2,0,40\n0,1,0\n", 2, "bad.csv: no counts on a listed outcome"),
            ("0,0,5\n99999999999999999999,0,100\n", 3, "64-bit"),
            ("0,0,5\n0,0,9223372036854775808\n", 3, "64-bit"),
        ],
        ids=["all-zero", "sink-only", "negative-only", "outcome-overflow", "count-overflow"],
    )
    def test_nothing_to_fit_or_out_of_range(self, tmp_path, rows, line, message):
        path = tmp_path / "bad.csv"
        path.write_text("m1,m2,count\n" + rows)
        with pytest.raises(HistogramFormatError) as err:
            read_histogram_csv(path)
        assert err.value.line == line
        assert message in str(err.value)

    def test_sink_rows_beside_listed_counts_kept(self, tmp_path):
        path = tmp_path / "counts.csv"
        path.write_text("m1,m2,count\n0,0,7\n-1,-1,3\n")
        assert read_histogram_csv(path).counts == {(0, 0): 7, (-1, -1): 3}

    def test_missing_header(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("0,0\n")
        with pytest.raises(HistogramFormatError):
            read_histogram_csv(path)
