import hashlib
import tracemalloc

import numpy as np
import pytest

from vibsim import optimize
from vibsim.experiment import DetectorModel, ExperimentModel, ParameterUncertainty, SMSVPair, TMSV, model_fidelity
from vibsim.fixtures import IDEAL_BS_TRANSMISSION, characterized_model, parameter_uncertainty, tropolone_target
from vibsim.optimize import (
    MONTE_CARLO_BYTES_PER_DRAW,
    loss_sweep,
    monte_carlo_fidelity,
    nelder_mead,
    optimize_experiment,
)
from helpers import lazy_nelder_mead, sequential_loss_sweep

IDEAL_DET = DetectorModel(0.0, 0.0, 1.0)


def rows(f):
    """The objective, one value per row of points, of a function of one point."""
    return lambda points: np.array([f(x) for x in points])


class TestNelderMead:
    def test_quadratic(self):
        result = nelder_mead(lambda xs: -(xs[:, 0] - 1.0) ** 2, [0.0], [(-5, 5)])
        assert result.converged
        assert result.x[0] == pytest.approx(1.0, abs=1e-6)

    def test_banana_valley(self):
        result = nelder_mead(rows(rosenbrock), [-1.2, 1.0], [(-3, 3), (-3, 3)], tol=1e-10,
                             max_iter=5000)
        assert np.allclose(result.x, [1.0, 1.0], atol=1e-4)

    def test_never_worse_than_start(self):
        rng = np.random.default_rng(41)
        for _ in range(5):
            coeffs = rng.normal(size=3)

            def objective(x):
                return coeffs[0] * np.sin(x[0]) + coeffs[1] * x[0] ** 2 + coeffs[2] * x[0]

            start = rng.uniform(-1, 1)
            result = nelder_mead(rows(objective), [start], [(-2, 2)], max_iter=50)
            assert result.value >= objective(np.array([start])) - 1e-12

    def test_bounds_respected(self):
        result = nelder_mead(lambda xs: xs[:, 0], [0.5], [(0, 1)])
        assert 0.0 <= result.x[0] <= 1.0
        assert result.value == pytest.approx(1.0, abs=1e-9)

    def test_non_convergence_flagged(self):
        result = nelder_mead(lambda xs: -(xs[:, 0] - 1.0) ** 2, [-4.0], [(-5, 5)], max_iter=3)
        assert not result.converged

    def test_start_outside_bounds(self):
        with pytest.raises(ValueError):
            nelder_mead(lambda xs: xs[:, 0], [2.0], [(0, 1)])


def rosenbrock(x):
    return -((1 - x[0]) ** 2 + 100 * (x[1] - x[0] ** 2) ** 2)


def terraces(x):
    # a paraboloid in flat steps: a simplex on one step shrinks
    return -np.floor(4 * ((x[0] - 0.3) ** 2 + (x[1] + 0.2) ** 2))


def digest(points) -> str:
    h = hashlib.sha256()
    for x in points:
        h.update(np.asarray(x, dtype=float).tobytes())
    return h.hexdigest()


def recorded(objective, log: list):
    """``objective``, logging the points of each call."""
    def record(points):
        log.append(points.copy())
        return objective(points)

    return record


def expected_calls(num_params: int, events: list) -> list[int]:
    """Rows per call of ``nelder_mead``: the first simplex, then one call of
    three candidates per iteration, and one of the moved vertices per shrink."""
    return [num_params + 1] + [3 if e == "iteration" else num_params for e in events]


class TestEvaluationOrder:
    """``nelder_mead``, which scores each step's candidates in one call, takes
    the steps of the oracle that scores one point at a time and only when the
    simplex rules read its value.  The oracle's point counts and digests are
    those recorded with the parent's scalar branch."""

    @staticmethod
    def against_the_oracle(objective, start, bounds) -> tuple[list, list]:
        """Run both on ``objective`` of one point; the oracle's points and events."""
        points, events, calls = [], [], []
        lazy = lazy_nelder_mead(recorded(objective, points), start, bounds, tol=1e-10,
                                max_iter=5000, events=events)
        one = nelder_mead(recorded(rows(objective), calls), start, bounds, tol=1e-10, max_iter=5000)
        assert one.x.tobytes() == lazy.x.tobytes()
        assert (one.value, one.iterations, one.converged) == (
            lazy.value, lazy.iterations, lazy.converged)
        assert [len(c) for c in calls] == expected_calls(len(start), events)
        # nelder_mead scores every point the oracle scored, in the same order
        scored = iter(x.tobytes() for c in calls for x in c)
        assert all(x.tobytes() in scored for x in points)
        return points, events

    def test_rosenbrock(self):
        points, _ = self.against_the_oracle(rosenbrock, [-1.2, 1.0], [(-3, 3), (-3, 3)])
        assert len(points) == 264
        assert digest(points) == "b38c32ed476a017d49e7c50a1c91704331a53a4f82527bc41a0556ee55b80355"

    def test_stacked_objective_takes_the_same_steps(self):
        args = ([-1.2, 1.0], [(-3, 3), (-3, 3)], 1e-10, 5000)
        one = lazy_nelder_mead(rosenbrock, *args)
        stacked = nelder_mead(rows(rosenbrock), *args)
        assert stacked.x.tobytes() == one.x.tobytes()
        assert (stacked.value, stacked.iterations, stacked.converged) == (
            one.value, one.iterations, one.converged)

    def test_terraces_shrink(self):
        _, events = self.against_the_oracle(terraces, [-1.2, 1.0], [(-3, 3), (-3, 3)])
        assert events.count("shrink") == 33

    @pytest.mark.parametrize("count", [1, 3])
    def test_lockstep_runs_take_their_own_steps(self, count):
        # runs of other starts and objectives, driven together: a run drops out
        # when it ends, and each step scores every other run's points in one call
        bounds = [(-3, 3), (-3, 3)]
        chosen = [(rosenbrock, [-1.2, 1.0]), (terraces, [-1.2, 1.0]), (rosenbrock, [2.0, -2.5])]
        chosen = chosen[:count]
        calls = []

        def objective(asks):
            calls.append({i: len(points) for i, points in asks.items()})
            return np.concatenate([rows(chosen[i][0])(points) for i, points in asks.items()])

        results = optimize._lockstep(objective, [optimize._simplex(x, bounds, 1e-10, 5000)
                                                 for _, x in chosen])
        steps = []
        for i, ((f, start), got) in enumerate(zip(chosen, results)):
            events = []
            want = lazy_nelder_mead(f, start, bounds, tol=1e-10, max_iter=5000, events=events)
            assert got.x.tobytes() == want.x.tobytes()
            assert (got.value, got.iterations, got.converged) == (
                want.value, want.iterations, want.converged)
            steps.append(expected_calls(2, events))
            # the run's points are in each call until it ends, and in no later one
            assert [c.get(i) for c in calls] == steps[-1] + [None] * (len(calls) - len(steps[-1]))
        assert len(calls) == max(map(len, steps))

    @staticmethod
    def fit_histograms():
        from vibsim import calibrate
        from vibsim.sampler import sample

        return [sample(calibrate.predicted_distribution(0.3, (0.45, 0.40), t, DetectorModel(), 12),
                       1_000_000, seed=seed, metadata={"bs_setting": setting})
                for setting, t, seed in (("100:0", 1.0, 17), ("0:100", 0.0, 18))]

    def test_fit_source(self, monkeypatch):
        from vibsim import calibrate

        hists = self.fit_histograms()
        points, events, calls = [], [], []

        def lazy(objective, *args, **kwargs):
            def one_point(x):
                points.append(x.copy())
                return objective(x[None])[0]

            return lazy_nelder_mead(one_point, *args, events=events, **kwargs)

        def stacked(objective, *args, **kwargs):
            return nelder_mead(recorded(objective, calls), *args, **kwargs)

        monkeypatch.setattr(calibrate, "nelder_mead", lazy)
        oracle = calibrate.fit_source(*hists, DetectorModel())
        assert (oracle.iterations, len(points)) == (104, 197)
        assert digest(points) == "c751f4a27bce16453c0fa0e7fa3652be875a1e02453271a82da192fec8245e85"
        monkeypatch.setattr(calibrate, "nelder_mead", stacked)
        fit = calibrate.fit_source(*hists, DetectorModel())
        assert fit.iterations == 104
        assert [v.hex() for v in (fit.r, *fit.eta, fit.residual_tvd)] == [
            v.hex() for v in (oracle.r, *oracle.eta, oracle.residual_tvd)]
        assert fit == oracle
        # one call per iteration, plus the first simplex and each shrink
        assert [len(c) for c in calls] == expected_calls(3, events)

    def test_fit_source_in_lockstep(self, monkeypatch):
        # the fit as the first of three runs that advance together
        from vibsim import calibrate

        hists = self.fit_histograms()
        alone = calibrate.fit_source(*hists, DetectorModel())
        others = [(rosenbrock, [-1.2, 1.0]), (terraces, [-1.2, 1.0])]

        def with_two_more(objective, start, bounds, tol, max_iter):
            def stacked(asks):
                return np.concatenate([rows(others[i - 1][0])(points) if i else objective(points)
                                       for i, points in asks.items()])

            runs = [optimize._simplex(start, bounds, tol, max_iter)] + [
                optimize._simplex(x, [(-3, 3), (-3, 3)], 1e-10, 5000) for _, x in others]
            return optimize._lockstep(stacked, runs)[0]

        monkeypatch.setattr(calibrate, "nelder_mead", with_two_more)
        fit = calibrate.fit_source(*hists, DetectorModel())
        assert fit.iterations == 104
        assert [v.hex() for v in (fit.r, *fit.eta, fit.residual_tvd)] == [
            v.hex() for v in (alone.r, *alone.eta, alone.residual_tvd)]
        assert fit == alone


class TestOptimizeExperiment:
    def test_recovers_ideal_parameters(self):
        template = ExperimentModel(SMSVPair(0.5, 0.5), 0.5, detector=IDEAL_DET)
        best, f_star = optimize_experiment(template, tropolone_target())
        assert f_star == pytest.approx(1.0, abs=1e-6)
        assert best.source.r1 == pytest.approx(0.72, abs=1e-3)
        assert best.source.r2 == pytest.approx(0.19, abs=1e-3)
        assert best.bs_transmission == pytest.approx(IDEAL_BS_TRANSMISSION, abs=1e-3)

    def test_lossless_noisy_detectors(self):
        template = ExperimentModel(SMSVPair(0.5, 0.5), 0.5)
        _, f_star = optimize_experiment(template, tropolone_target())
        assert f_star == pytest.approx(0.9958, abs=0.002)

    def test_deterministic(self):
        template = characterized_model()
        first = optimize_experiment(template, tropolone_target())
        second = optimize_experiment(template, tropolone_target())
        assert first[1] == second[1]
        assert first[0] == second[0]

    @pytest.mark.parametrize("capped", [0, 1])
    def test_converged_when_either_run_converges(self, monkeypatch, capped):
        # the first run or its restart stops after three iterations
        simplex, starts = optimize._simplex, []

        def capped_simplex(start, bounds, tol, max_iter):
            starts.append(start)
            return simplex(start, bounds, tol, 3 if len(starts) - 1 == capped else max_iter)

        monkeypatch.setattr(optimize, "_simplex", capped_simplex)
        [best] = optimize._optima(lambda asks: -(asks[0][:, 0] - 0.3) ** 2, [np.array([0.9])],
                                  [[(0.0, 1.0)]])
        assert len(starts) == 2 and best.converged

    def test_improves_on_start(self):
        template = characterized_model()
        start_f = model_fidelity(template, tropolone_target())
        _, f_star = optimize_experiment(template, tropolone_target())
        assert f_star >= start_f


class TestLossSweep:
    #: the two loss sweeps of the benchmark's design workload at seed 7: the
    #: grid, and the detector and distinguishability of each config's experiment
    DESIGN = [
        ([0.1187, 0.6076], DetectorModel(0.0023128627405924517, 0.0001662966461281794,
                                         0.9994052746495549), 0.06656155283804172),
        ([0.0732, 0.5784], DetectorModel(0.0035563075956293213, 0.00025194703147109963,
                                         0.9973362268883138), 0.020397623608259953),
    ]

    @pytest.mark.parametrize("case", [0, 1])
    def test_design_sweep_in_at_most_450_calls(self, case, monkeypatch):
        # 949 and 956 calls when the three curves ran one after another
        grid, detector, delta = self.DESIGN[case]
        calls, stacked = [], optimize.model_fidelities

        def counted(*args, **columns):
            calls.append(len(columns["r"]))
            return stacked(*args, **columns)

        want = sequential_loss_sweep(tropolone_target(), np.array(grid), detector, delta)
        monkeypatch.setattr(optimize, "model_fidelities", counted)
        got = loss_sweep(tropolone_target(), np.array(grid), detector, delta)
        assert len(calls) <= 450
        # the first simplices of all three runs, 4 + 3 + 3 points, are the widest call
        assert max(calls) == 10
        assert {k: [v.hex() for v in vs] for k, vs in got.items()} == {
            k: [v.hex() for v in vs] for k, vs in want.items()}


class TestMonteCarlo:
    def test_zero_uncertainty(self):
        model = characterized_model()
        unc = ParameterUncertainty(0.0, 0.0, 0.0, 0.0)
        result = monte_carlo_fidelity(model, tropolone_target(), unc, n=10, seed=1)
        assert result.std == 0.0
        assert result.mean == pytest.approx(model_fidelity(model, tropolone_target()), abs=1e-12)

    def test_seed_reproducibility(self):
        model = characterized_model()
        unc = parameter_uncertainty()
        a = monte_carlo_fidelity(model, tropolone_target(), unc, n=25, seed=9)
        b = monte_carlo_fidelity(model, tropolone_target(), unc, n=25, seed=9)
        assert np.array_equal(a.samples, b.samples)

    def test_wider_uncertainty_wider_spread(self):
        model = characterized_model()
        base = ParameterUncertainty(0.02, 0.01, 0.02, 0.01)
        double = ParameterUncertainty(0.04, 0.02, 0.04, 0.02)
        s1 = monte_carlo_fidelity(model, tropolone_target(), base, n=60, seed=3).std
        s2 = monte_carlo_fidelity(model, tropolone_target(), double, n=60, seed=3).std
        assert s2 >= s1

    def test_clamping_counted(self):
        model = characterized_model()
        huge = ParameterUncertainty(0.5, 0.5, 0.5, 0.5)
        result = monte_carlo_fidelity(model, tropolone_target(), huge, n=40, seed=5)
        assert result.clamp_events > 0

    @pytest.mark.parametrize("source", [TMSV(0.5), SMSVPair(0.7, 0.2)])
    def test_traced_peak_within_the_memory_guard(self, source):
        # distinguishability to draw, and a sigma_r that clamps draws at r = 0
        model = ExperimentModel(source, 0.9, (0.4, 0.4), (0.9, 0.85), 0.06)
        unc = ParameterUncertainty(0.02, 0.5, 0.02, 0.05)
        target, n = tropolone_target(), 3000
        monte_carlo_fidelity(model, target, unc, n=2)
        tracemalloc.start()
        try:
            result = monte_carlo_fidelity(model, target, unc, n=n, seed=4)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert result.clamp_events > 0
        assert peak <= MONTE_CARLO_BYTES_PER_DRAW * n

    #: (sha256 of the samples' bytes, clamp events) of 64 draws with seed 11:
    #: those of scalar ``standard_normal()`` draws taken model after model and
    #: parameter after parameter
    STREAM = {
        "tmsv_undrawn_arms": (
            TMSV(0.5), 0.7, (0.9, 1.0), (1.0, 0.85), 0.0,
            ParameterUncertainty(0.02, 0.01, 0.02, 0.01),
            "6f137d516e7a1ce8f64104b4dbe36ecc29ba252537dbbdc45b0895537c7a0fea", 0),
        "smsv_delta_clamps": (
            SMSVPair(0.7, 0.05), 0.95, (0.4, 0.98), (0.9, 0.85), 0.06,
            ParameterUncertainty(0.3, 0.5, 0.1, 0.2),
            "57de660b9bbb34b493020a3b18ba47f3ca1048a589312ac87672d915cdf63398", 174),
        "tmsv_delta_clamps": (
            TMSV(0.1), 0.02, (0.97, 0.5), (1.0, 1.0), 0.02,
            ParameterUncertainty(0.3, 0.5, 0.1, 0.2),
            "515f19bab26cfc8dc935d4d5400aa08023d0a7e74a582871e2096f82d17ea97b", 126),
        "smsv_zero_sigmas": (
            SMSVPair(0.6, 0.2), 0.5, (0.9, 0.8), (0.95, 1.0), 0.0,
            ParameterUncertainty(0.0, 0.0, 0.0, 0.0),
            "1d393a138aa6ad6881dc254e09789ef1e52c7fd7a88a7913b0daf393a589fa8b", 0),
        # -0.0 + 0.0 * z is -0.0 for z < 0: a zero's sign that no fidelity reads
        "smsv_signed_zero": (
            SMSVPair(-0.0, 0.3), 0.5, (0.9, 1.0), (1.0, 1.0), 0.0,
            ParameterUncertainty(0.0, 0.0, 0.0, 0.0),
            "81f82abcee6e35b4407e7f7e6c4fe967f4441a3b0c6f3a1d4f880a94c1f71208", 0),
        "tmsv_zero_sigmas": (
            TMSV(0.4), 0.6, (0.9, 1.0), (0.8, 0.7), 0.05,
            ParameterUncertainty(0.0, 0.0, 0.0, 0.0),
            "59535f777ade7c4fe6e66d8604f1bc6e50e6c1a2955b28132385ba6af5756f3e", 0),
    }

    @pytest.mark.parametrize("case", sorted(STREAM))
    def test_stream_pinned(self, case):
        source, t, pre, post, delta, unc, want, clamps = self.STREAM[case]
        model = ExperimentModel(source, t, pre, post, delta)
        result = monte_carlo_fidelity(model, tropolone_target(), unc, n=64, seed=11)
        assert hashlib.sha256(result.samples.tobytes()).hexdigest() == want
        assert result.clamp_events == clamps

    def test_overflowing_draw_raises_without_warning(self):
        # sigma_r * z overflows to inf, which no squeezing accepts
        model = ExperimentModel(TMSV(0.5), 0.5, (0.9, 0.8), (1.0, 0.9), 0.05)
        unc = ParameterUncertainty(0.02, 1e308, 0.02, 0.01)
        with pytest.raises(ValueError, match="squeezing magnitude must be finite"):
            monte_carlo_fidelity(model, tropolone_target(), unc, n=50, seed=3)

    def test_samples_count(self):
        result = monte_carlo_fidelity(
            characterized_model(), tropolone_target(), parameter_uncertainty(), n=17, seed=2
        )
        assert result.samples.shape == (17,)
        with pytest.raises(ValueError):
            monte_carlo_fidelity(
                characterized_model(), tropolone_target(), parameter_uncertainty(), n=1, seed=2
            )
