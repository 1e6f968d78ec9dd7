import math

import numpy as np
import pytest

from vibsim.fixtures import reference_table, tropolone_target
from vibsim.fock import photon_distribution, replay_fock
from vibsim.gaussian import Displace, fidelity, replay, vacuum
from vibsim.metrics import (
    closest_classical,
    restrict_to,
    total_bound,
    trace_bound,
    tvd,
    witness,
)
from vibsim.tables import FCTable
from vibsim.vibronic import OpticalTarget
from helpers import random_circuit


class TestFCTable:
    def test_listed_mass_must_stay_below_one_plus_1e_6(self):
        with pytest.raises(ValueError):
            FCTable({(0, 0): 0.5, (1, 0): 0.5 + 1e-5})
        table = FCTable({(0, 0): 0.5, (1, 0): 0.5 + 1e-7})
        assert table.tail_mass == 0.0


class TestTVD:
    def test_identical_tables(self):
        t = FCTable({(0, 0): 0.6, (1, 1): 0.4})
        assert tvd(t, t) == 0.0

    def test_disjoint_tables(self):
        a = FCTable({(0, 0): 1.0})
        b = FCTable({(1, 0): 1.0})
        assert tvd(a, b) == pytest.approx(1.0)

    def test_symmetry_and_triangle(self):
        rng = np.random.default_rng(31)
        for _ in range(5):
            tables = []
            for _ in range(3):
                raw = rng.uniform(0, 1, size=4)
                raw /= raw.sum()
                keys = [(0, 0), (1, 0), (0, 1), (1, 1)]
                tables.append(FCTable(dict(zip(keys, raw))))
            a, b, c = tables
            assert tvd(a, b) == pytest.approx(tvd(b, a), abs=1e-12)
            assert tvd(a, c) <= tvd(a, b) + tvd(b, c) + 1e-12

    def test_residual_sink_included(self):
        a = FCTable({(0, 0): 0.7})
        b = FCTable({(0, 0): 1.0})
        assert tvd(a, b) == pytest.approx(0.3, abs=1e-12)
        assert tvd(a, b, residual_sink=False) == pytest.approx(0.15, abs=1e-12)

    def test_reported_experiment_error(self):
        # half the summed differences over the listed outcomes of both columns
        experiment = reference_table("experiment")
        ideal = reference_table("ideal")
        assert tvd(experiment, ideal, residual_sink=False) == pytest.approx(0.206, abs=0.005)

    def test_mode_count_mismatch(self):
        with pytest.raises(ValueError):
            tvd(FCTable({(0,): 1.0}), FCTable({(0, 0): 1.0}))


class TestTraceBound:
    def test_endpoints(self):
        assert trace_bound(1.0) == 0.0
        assert trace_bound(0.0) == 1.0

    def test_reference_values(self):
        assert trace_bound(0.879) == pytest.approx(0.4768, abs=1e-4)
        assert trace_bound(0.890) == pytest.approx(0.456, abs=1e-3)

    def test_monotone_decreasing(self):
        fs = np.linspace(0, 1, 11)
        bounds = [trace_bound(f) for f in fs]
        assert all(b2 < b1 for b1, b2 in zip(bounds, bounds[1:]))

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            trace_bound(1.2)


class TestTotalBound:
    def test_arithmetic(self):
        budget = total_bound(0.890, 0.0, 0.001)
        assert budget.total == pytest.approx(math.sqrt(1 - 0.890**2) + 0.001, abs=1e-12)
        assert budget.total == pytest.approx(0.457, abs=1e-3)

    def test_perfect_fidelity(self):
        assert total_bound(1.0, 0.0, 0.0).total == 0.0

    def test_component_sum(self):
        budget = total_bound(0.879, 0.01, 0.002)
        assert budget.total == pytest.approx(
            budget.fidelity_bound + budget.eps_stat + budget.eps_g, abs=1e-12
        )

    def test_negative_terms_rejected(self):
        with pytest.raises(ValueError):
            total_bound(0.9, -0.1, 0.0)


class TestClosestClassical:
    def test_tropolone_benchmark(self):
        bench = closest_classical(tropolone_target())
        assert np.max(np.abs(bench.classical_state.cov - 0.5 * np.eye(4))) < 1e-12
        assert np.max(np.abs(bench.classical_state.mean)) == 0.0
        assert bench.classical_fidelity == pytest.approx(0.879, abs=0.001)
        assert bench.classical_bound == pytest.approx(0.476, abs=0.001)

    def test_coherent_target_is_classical(self):
        target = OpticalTarget((0.0,), displacement=(0.6 + 0.2j,))
        bench = closest_classical(target)
        assert bench.classical_fidelity == pytest.approx(1.0, abs=1e-9)

    def test_displaced_squeezed_keeps_mean(self):
        target = OpticalTarget((0.5,), displacement=(0.4 - 0.3j,))
        bench = closest_classical(target)
        assert np.allclose(bench.classical_state.mean, target.state().mean, atol=1e-12)
        assert np.allclose(bench.classical_state.cov, 0.5 * np.eye(2), atol=1e-12)


class TestWitness:
    def test_reference_margin(self):
        bench = closest_classical(tropolone_target())
        result = witness(0.890, 0.001, bench)
        assert result.passes
        assert 9.0 < result.margin_sigmas < 12.0

    def test_boundary_fails(self):
        bench = closest_classical(tropolone_target())
        result = witness(bench.classical_fidelity, 0.01, bench)
        assert not result.passes

    def test_low_fidelity_fails(self):
        bench = closest_classical(tropolone_target())
        assert not witness(0.5, 0.01, bench).passes

    def test_sigma_validation(self):
        bench = closest_classical(tropolone_target())
        with pytest.raises(ValueError):
            witness(0.9, 0.0, bench)


class TestDistanceInequality:
    def test_tvd_below_fidelity_bound(self):
        # photon statistics can never differ by more than the state bound
        rng = np.random.default_rng(33)
        for _ in range(10):
            c1 = random_circuit(rng, max_mode_photons=0.5)
            c2 = random_circuit(rng, max_mode_photons=0.5)
            s1, s2 = replay(c1), replay(c2)
            p1 = photon_distribution(replay_fock(c1, 16, strict=False))
            p2 = photon_distribution(replay_fock(c2, 16, strict=False))
            bound = trace_bound(fidelity(s1, s2))
            slack = 2 * (p1.tail_mass + p2.tail_mass)
            assert tvd(p1, p2) <= bound + slack + 1e-9


def test_restrict_to():
    table = FCTable({(0, 0): 0.5, (1, 0): 0.3, (0, 1): 0.2})
    restricted = restrict_to(table, [(0, 0), (1, 0)])
    assert restricted.entries == {(0, 0): 0.5, (1, 0): 0.3}
    assert restricted.tail_mass == pytest.approx(0.2)
