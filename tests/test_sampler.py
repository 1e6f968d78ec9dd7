import numpy as np
import pytest

from vibsim.fixtures import tropolone_target
from vibsim.metrics import tvd
from vibsim.sampler import estimate_fc, sample
from vibsim.tables import FCTable, sink_outcome
from vibsim.vibronic import fc_factors


@pytest.fixture(scope="module")
def ideal_table():
    return fc_factors(tropolone_target(), 20)


class TestSample:
    def test_deterministic_table(self):
        hist = sample(FCTable({(0, 0): 1.0}), 500, seed=0)
        assert hist.counts == {(0, 0): 500}

    def test_single_shot(self):
        hist = sample(FCTable({(0, 0): 0.5, (1, 1): 0.5}), 1, seed=3)
        assert sum(hist.counts.values()) == 1

    def test_seed_reproducibility(self, ideal_table):
        h1 = sample(ideal_table, 10_000, seed=11)
        h2 = sample(ideal_table, 10_000, seed=11)
        assert h1.counts == h2.counts

    def test_concentration_at_reference_shot_count(self, ideal_table):
        for seed in range(5):
            hist = sample(ideal_table, 1_638_370, seed=seed)
            empirical = hist.frequencies()
            assert tvd(empirical, ideal_table.with_sink()) < 0.002

    def test_tail_goes_to_sink(self):
        table = FCTable({(0, 0): 0.5})
        hist = sample(table, 20_000, seed=7)
        sink = sink_outcome(2)
        assert hist.counts[sink] > 8_000

    def test_invalid_shots(self):
        with pytest.raises(ValueError):
            sample(FCTable({(0, 0): 1.0}), 0, seed=0)


class TestEstimate:
    def test_degenerate_histogram(self):
        from vibsim.tables import CountHistogram

        hist = CountHistogram({(0, 0): 1000}, 1000)
        est = estimate_fc(hist, seed=0)
        assert est.table.probability((0, 0)) == 1.0
        assert est.eps_stat == pytest.approx(0.0, abs=1e-12)

    def test_reference_scale(self, ideal_table):
        hist = sample(ideal_table, 1_638_370, seed=1)
        est = estimate_fc(hist, seed=1)
        assert est.eps_stat < 0.005

    def test_inverse_sqrt_scaling(self):
        table = FCTable({(0, 0): 0.3, (1, 0): 0.3, (0, 1): 0.2, (1, 1): 0.2})
        eps = []
        for shots in (100, 10_000, 1_000_000):
            hist = sample(table, shots, seed=5)
            eps.append(estimate_fc(hist, seed=5).eps_stat)
        assert eps[0] > eps[1] > eps[2]
        assert eps[0] / eps[1] == pytest.approx(10.0, rel=0.5)

    def test_bootstrap_seeded(self, ideal_table):
        hist = sample(ideal_table, 50_000, seed=2)
        e1 = estimate_fc(hist, seed=4).eps_stat
        e2 = estimate_fc(hist, seed=4).eps_stat
        assert e1 == e2

    def test_estimate_close_to_truth(self, ideal_table):
        hits = 0
        for seed in range(10):
            hist = sample(ideal_table, 200_000, seed=seed)
            est = estimate_fc(hist, seed=seed)
            if tvd(est.table, ideal_table.with_sink()) < 3 * est.eps_stat:
                hits += 1
        assert hits >= 9
