import copy
import math
import pickle

import numpy as np
import pytest

from vibsim.fixtures import tropolone_target, tropolone_excited_freqs
from vibsim.fock import TruncationError, gaussian_to_fock, photon_distribution, replay_fock
from vibsim.gaussian import replay
from vibsim.metrics import tvd
from vibsim.tables import FCTable
from vibsim.vibronic import (
    OpticalTarget,
    VibronicTransition,
    doktorov_decompose,
    fc_factors,
    gaussian_statistics,
    spectrum,
)
from helpers import TROPOLONE_IDEAL, random_circuit


def random_transition(rng, modes=2):
    a = rng.normal(size=(modes, modes))
    q, _ = np.linalg.qr(a)
    gf = rng.uniform(50, 500, size=modes)
    ef = rng.uniform(50, 500, size=modes)
    return VibronicTransition(q, gf, ef)


class TestDecompose:
    def test_identity_transition(self):
        t = VibronicTransition(np.eye(2), [100.0, 200.0], [100.0, 200.0])
        target = doktorov_decompose(t)
        assert np.allclose(target.squeeze, 0.0, atol=1e-12)
        total = np.eye(2)
        for elem in target.interferometer:
            from vibsim.gaussian import _symplectic

            s = _symplectic(elem, 2, 1)[0][0]
            total = s[:2, :2] @ total
        assert np.max(np.abs(total - np.eye(2))) < 1e-10

    def test_pure_frequency_change(self):
        rho = 0.35
        t = VibronicTransition(np.eye(1), [120.0], [120.0 * math.exp(2 * rho)])
        target = doktorov_decompose(t)
        assert abs(target.squeeze[0]) == pytest.approx(rho, abs=1e-12)
        # the transformation scales x by exp(rho): variance exp(2 rho)/2
        state = target.state()
        assert state.cov[0, 0] == pytest.approx(math.exp(2 * rho) / 2, abs=1e-10)

    def test_reproduces_point_transformation(self):
        rng = np.random.default_rng(21)
        for _ in range(5):
            t = random_transition(rng)
            j = (np.diag(np.sqrt(t.excited_freqs)) @ t.duschinsky
                 @ np.diag(1.0 / np.sqrt(t.ground_freqs)))
            expected_cov = np.block([
                [0.5 * j @ j.T, np.zeros((2, 2))],
                [np.zeros((2, 2)), 0.5 * np.linalg.inv(j @ j.T)],
            ])
            state = doktorov_decompose(t).state()
            assert np.max(np.abs(state.cov - expected_cov)) < 1e-9

    def test_permutation_gauge_stability(self):
        rng = np.random.default_rng(22)
        perm = np.array([1, 0])
        for _ in range(5):
            t = random_transition(rng)
            permuted = VibronicTransition(
                t.duschinsky[np.ix_(perm, perm)],
                t.ground_freqs[perm],
                t.excited_freqs[perm],
            )
            r_base = sorted(np.abs(doktorov_decompose(t).squeeze))
            r_perm = sorted(np.abs(doktorov_decompose(permuted).squeeze))
            assert np.allclose(r_base, r_perm, atol=1e-10)
            cov = doktorov_decompose(t).state().cov
            cov_p = doktorov_decompose(permuted).state().cov
            idx = np.concatenate([perm, perm + 2])
            assert np.max(np.abs(cov_p - cov[np.ix_(idx, idx)])) < 1e-9

    def test_displacement_mapping(self):
        t = VibronicTransition(np.eye(1), [100.0], [100.0], displacement=[1.3])
        state = doktorov_decompose(t).state()
        assert state.mean[0] == pytest.approx(1.3, abs=1e-12)
        assert state.mean[1] == pytest.approx(0.0, abs=1e-12)

    def test_non_orthogonal_rejected(self):
        with pytest.raises(ValueError):
            VibronicTransition([[1.0, 0.4], [0.0, 1.0]], [100, 100], [100, 100])

    def test_near_orthogonal_warns(self):
        u = np.array([[0.9, 0.436], [-0.436, 0.9]])  # column norms 1.00005
        with pytest.warns(UserWarning):
            VibronicTransition(u, [100.0, 100.0], [100.0, 100.0])

    def test_non_finite_displacement_rejected(self):
        with pytest.raises(ValueError, match="finite"):
            VibronicTransition(np.eye(2), [100.0, 200.0], [100.0, 200.0], [math.nan, 0.0])


class TestTargetState:
    def test_state_is_memoized(self):
        target = doktorov_decompose(random_transition(np.random.default_rng(41)))
        state = target.state()
        assert target.state() is state
        fresh = replay(target.circuit())
        assert np.array_equal(state.mean, fresh.mean)
        assert np.array_equal(state.cov, fresh.cov)

    def test_memo_leaves_equality_and_hash(self):
        target = tropolone_target()
        twin = OpticalTarget(target.squeeze, target.interferometer, target.displacement)
        target.state()
        assert target == twin
        assert hash(target) == hash(twin)

    def test_pickle_and_copy_after_memo(self):
        target = tropolone_target()
        state = target.state()
        for twin in (pickle.loads(pickle.dumps(target)), copy.deepcopy(target)):
            assert twin == target
            assert np.array_equal(twin.state().cov, state.cov)


class TestFCFactors:
    def test_no_squeezing_gives_vacuum_table(self):
        table = fc_factors(OpticalTarget((0.0, 0.0)), 8)
        assert table.probability((0, 0)) == pytest.approx(1.0, abs=1e-12)

    def test_tropolone_table(self):
        table = fc_factors(tropolone_target(), 20)
        for outcome, value in TROPOLONE_IDEAL.items():
            assert table.probability(outcome) == pytest.approx(value, abs=0.002)
        assert table.probability((1, 0)) < 1e-12
        assert table.probability((0, 1)) < 1e-12

    def test_vacuum_probability_formula(self):
        rng = np.random.default_rng(23)
        for _ in range(4):
            rs = rng.uniform(-0.8, 0.8, size=2)
            theta = rng.uniform(-1.3, 1.3)
            from vibsim.gaussian import BeamSplitter

            target = OpticalTarget(tuple(rs), (BeamSplitter(0, 1, theta),))
            table = fc_factors(target, 20)
            expected = 1.0 / (math.cosh(rs[0]) * math.cosh(rs[1]))
            assert table.probability((0, 0)) == pytest.approx(expected, abs=1e-9)

    def test_sums_to_one_minus_tail(self):
        # the tail the entries leave is the mass the replay truncated
        for r in (0.4, 0.8):
            target = OpticalTarget((r, -r / 2))
            table = fc_factors(target, 20)
            assert table.tail_mass == pytest.approx(
                replay_fock(target.circuit(), 20).tail_mass, abs=1e-12)
            assert table.tail_mass < 1e-6

    def test_unconverged_cutoff(self):
        with pytest.raises(TruncationError):
            fc_factors(tropolone_target(), 4)


class TestGaussianStatistics:
    def test_matches_fock_replay(self):
        rng = np.random.default_rng(24)
        for _ in range(3):
            circuit = random_circuit(rng, max_mode_photons=0.5)
            direct = photon_distribution(replay_fock(circuit, 18, strict=False))
            synth = gaussian_statistics(replay(circuit), 18)
            assert tvd(direct, synth) < 1e-7


class TestSpectrum:
    def test_single_peak_for_vacuum_table(self):
        spec = spectrum(FCTable({(0, 0): 1.0}), (176.0, 110.0))
        assert spec.peaks == ((0.0, 1.0),)

    def test_tropolone_peak_at_352(self):
        table = fc_factors(tropolone_target(), 20)
        spec = spectrum(table, tropolone_excited_freqs())
        intensity = sum(i for f, i in spec.peaks if f == pytest.approx(352.0, abs=1e-9))
        assert intensity == pytest.approx(0.1097, abs=0.002)

    def test_degenerate_frequencies_merge(self):
        # equal mode frequencies: (1,0) and (0,1) land on one peak
        table = FCTable({(1, 0): 0.3, (0, 1): 0.2, (0, 0): 0.5})
        spec = spectrum(table, (100.0, 100.0))
        assert spec.peaks == ((0.0, 0.5), (100.0, pytest.approx(0.5)))

    def test_distinct_frequencies_stay_separate(self):
        table = FCTable({(2, 0): 0.4, (0, 2): 0.6})
        spec = spectrum(table, (176.0, 110.0))
        assert [f for f, _ in spec.peaks] == [220.0, 352.0]

    def test_peaks_sorted(self):
        table = fc_factors(tropolone_target(), 16)
        freqs = [f for f, _ in spectrum(table, (176.0, 110.0)).peaks]
        assert freqs == sorted(freqs)
