import math

import numpy as np
import pytest

from vibsim.gaussian import (
    BeamSplitter,
    Displace,
    GaussianCircuit,
    GaussianState,
    Loss,
    PhysicalityError,
    Squeeze,
    ThermalMix,
    TwoModeSqueeze,
    apply,
    fidelity,
    mean_photon,
    replay,
    symplectic_eigenvalues,
    symplectic_form,
    total_mean_photon,
    vacuum,
)
from vibsim import gaussian
from vibsim.fock import fidelity_fock, replay_fock
from helpers import random_circuit


class TestVacuum:
    def test_covariance_and_mean(self):
        v = vacuum(2)
        assert np.array_equal(v.cov, 0.5 * np.eye(4))
        assert np.array_equal(v.mean, np.zeros(4))

    def test_mean_photon_zero(self):
        v = vacuum(3)
        for mode in range(3):
            assert mean_photon(v, mode) == 0.0

    def test_zero_modes_rejected(self):
        with pytest.raises(ValueError):
            vacuum(0)


class TestElements:
    def test_squeeze_mean_photons(self):
        state = apply(vacuum(1), Squeeze(0, 0.72))
        assert mean_photon(state, 0) == pytest.approx(math.sinh(0.72) ** 2, abs=1e-12)

    def test_full_loss_resets_mode(self):
        state = replay(GaussianCircuit(2, [Squeeze(0, 0.5), TwoModeSqueeze(0, 1, 0.3)]))
        lost = apply(state, Loss(0, 0.0))
        assert mean_photon(lost, 0) == pytest.approx(0.0, abs=1e-12)
        assert lost.cov[0, 0] == pytest.approx(0.5, abs=1e-12)

    def test_beam_splitter_preserves_vacuum(self):
        out = apply(vacuum(2), BeamSplitter(0, 1, 0.7, 0.3))
        assert np.allclose(out.cov, 0.5 * np.eye(4), atol=1e-14)

    def test_loss_scales_mean_photons(self):
        state = apply(vacuum(1), Squeeze(0, 0.6))
        before = mean_photon(state, 0)
        after = mean_photon(apply(state, Loss(0, 0.35)), 0)
        assert after == pytest.approx(0.35 * before, abs=1e-12)

    def test_displacement_photons(self):
        alpha = 0.4 - 0.9j
        state = apply(vacuum(1), Displace(0, alpha))
        assert mean_photon(state, 0) == pytest.approx(abs(alpha) ** 2, abs=1e-12)

    def test_thermal_mix_full_reflectivity_gives_thermal(self):
        nbar = 1.7
        state = apply(vacuum(1), ThermalMix(0, 1.0, nbar))
        nus = symplectic_eigenvalues(state)
        assert nus[0] == pytest.approx(nbar + 0.5, abs=1e-12)

    @pytest.mark.parametrize("elem", [
        Squeeze(3, 0.1),
        Loss(0, 1.4),
        ThermalMix(0, -0.1, 1.0),
        BeamSplitter(0, 0, 0.3),
    ])
    def test_invalid_elements_rejected(self, elem):
        with pytest.raises(ValueError):
            apply(vacuum(2), elem)


class TestReplay:
    def test_empty_circuit_is_vacuum(self):
        state = replay(GaussianCircuit(2))
        assert np.array_equal(state.cov, 0.5 * np.eye(4))

    def test_tmsv_beam_splitter_identity(self):
        r = 0.47
        mixed = replay(GaussianCircuit(2, [TwoModeSqueeze(0, 1, r), BeamSplitter(0, 1, np.pi / 4)]))
        pair = replay(GaussianCircuit(2, [Squeeze(0, -r), Squeeze(1, r)]))
        assert np.max(np.abs(mixed.cov - pair.cov)) < 1e-12

    def test_tmsv_per_mode_photons(self):
        r = 0.55
        state = replay(GaussianCircuit(2, [TwoModeSqueeze(0, 1, r)]))
        for mode in range(2):
            assert mean_photon(state, mode) == pytest.approx(math.sinh(r) ** 2, abs=1e-12)


def apply_fold(circuit):
    """Reference replay: the public :func:`apply`, element by element."""
    state = vacuum(circuit.num_modes)
    for elem in circuit.elements:
        state = apply(state, elem)
    return state


def fresh_symplectic_eigenvalues(cov):
    eigs = np.linalg.eigvals(1j * symplectic_form(len(cov) // 2) @ cov)
    return np.sort(np.abs(eigs))[::2]


class TestReplayFold:
    @pytest.mark.parametrize("seed", range(24))
    def test_replay_equals_apply_fold(self, seed):
        rng = np.random.default_rng(seed)
        circuit = random_circuit(rng, int(rng.integers(1, 4)), max_elements=8)
        state, reference = replay(circuit), apply_fold(circuit)
        assert np.array_equal(state.mean, reference.mean)
        assert np.array_equal(state.cov, reference.cov)

    def test_symplectic_form_layout(self):
        n = 3
        eye, zero = np.eye(n), np.zeros((n, n))
        assert np.array_equal(symplectic_form(n), np.block([[zero, eye], [-eye, zero]]))


class TestStoredEigenvalues:
    def test_validated_state_keeps_its_eigenvalues(self):
        rng = np.random.default_rng(21)
        for _ in range(6):
            state = replay(random_circuit(rng))
            nu = symplectic_eigenvalues(state)
            assert symplectic_eigenvalues(state) is nu
            assert np.array_equal(nu, fresh_symplectic_eigenvalues(state.cov))

    def test_unvalidated_state_computes_once(self):
        state = replay(random_circuit(np.random.default_rng(22)))
        lazy = GaussianState(state.mean, state.cov, validate=False)
        nu = symplectic_eigenvalues(lazy)
        assert symplectic_eigenvalues(lazy) is nu
        assert np.array_equal(nu, fresh_symplectic_eigenvalues(state.cov))
        assert np.array_equal(symplectic_eigenvalues(vacuum(2)), [0.5, 0.5])

    def test_read_only(self):
        state = replay(random_circuit(np.random.default_rng(23)))
        nu = symplectic_eigenvalues(state)
        with pytest.raises(ValueError):
            nu[0] = 0.0
        with pytest.raises(AttributeError):
            state._nu = None


class TestInvariants:
    def test_unitary_preserves_symplectic_spectrum(self):
        rng = np.random.default_rng(11)
        for _ in range(10):
            circuit = random_circuit(rng, channels=False)
            state = replay(circuit)
            assert np.all(np.abs(symplectic_eigenvalues(state) - 0.5) < 1e-9)

    def test_passive_preserves_total_photons(self):
        rng = np.random.default_rng(12)
        for _ in range(10):
            state = replay(random_circuit(rng))
            mixed = apply(state, BeamSplitter(0, 1, rng.uniform(-1.5, 1.5), rng.uniform(0, 6.2)))
            assert total_mean_photon(mixed) == pytest.approx(total_mean_photon(state), abs=1e-12)

    def test_loss_composition(self):
        rng = np.random.default_rng(13)
        for _ in range(6):
            state = replay(random_circuit(rng))
            e1, e2 = rng.uniform(0.2, 1.0, size=2)
            twice = apply(apply(state, Loss(0, e1)), Loss(0, e2))
            once = apply(state, Loss(0, e1 * e2))
            assert np.max(np.abs(twice.cov - once.cov)) < 1e-12
            assert np.max(np.abs(twice.mean - once.mean)) < 1e-12

    def test_balanced_loss_commutes_with_beam_splitter(self):
        rng = np.random.default_rng(14)
        for _ in range(6):
            state = replay(random_circuit(rng, channels=False))
            eta = rng.uniform(0.2, 1.0)
            theta = rng.uniform(-1.4, 1.4)
            bs = BeamSplitter(0, 1, theta)
            pre = apply(apply(apply(state, Loss(0, eta)), Loss(1, eta)), bs)
            post = apply(apply(apply(state, bs), Loss(0, eta)), Loss(1, eta))
            assert np.max(np.abs(pre.cov - post.cov)) < 1e-12


class TestFidelity:
    def test_self_fidelity(self):
        rng = np.random.default_rng(15)
        for _ in range(8):
            state = replay(random_circuit(rng))
            assert fidelity(state, state) == pytest.approx(1.0, abs=1e-9)

    def test_perturbed_self_fidelity(self):
        # same states as above, several of them mixed with a pure mode
        rng = np.random.default_rng(15)
        for _ in range(8):
            state = replay(random_circuit(rng))
            nudged = GaussianState(state.mean + 1e-9, state.cov + 1e-9 * np.eye(len(state.cov)))
            assert fidelity(state, nudged) == pytest.approx(1.0, abs=1e-6)

    @pytest.mark.parametrize("loss2", [(0.6, 1.0), (0.6, 0.8)])
    def test_pure_mode_pair_matches_fock(self, loss2):
        # loss on one arm of a two-mode squeezer leaves one symplectic
        # eigenvalue at 1/2, the singular case of the mixed-state formula
        c1 = GaussianCircuit(2, [TwoModeSqueeze(0, 1, 0.3), Loss(0, 0.7)])
        c2 = GaussianCircuit(2, [TwoModeSqueeze(0, 1, 0.35), Displace(1, 0.2),
                                 Loss(0, loss2[0]), Loss(1, loss2[1])])
        expected = fidelity_fock(replay_fock(c1, 16), replay_fock(c2, 16))
        assert fidelity(replay(c1), replay(c2)) == pytest.approx(expected, abs=1e-6)

    @pytest.mark.parametrize("seed", range(4))
    def test_continuous_across_purity_switch(self, seed):
        # scaling a pure covariance by 1 + 2 eps puts every symplectic
        # eigenvalue at 1/2 + eps: below the switch the overlap formula
        # applies, above it the mixed-state formula; the fidelity itself
        # moves by about sqrt(eps) between the two
        rng = np.random.default_rng(seed)
        mixed = replay(random_circuit(rng).extended(ThermalMix(0, 0.2, 0.3)))
        pure = replay(random_circuit(rng, channels=False))
        tol = gaussian._PURITY_TOL
        near = [GaussianState(pure.mean, (1.0 + 2.0 * eps) * pure.cov)
                for eps in (tol / 2, 2 * tol)]
        below, above = (symplectic_eigenvalues(s)[-1] for s in near)
        assert below < 0.5 + tol < above
        assert fidelity(mixed, near[0]) == pytest.approx(fidelity(mixed, near[1]), abs=1e-6)

    def test_mixed_pairs_match_fock(self):
        rng = np.random.default_rng(31)
        checked = 0
        while checked < 6:
            circuits = [random_circuit(rng).extended(ThermalMix(m, 0.15, 0.2))
                        for m in rng.integers(0, 2, size=2)]
            states = [replay(c) for c in circuits]
            rhos = [replay_fock(c, 18, strict=False) for c in circuits]
            if max(rho.tail_mass for rho in rhos) >= 1e-3:
                continue
            assert min(symplectic_eigenvalues(s)[-1] for s in states) > 0.5 + 1e-6
            expected = fidelity_fock(*rhos)
            assert fidelity(*states) == pytest.approx(expected, abs=1e-6)
            checked += 1

    def test_symmetry_and_range(self):
        rng = np.random.default_rng(16)
        for _ in range(8):
            s1 = replay(random_circuit(rng))
            s2 = replay(random_circuit(rng))
            f12, f21 = fidelity(s1, s2), fidelity(s2, s1)
            assert 0.0 <= f12 <= 1.0
            assert f12 == pytest.approx(f21, abs=1e-8)

    def test_vacuum_vs_squeezed(self):
        # pure-state overlap |<0|S(r)|0>| = 1/sqrt(cosh r)
        for r in (0.1, 0.45, 0.9):
            state = apply(vacuum(1), Squeeze(0, r))
            assert fidelity(vacuum(1), state) == pytest.approx(1 / math.sqrt(math.cosh(r)), abs=1e-10)

    def test_coherent_states_overlap(self):
        a, b = 0.8 + 0.1j, -0.2 + 0.5j
        s1 = apply(vacuum(1), Displace(0, a))
        s2 = apply(vacuum(1), Displace(0, b))
        assert fidelity(s1, s2) == pytest.approx(math.exp(-abs(a - b) ** 2 / 2), abs=1e-10)

    def test_thermal_pair_closed_form(self):
        # mixed-mixed branch: two single-mode thermal states,
        # F = 1 / (sqrt((n1+1)(n2+1)) - sqrt(n1 n2))
        n1, n2 = 0.4, 1.3
        t1 = apply(vacuum(1), ThermalMix(0, 1.0, n1))
        t2 = apply(vacuum(1), ThermalMix(0, 1.0, n2))
        expected = 1.0 / (math.sqrt((n1 + 1) * (n2 + 1)) - math.sqrt(n1 * n2))
        assert fidelity(t1, t2) == pytest.approx(expected, abs=1e-9)

    def test_displaced_thermal_closed_form(self):
        # equal covariances nu*I: F = exp(-|delta|^2 / (8 nu))
        nbar, alpha = 0.6, 0.5 + 0.3j
        t0 = apply(vacuum(1), ThermalMix(0, 1.0, nbar))
        t1 = apply(t0, Displace(0, alpha))
        expected = math.exp(-2 * abs(alpha) ** 2 / (8 * (nbar + 0.5)))
        assert fidelity(t0, t1) == pytest.approx(expected, abs=1e-11)

    def test_mode_count_mismatch(self):
        with pytest.raises(ValueError):
            fidelity(vacuum(1), vacuum(2))

    def test_unphysical_rejected(self):
        with pytest.raises(PhysicalityError):
            GaussianState(np.zeros(2), 0.4 * np.eye(2))
