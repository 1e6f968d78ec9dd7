import math
import tracemalloc

import numpy as np
import pytest
import scipy.linalg as la

from vibsim import fock
from vibsim.fock import (
    FockDensity,
    TruncationError,
    attach_detector_noise,
    element_matrix,
    fidelity_fock,
    gaussian_to_fock,
    mean_photon_fock,
    photon_distribution,
    replay_fock,
)
from vibsim.gaussian import (
    BeamSplitter,
    Displace,
    GaussianCircuit,
    Loss,
    Squeeze,
    ThermalMix,
    TwoModeSqueeze,
    mean_photon,
    replay,
)
from vibsim.metrics import tvd
from helpers import lossy_tmsv_distribution, random_circuit, table_total_variation


class _Detector:
    def __init__(self, dark_p1=0.0, pump_p2=0.0):
        self.dark_p1 = dark_p1
        self.pump_p2 = pump_p2


class TestElementMatrix:
    def test_zero_squeeze_is_identity(self):
        assert np.allclose(element_matrix(Squeeze(0, 0.0), 12), np.eye(12), atol=1e-14)

    def test_zero_displacement_is_identity(self):
        assert np.allclose(element_matrix(Displace(0, 0j), 12), np.eye(12), atol=1e-14)

    def test_unitarity(self):
        for elem in (Squeeze(0, 0.6, 0.4), Displace(0, 0.5 - 0.2j),
                     BeamSplitter(0, 1, 0.7, 1.1), TwoModeSqueeze(0, 1, 0.4)):
            u = element_matrix(elem, 10)
            assert np.max(np.abs(u.conj().T @ u - np.eye(u.shape[0]))) < 1e-10

    def test_single_photon_interference(self):
        # one photon on a balanced splitter: half amplitude in each output
        cutoff = 6
        u = element_matrix(BeamSplitter(0, 1, np.pi / 4), cutoff)
        vec_in = np.zeros(cutoff * cutoff)
        vec_in[1 * cutoff + 0] = 1.0  # |1, 0>
        out = u @ vec_in
        amp_10 = out[1 * cutoff + 0]
        amp_01 = out[0 * cutoff + 1]
        assert abs(abs(amp_10) - 1 / math.sqrt(2)) < 1e-10
        assert abs(abs(amp_01) - 1 / math.sqrt(2)) < 1e-10
        others = np.delete(out, [1 * cutoff, 1])
        assert np.max(np.abs(others)) < 1e-12

    def test_channels_have_no_matrix(self):
        with pytest.raises(TypeError):
            element_matrix(Loss(0, 0.5), 8)

    def test_tiny_cutoff_rejected(self):
        with pytest.raises(ValueError):
            element_matrix(Squeeze(0, 0.1), 1)


def _ladder_pair(cutoff):
    """Truncated a1, a2 on the row-major pair space |m1, m2>."""
    a = np.diag(np.sqrt(np.arange(1.0, cutoff)), k=1)
    eye = np.eye(cutoff)
    return np.kron(a, eye), np.kron(eye, a)


def _dense(op, cutoff):
    out = np.zeros((cutoff * cutoff,) * 2, dtype=complex)
    perm = op.index[0] * cutoff + op.index[1]
    out[np.ix_(perm, perm)] = la.block_diag(*op.blocks)
    return out


def _random_density(rng, dim):
    x = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    rho = x @ x.conj().T
    return rho / np.trace(rho).real


def _apply_to_density(rho, elem, num_modes, cutoff):
    ws = fock._FockWorkspace(num_modes, cutoff)
    ws.vec, ws.rho = None, rho.reshape((cutoff,) * (2 * num_modes))
    fock._apply_element(ws, elem)
    return ws.density()


def _kraus_sum(rho, kraus, mode, cutoff):
    """sum_k K_k rho K_k+ with each K_k acting on ``mode`` of two."""
    eye = np.eye(cutoff)
    out = np.zeros_like(rho)
    for k in kraus:
        full = np.kron(k, eye) if mode == 0 else np.kron(eye, k)
        out += full @ rho @ full.conj().T
    return out


def _loss_kraus(eta, cutoff):
    ops = []
    for k in range(cutoff):
        op = np.zeros((cutoff, cutoff))
        for n in range(k, cutoff):
            op[n - k, n] = math.sqrt(math.comb(n, k) * eta ** (n - k) * (1 - eta) ** k)
        ops.append(op)
    return ops


def _amplifier_kraus(gain, cutoff):
    s = math.acosh(math.sqrt(gain))
    ops = []
    for k in range(cutoff):
        op = np.zeros((cutoff, cutoff))
        for n in range(cutoff - k):
            op[n + k, n] = math.sqrt(math.comb(n + k, k)) * math.tanh(s) ** k / math.cosh(s) ** (n + 1)
        ops.append(op)
    return ops


class TestBlockOperators:
    cutoff = 6

    def test_beam_splitter_is_exp_of_generator(self):
        theta, phase = 0.7, 1.1
        a1, a2 = _ladder_pair(self.cutoff)
        gen = theta * (np.exp(1j * phase) * a1.T @ a2 - np.exp(-1j * phase) * a1 @ a2.T)
        u = element_matrix(BeamSplitter(0, 1, theta, phase), self.cutoff)
        assert np.max(np.abs(u - la.expm(gen))) < 1e-12

    def test_two_mode_squeezer_is_exp_of_generator(self):
        r = 0.4
        a1, a2 = _ladder_pair(self.cutoff)
        gen = r * (a1.T @ a2.T - a1 @ a2)
        u = element_matrix(TwoModeSqueeze(0, 1, r), self.cutoff)
        assert np.max(np.abs(u - la.expm(gen))) < 1e-12

    def test_squeezer_is_exp_of_generator(self):
        z = 0.6 * np.exp(0.4j)
        a = np.diag(np.sqrt(np.arange(1.0, self.cutoff)), k=1)
        gen = 0.5 * (np.conj(z) * a @ a - z * a.T @ a.T)
        u = element_matrix(Squeeze(0, 0.6, 0.4), self.cutoff)
        assert np.max(np.abs(u - la.expm(gen))) < 1e-12

    def test_displacement_is_exp_of_generator(self):
        alpha = 0.5 - 0.2j
        a = np.diag(np.sqrt(np.arange(1.0, self.cutoff)), k=1)
        u = element_matrix(Displace(0, alpha), self.cutoff)
        assert np.max(np.abs(u - la.expm(alpha * a.T - np.conj(alpha) * a))) < 1e-12

    def test_passive_mixing_is_exp_of_generator(self):
        rng = np.random.default_rng(11)
        w, _ = np.linalg.qr(rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2)))
        small = la.logm(w)
        ladders = _ladder_pair(self.cutoff)
        gen = sum(small[j, k] * ladders[j].T @ ladders[k] for j in range(2) for k in range(2))
        u = _dense(fock._passive_operator(w, self.cutoff), self.cutoff)
        assert np.max(np.abs(u - la.expm(gen))) < 1e-12

    def test_loss_is_kraus_sum(self):
        rho = _random_density(np.random.default_rng(12), self.cutoff**2)
        got = _apply_to_density(rho, Loss(1, 0.7), 2, self.cutoff)
        expected = _kraus_sum(rho, _loss_kraus(0.7, self.cutoff), 1, self.cutoff)
        assert np.max(np.abs(got - expected)) < 1e-12

    def test_thermal_mix_is_kraus_sum(self):
        reflectivity, nbar = 0.3, 0.6
        rho = _random_density(np.random.default_rng(13), self.cutoff**2)
        got = _apply_to_density(rho, ThermalMix(0, reflectivity, nbar), 2, self.cutoff)
        gain = 1 + reflectivity * nbar
        lossy = _kraus_sum(rho, _loss_kraus((1 - reflectivity) / gain, self.cutoff), 0, self.cutoff)
        expected = _kraus_sum(lossy, _amplifier_kraus(gain, self.cutoff), 0, self.cutoff)
        assert np.max(np.abs(got - expected)) < 1e-12

    def test_cached_pair_operator_is_cubic_in_cutoff(self):
        cutoff = 30
        for fn in vars(fock).values():
            if hasattr(fn, "cache_clear"):
                fn.cache_clear()
        tracemalloc.start()
        try:
            replay_fock(GaussianCircuit(2, [BeamSplitter(0, 1, 0.4, 0.3)]), cutoff)
            retained, _ = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        complex_entries = retained / np.dtype(complex).itemsize
        assert complex_entries < cutoff**4 / 10


class TestReplay:
    def test_empty_circuit(self):
        rho = replay_fock(GaussianCircuit(2), 5)
        expected = np.zeros((25, 25))
        expected[0, 0] = 1.0
        assert np.max(np.abs(rho.matrix - expected)) < 1e-14

    def test_squeezed_mean_photons(self):
        rho = replay_fock(GaussianCircuit(1, [Squeeze(0, 0.72)]), 25)
        assert mean_photon_fock(rho, 0) == pytest.approx(math.sinh(0.72) ** 2, abs=1e-4)

    def test_parity_of_even_circuits(self):
        rng = np.random.default_rng(3)
        for _ in range(4):
            elements = [Squeeze(0, rng.uniform(0, 0.5), rng.uniform(0, 6.2)),
                        TwoModeSqueeze(0, 1, rng.uniform(0, 0.3)),
                        BeamSplitter(0, 1, rng.uniform(-1.5, 1.5), rng.uniform(0, 6.2))]
            table = photon_distribution(replay_fock(GaussianCircuit(2, elements), 14, strict=False))
            odd = sum(p for key, p in table.entries.items() if sum(key) % 2 == 1)
            assert odd < 1e-12

    def test_lossy_tmsv_against_closed_form(self):
        r, eta, cutoff = 0.1, 0.5, 12
        circuit = GaussianCircuit(2, [TwoModeSqueeze(0, 1, r), Loss(0, eta), Loss(1, eta)])
        table = photon_distribution(replay_fock(circuit, cutoff))
        exact = lossy_tmsv_distribution(r, eta, cutoff - 1)
        assert table_total_variation(dict(table.entries), exact) < 1e-8

    def test_trace_monotone_in_cutoff(self):
        circuit = GaussianCircuit(1, [ThermalMix(0, 0.8, 1.2)])
        traces = [replay_fock(circuit, n, strict=False).trace for n in (4, 8, 12, 16)]
        assert all(b >= a - 1e-14 for a, b in zip(traces, traces[1:]))

    def test_unconverged_cutoff_raises(self):
        with pytest.raises(TruncationError):
            replay_fock(GaussianCircuit(1, [Squeeze(0, 0.9)]), 4)

    def test_thermal_mix_matches_gaussian_moments(self):
        circuit = GaussianCircuit(1, [Squeeze(0, 0.4), ThermalMix(0, 0.3, 0.6)])
        rho = replay_fock(circuit, 20)
        state = replay(circuit)
        assert mean_photon_fock(rho, 0) == pytest.approx(mean_photon(state, 0), abs=1e-7)


class TestFidelityFock:
    def test_self_fidelity(self):
        rho = replay_fock(GaussianCircuit(1, [Squeeze(0, 0.3), Loss(0, 0.7)]), 14)
        assert fidelity_fock(rho, rho) == pytest.approx(1.0, abs=1e-9)

    def test_pure_states_inner_product(self):
        c1 = GaussianCircuit(1, [Squeeze(0, 0.35)])
        c2 = GaussianCircuit(1, [Displace(0, 0.4 + 0.1j)])
        r1, r2 = replay_fock(c1, 20), replay_fock(c2, 20)
        w1, u1 = np.linalg.eigh(r1.matrix)
        w2, u2 = np.linalg.eigh(r2.matrix)
        psi1, psi2 = u1[:, -1], u2[:, -1]
        overlap = abs(np.vdot(psi1, psi2))
        assert fidelity_fock(r1, r2) == pytest.approx(overlap, abs=1e-9)

    def test_symmetry(self):
        rng = np.random.default_rng(5)
        c1 = random_circuit(rng, max_mode_photons=0.5)
        c2 = random_circuit(rng, max_mode_photons=0.5)
        r1 = replay_fock(c1, 16, strict=False)
        r2 = replay_fock(c2, 16, strict=False)
        assert fidelity_fock(r1, r2) == pytest.approx(fidelity_fock(r2, r1), abs=1e-10)


class TestDetectorNoise:
    def test_noiseless_passthrough(self):
        rho = replay_fock(GaussianCircuit(2, [Squeeze(0, 0.3), Squeeze(1, 0.2)]), 12)
        plain = photon_distribution(rho)
        noisy = attach_detector_noise(rho, _Detector())
        assert tvd(plain, noisy) < 1e-14

    def test_dark_counts_on_vacuum(self):
        rho = replay_fock(GaussianCircuit(2), 8)
        table = attach_detector_noise(rho, _Detector(dark_p1=0.002))
        # P(exactly one count at detector 1) = (1-q) q (1-q) with q = 0.002
        assert table.probability((1, 0)) == pytest.approx(0.002, abs=1e-4)
        assert table.probability((0, 1)) == pytest.approx(0.002, abs=1e-4)
        assert table.probability((0, 0)) == pytest.approx((1 - 0.002) ** 2, abs=1e-6)

    def test_pump_leak_on_vacuum(self):
        rho = replay_fock(GaussianCircuit(2), 8)
        table = attach_detector_noise(rho, _Detector(pump_p2=0.001))
        assert table.probability((2, 0)) == pytest.approx(0.001, abs=1e-5)
        assert table.probability((1, 0)) == pytest.approx(0.0, abs=1e-12)


class TestGaussianConversion:
    def test_vacuum(self):
        from vibsim.gaussian import vacuum

        rho = gaussian_to_fock(vacuum(2), 6)
        assert rho.matrix[0, 0] == pytest.approx(1.0, abs=1e-12)

    def test_thermal_diagonal(self):
        nbar = 0.8
        state = replay(GaussianCircuit(1, [ThermalMix(0, 1.0, nbar)]))
        rho = gaussian_to_fock(state, 30)
        expected = (nbar / (1 + nbar)) ** np.arange(30) / (1 + nbar)
        assert np.max(np.abs(rho.matrix.diagonal().real - expected)) < 1e-10

    @pytest.mark.parametrize("seed", range(5))
    def test_matches_direct_replay(self, seed):
        rng = np.random.default_rng(200 + seed)
        circuit = random_circuit(rng, max_mode_photons=0.6)
        direct = photon_distribution(replay_fock(circuit, 20, strict=False))
        synth = photon_distribution(gaussian_to_fock(replay(circuit), 20))
        assert tvd(direct, synth) < 1e-7

    def test_displaced_squeezed(self):
        circuit = GaussianCircuit(1, [Squeeze(0, 0.4), Displace(0, 0.3 - 0.2j)])
        direct = photon_distribution(replay_fock(circuit, 18))
        synth = photon_distribution(gaussian_to_fock(replay(circuit), 18))
        assert tvd(direct, synth) < 1e-9

    def test_degenerate_squeezing_pair(self):
        circuit = GaussianCircuit(2, [Squeeze(0, 0.4), Squeeze(1, 0.4), BeamSplitter(0, 1, 0.6)])
        direct = photon_distribution(replay_fock(circuit, 20, strict=False))
        synth = photon_distribution(gaussian_to_fock(replay(circuit), 20))
        assert tvd(direct, synth) < 1e-7

    def test_three_mode_route_equivalence(self):
        circuit = GaussianCircuit(3, [
            Squeeze(0, 0.25),
            TwoModeSqueeze(1, 2, 0.2),
            BeamSplitter(0, 1, 0.5, 0.7),
            BeamSplitter(1, 2, -0.4),
            Displace(2, 0.2 + 0.1j),
            ThermalMix(0, 0.2, 0.2),
        ])
        direct = photon_distribution(replay_fock(circuit, 10, strict=False))
        synth = photon_distribution(gaussian_to_fock(replay(circuit), 10))
        assert tvd(direct, synth) < 1e-5
