import gc
import math
import os
import re
import tracemalloc

import numpy as np
import pytest
import scipy.linalg as la

from vibsim import fock
from vibsim.experiment import MAX_COUPLING, SMSVPair, TMSV, ExperimentModel, build_circuit
from vibsim.fock import (
    FockDensity,
    TruncationError,
    attach_detector_noise,
    element_matrix,
    fidelity_fock,
    gaussian_to_fock,
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
from helpers import (
    WholeOperatorWorkspace,
    lossy_tmsv_distribution,
    random_circuit,
    table_total_variation,
)


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
    # the workspace updates its density in place
    ws.vec, ws.rho = None, rho.reshape((cutoff,) * (2 * num_modes)).copy()
    fock._apply_element(ws, elem)
    return ws.rho.reshape(rho.shape)


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

    def test_pair_operator_is_cubic_in_cutoff(self):
        cutoff = 30
        op = fock._pair_operator(BeamSplitter(0, 1, 0.4, 0.3), cutoff)
        held = sum(a.nbytes for a in (*op.index, *op.blocks))
        assert held / np.dtype(complex).itemsize < cutoff**4 / 10

    def test_operators_hold_the_cached_layout(self):
        # every pair operator and channel of one cutoff reads the one cached
        # index of its conserved quantity, not a copy
        w = np.array([[0.6, 0.8j], [0.8j, 0.6]])
        ops = {False: [fock._pair_operator(BeamSplitter(0, 1, 0.4, 0.3), self.cutoff),
                       fock._passive_operator(w, self.cutoff)],
               True: [fock._pair_operator(TwoModeSqueeze(0, 1, 0.2), self.cutoff),
                      fock._channel(0.7, 1.0, self.cutoff), fock._channel(0.6, 1.2, self.cutoff)]}
        for difference, group in ops.items():
            index, bounds = fock._block_layout(self.cutoff, difference)
            for op in group + [op.conj() for op in group]:
                assert op.index[0] is index[0] and op.index[1] is index[1]
                assert op.bounds is bounds

    def test_replays_retain_no_operators(self):
        # operators are keyed by element parameters, which seldom repeat:
        # only the tables keyed by the cutoff may outlive a replay
        cutoff = 20

        def circuit(i):
            return GaussianCircuit(2, [
                Squeeze(0, 0.2 + 0.01 * i, 0.3), TwoModeSqueeze(0, 1, 0.1 + 0.01 * i),
                BeamSplitter(0, 1, 0.4 + 0.02 * i, 0.3), Displace(1, 0.1 + 0.01j * i),
                Loss(0, 0.6 + 0.01 * i), ThermalMix(1, 0.1 + 0.01 * i, 0.2),
            ])

        replay_fock(circuit(0), cutoff, strict=False)
        tracemalloc.start()
        try:
            for i in range(1, 12):
                replay_fock(circuit(i), cutoff, strict=False)
            gc.collect()
            retained, _ = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert retained < cutoff**3 * np.dtype(complex).itemsize

    def test_lossy_replay_holds_two_densities(self):
        # pair operators and channels update the density in place, one
        # block's rows at a time
        cutoff = 20
        circuit = GaussianCircuit(2, [
            TwoModeSqueeze(0, 1, 0.3), Loss(0, 0.8), ThermalMix(1, 0.1, 0.2),
            BeamSplitter(0, 1, 0.7, 0.3),
        ])
        replay_fock(circuit, cutoff)
        tracemalloc.start()
        try:
            replay_fock(circuit, cutoff)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2.5 * cutoff**4 * np.dtype(complex).itemsize


class TestReplay:
    def test_empty_circuit(self):
        rho = replay_fock(GaussianCircuit(2), 5)
        expected = np.zeros((25, 25))
        expected[0, 0] = 1.0
        assert np.max(np.abs(rho.matrix - expected)) < 1e-14

    def test_squeezed_mean_photons(self):
        rho = replay_fock(GaussianCircuit(1, [Squeeze(0, 0.72)]), 25)
        n = np.arange(rho.cutoff) @ rho.occupations()
        assert n == pytest.approx(math.sinh(0.72) ** 2, abs=1e-4)

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
        n = np.arange(rho.cutoff) @ rho.occupations()
        assert n == pytest.approx(mean_photon(state, 0), abs=1e-7)


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

    def test_kernel_length_bound(self):
        for p in (0.0, 1e-20, 1e-9, 0.002, 0.3, 0.9, 0.99, 0.9999):
            terms = fock.noise_kernel(_Detector(dark_p1=p)).size - 2
            assert terms <= fock._dark_terms_bound(p) <= terms + 2, p
        assert fock.noise_kernel(_Detector(dark_p1=0.9)).size == 328 + 2

    def test_kernel_beyond_memory_raises_before_its_loop(self):
        # about 9e12 terms: the loop would run until memory ran out
        with pytest.raises(fock.FockMemoryError, match="dark_p1 0.999999999999 needs"):
            fock.noise_kernel(_Detector(dark_p1=1 - 1e-12))
        rho = replay_fock(GaussianCircuit(2), 8)
        # its 276 297 terms fit; the two-axis count grid, over 500 GB, does not
        with pytest.raises(fock.FockMemoryError, match="on 2 axes at cutoff 8"):
            attach_detector_noise(rho, _Detector(dark_p1=0.9999))

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


def _bits(x) -> bytes:
    return np.ascontiguousarray(x).tobytes()


def _pure_circuit(rng, num_modes, displaced):
    elements = [Squeeze(m, rng.uniform(-0.5, 0.5), rng.uniform(0, 6.2)) for m in range(num_modes)]
    for m in range(num_modes - 1):
        elements += [BeamSplitter(m, m + 1, rng.uniform(-1.5, 1.5), rng.uniform(0, 6.2)),
                     TwoModeSqueeze(m, m + 1, rng.uniform(0, 0.2))]
    if displaced:
        elements += [Displace(m, complex(*rng.uniform(-0.5, 0.5, 2))) for m in range(num_modes)]
    return GaussianCircuit(num_modes, elements)


class _TwoSidedWorkspace(fock._FockWorkspace):
    """Starts a mixed synthesis from the density diag(weights), so that every
    unitary acts on both of its sides."""

    def __init__(self, num_modes, cutoff, weights=None):
        super().__init__(num_modes, cutoff)
        if weights is not None:
            self.vec = None
            self.rho = np.diag(weights.astype(complex)).reshape((cutoff,) * (2 * num_modes))


class TestFactorStorage:
    @pytest.mark.parametrize("num_modes, cutoff", [
        (1, 6), (1, 17), (1, 30), (2, 6), (2, 12), (2, 20), (2, 30), (3, 6), (3, 9), (3, 11),
    ])
    @pytest.mark.parametrize("displaced", [False, True])
    def test_ket_matches_its_density_bit_for_bit(self, num_modes, cutoff, displaced):
        rng = np.random.default_rng([num_modes, cutoff, displaced])
        rho = replay_fock(_pure_circuit(rng, num_modes, displaced), cutoff, strict=False)
        assert rho.factor.shape == (cutoff**num_modes, 1)
        psi = rho.factor[:, 0]
        outer = np.outer(psi, psi.conj())
        dense = FockDensity(num_modes, cutoff, rho=(outer + outer.conj().T) * 0.5)
        assert _bits(rho.occupations()) == _bits(dense.occupations())
        assert rho.trace.hex() == dense.trace.hex()
        assert rho.boundary_mass().hex() == dense.boundary_mass().hex()
        assert _bits(rho.matrix) == _bits(dense.matrix)

    @pytest.mark.parametrize("circuit", [
        GaussianCircuit(1, [ThermalMix(0, 1.0, 0.8)]),
        GaussianCircuit(2, [Squeeze(0, 0.4), Squeeze(1, -0.2, 0.3), ThermalMix(0, 0.3, 0.5),
                            ThermalMix(1, 0.2, 0.4), BeamSplitter(0, 1, 0.6, 0.2)]),
        GaussianCircuit(2, [Squeeze(0, 0.3), TwoModeSqueeze(0, 1, 0.2), ThermalMix(1, 0.4, 0.3),
                            Displace(0, 0.3 - 0.2j), Displace(1, -0.1 + 0.25j)]),
        GaussianCircuit(3, [Squeeze(0, 0.25), BeamSplitter(0, 1, 0.5, 0.7), ThermalMix(1, 0.3, 0.3),
                            BeamSplitter(1, 2, -0.4), Displace(2, 0.2 + 0.1j)]),
    ], ids=["thermal", "squeezed-thermal", "displaced", "three-mode"])
    def test_purification_matches_two_sided_density(self, circuit, monkeypatch):
        cutoff = 8 if circuit.num_modes == 3 else 16
        state = replay(circuit)
        purified = gaussian_to_fock(state, cutoff)
        assert purified.factor.shape == (cutoff**circuit.num_modes,) * 2
        monkeypatch.setattr(fock, "_FockWorkspace", _TwoSidedWorkspace)
        dense = gaussian_to_fock(state, cutoff)
        assert dense.factor is None
        assert np.max(np.abs(purified.occupations() - dense.occupations())) < 1e-15
        assert abs(purified.trace - dense.trace) < 1e-15
        assert abs(purified.boundary_mass() - dense.boundary_mass()) < 1e-15
        assert np.max(np.abs(purified.matrix - dense.matrix)) < 1e-15

    def test_validation(self):
        with pytest.raises(ValueError, match="shape"):
            FockDensity(2, 4, factor=np.ones((15, 1), dtype=complex))
        with pytest.raises(ValueError, match="shape"):
            FockDensity(1, 4, rho=np.eye(4)[:, :3])
        with pytest.raises(ValueError, match="trace"):
            FockDensity(1, 4, factor=np.ones((4, 1), dtype=complex))


class _FullProductWorkspace(fock._FockWorkspace):
    """Applies a synthesis's first passive mixing by its product, as every other one."""

    def apply_start_passive(self, w):
        fock._apply_passive(self, w)


def _synthesis_circuit(kind):
    """A Gaussian circuit whose state's first passive mixing is not the identity."""
    num_modes = 3 if kind.startswith("three-mode") else 2
    elements = [Squeeze(0, 0.45, 0.7), Squeeze(1, -0.25, 1.9), BeamSplitter(0, 1, 0.6, 0.4),
                TwoModeSqueeze(0, 1, 0.15)]
    if num_modes == 3:
        elements += [Squeeze(2, 0.2), BeamSplitter(1, 2, -0.5, 2.1)]
    if kind != "pure" and kind != "three-mode":
        # unequal thermal photons on each mode, or on one mode only
        elements += [ThermalMix(m, 0.12 + 0.05 * m, 0.3 + 0.2 * m)
                     for m in range(1 if kind == "one-thermal" else num_modes)]
        elements += [BeamSplitter(0, 1, -0.7, 1.2), Squeeze(1, 0.3, 0.2)]
    if kind == "displaced":
        elements += [Displace(0, 0.4 - 0.25j), Displace(1, -0.1 + 0.3j)]
    return GaussianCircuit(num_modes, elements)


class TestStartPassive:
    """Synthesis starts past its first passive mixing: it keeps the vacuum, and on
    a two-mode purification its product is each block's columns scaled by their
    roots.  Every count keeps the bits of the full product."""

    @pytest.mark.parametrize("kind, cutoff", [
        ("pure", 8), ("pure", 16), ("pure", 30), ("mixed", 8), ("mixed", 17), ("mixed", 24),
        ("mixed", 30), ("one-thermal", 12), ("one-thermal", 25), ("displaced", 14),
        ("displaced", 20), ("three-mode", 8), ("three-mode", 10), ("three-mode-mixed", 8),
    ])
    def test_counts_equal_the_full_product(self, monkeypatch, kind, cutoff):
        state = replay(_synthesis_circuit(kind))
        got = gaussian_to_fock(state, cutoff)
        monkeypatch.setattr(fock, "_FockWorkspace", _FullProductWorkspace)
        want = gaussian_to_fock(state, cutoff)
        assert _bits(got.occupations()) == _bits(want.occupations())
        assert got.trace.hex() == want.trace.hex()
        assert got.boundary_mass().hex() == want.boundary_mass().hex()
        assert photon_distribution(got).entries == photon_distribution(want).entries
        assert got.occupations().max() > 0.1 and want.factor.shape == got.factor.shape


def _whole_gather_pair(tensor, op, ax1, ax2):
    """The update that block-by-block gathers replaced: every pair state's
    rows gathered into one copy of the tensor, updated panel by panel."""
    rest = tuple(a for a in range(tensor.ndim) if a not in (ax1, ax2))
    moved = np.transpose(tensor, (ax1, ax2) + rest)
    flat = moved[op.index].reshape(op.index[0].size, -1)
    width = max(1, (fock._SERIAL_MNK - 1) // tensor.shape[ax1] ** 2)
    for start in range(0, flat.shape[1], width):
        panel = flat[:, start:start + width]
        for block, lo, hi in zip(op.blocks, op.bounds, op.bounds[1:]):
            panel[lo:hi] = block @ panel[lo:hi]
    moved[op.index] = flat.reshape(op.index[0].shape + moved.shape[2:])
    return tensor


def _new_array_single(tensor, op, axis):
    """The single-mode update that panels in place replaced: every panel's
    product written into a new array."""
    shape = tensor.shape
    grid = tensor.reshape(math.prod(shape[:axis]), shape[axis], -1)
    out = np.empty(grid.shape[:1] + op.shape[:1] + grid.shape[2:], np.result_type(op, grid))
    width = max(1, (fock._SERIAL_MNK - 1) // op.size)
    for start in range(0, grid.shape[2], width):
        cols = slice(start, start + width)
        np.matmul(op, grid[:, :, cols], out=out[:, :, cols])
    return out.reshape(shape[:axis] + op.shape[:1] + shape[axis + 1:])


class TestBlockUpdateBits:
    """The in-place updates keep every product of the whole-copy ones, so a
    BLAS whose results depend on the operands' layout fails here, not in
    the artefacts."""

    @pytest.mark.parametrize("kind, num_modes, cutoff", [
        ("ket", 2, 6), ("ket", 2, 30), ("ket", 3, 11), ("density", 1, 30), ("density", 2, 6),
        ("density", 2, 17), ("density", 2, 30), ("density", 3, 7), ("purification", 1, 25),
        ("purification", 2, 12), ("purification", 2, 20), ("purification", 3, 7),
    ])
    def test_equal_to_whole_copy_updates(self, kind, num_modes, cutoff):
        rng = np.random.default_rng([num_modes, cutoff, len(kind)])
        # a purification's trailing column axis is one that operators leave alone
        shape = {"ket": (cutoff,) * num_modes, "density": (cutoff,) * (2 * num_modes),
                 "purification": (cutoff,) * num_modes + (cutoff**num_modes,)}[kind]
        axes_acted = len(shape) - (kind == "purification")
        state = rng.normal(size=shape) + 1j * rng.normal(size=shape)
        ops = [fock._pair_operator(BeamSplitter(0, 1, 0.7, 0.3), cutoff),
               fock._pair_operator(TwoModeSqueeze(0, 1, 0.4), cutoff)]
        if kind == "density":
            ops.append(fock._channel(0.7, 1.2, cutoff))
        axes = [(a, b) for a in range(axes_acted) for b in range(axes_acted) if a != b]
        for op in ops:
            for ax in axes[:6]:
                expected = _whole_gather_pair(state.copy(), op, *ax)
                assert _bits(fock._apply_pair(state.copy(), op, *ax)) == _bits(expected)
        for op in (element_matrix(Squeeze(0, 0.4, 0.3), cutoff),
                   element_matrix(Displace(0, 0.3 - 0.2j), cutoff)):
            for axis in range(axes_acted):
                expected = _new_array_single(state.copy(), op, axis)
                assert _bits(fock._apply_single(state.copy(), op, axis)) == _bits(expected)

    @pytest.mark.parametrize("cutoff", [6, 12, 20])
    def test_convolution_keeps_its_bits(self, cutoff):
        grid = np.random.default_rng(cutoff).random((cutoff, cutoff))
        conv = fock._convolution(0.002, 0.001, cutoff)
        got, expected = grid, grid
        for axis in range(2):
            got = fock._apply_single(got, conv, axis)
            expected = _new_array_single(expected, conv, axis)
        assert _bits(got) == _bits(expected)

    @pytest.mark.parametrize("num_modes, cutoff", [(1, 30), (2, 12), (2, 30), (3, 9)])
    def test_purification_occupations_summed_by_panel(self, num_modes, cutoff):
        dim = cutoff**num_modes
        rng = np.random.default_rng([num_modes, cutoff])
        x = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
        x /= np.sqrt(np.sum(x.real**2 + x.imag**2))
        terms = x * x.conj()
        rho = FockDensity(num_modes, cutoff, factor=x)
        assert _bits(rho._occupations) == _bits(np.clip(terms.real.sum(axis=1), 0.0, None))
        whole = float(terms.sum().real)
        assert abs(rho.trace - whole) <= 4 * np.spacing(whole)


def _stevd_expm(diag, lower):
    """The earlier block exponential: T solved by LAPACK's tridiagonal
    solver ?stevd, through scipy, and the size-1 block by hand; a stack one
    matrix at a time."""
    if np.ndim(diag) > 1:
        return np.array([_stevd_expm(d, sub) for d, sub in zip(diag, lower)])
    gauge = np.exp(1j * np.concatenate(([0.0], np.cumsum(np.angle(lower)))))
    w = np.asarray(diag, dtype=float)
    if w.size == 1:
        v = np.ones((1, 1))
    else:
        w, v, info = la.lapack.dstevd(w, np.abs(lower))
        assert info == 0
    return gauge[:, None] * ((v * np.exp(1j * w)) @ v.T) * gauge.conj()


class TestBlockExponentialBits:
    """numpy's dense ``eigh`` of a real tridiagonal T gives the bits of the
    tridiagonal solver, on both ?stedc paths (QR up to 25, divide and
    conquer above), so the exponentials of every operator keep them."""

    @pytest.mark.parametrize("n", range(1, 41))
    def test_random_tridiagonals(self, n):
        rng = np.random.default_rng([n, 23])
        for diag_scale in (0.0, 1.0, 10.0):
            for lower_scale in (1e-3, 1.0, 1e2):
                diag = diag_scale * rng.normal(size=n) if diag_scale else np.zeros(n)
                lower = lower_scale * (rng.normal(size=n - 1) + 1j * rng.normal(size=n - 1))
                got = fock._expm_tridiagonal(diag, lower)
                assert _bits(got) == _bits(_stevd_expm(diag, lower))

    @pytest.mark.parametrize("cutoff", [2, 12, 24, 26, 30])
    def test_operator_blocks(self, cutoff, monkeypatch):
        w, _ = np.linalg.qr(np.array([[0.3 + 0.8j, -0.5], [0.2j, 0.9 - 0.1j]]))

        def build():
            return [*fock._pair_blocks(0.7 * np.exp(1.1j), 0.0, 0.0, False, cutoff).blocks,
                    *fock._pair_blocks(0.4, 0.0, 0.0, True, cutoff).blocks,
                    *fock._passive_operator(w, cutoff).blocks,
                    fock._squeeze_matrix(0.6, 0.4, cutoff), fock._tmsv_amplitudes(0.5, cutoff),
                    element_matrix(Displace(0, 0.5 - 0.2j), cutoff)]

        got = build()
        monkeypatch.setattr(fock, "_expm_tridiagonal", _stevd_expm)
        assert [_bits(a) for a in got] == [_bits(b) for b in build()]


class TestStackedExponentials:
    """A stack of block exponentials keeps the bits of each block solved alone,
    and the blocks of a pair operator are solved in one stack per size class."""

    @pytest.mark.parametrize("n", [1, 2, 7, 25, 26, 40])
    def test_stack_of_random_tridiagonals(self, n):
        rng = np.random.default_rng([n, 29])
        diag = rng.normal(size=(2, 3, n))
        lower = rng.normal(size=(2, 3, n - 1)) + 1j * rng.normal(size=(2, 3, n - 1))
        stacked = fock._expm_tridiagonal(diag, lower)
        assert stacked.shape == (2, 3, n, n)
        for i, j in np.ndindex(2, 3):
            assert _bits(stacked[i, j]) == _bits(fock._expm_tridiagonal(diag[i, j], lower[i, j]))

    @pytest.mark.parametrize("squeezer", [False, True])
    def test_one_solve_per_size_class(self, squeezer, monkeypatch):
        shapes = []

        def counting(a, *args, **kwargs):
            shapes.append(a.shape)
            return eigh(a, *args, **kwargs)

        eigh = np.linalg.eigh
        monkeypatch.setattr(np.linalg, "eigh", counting)
        cutoff, coupling, phases = 15, 0.7 * np.exp(1.1j), (0.2, -0.4)
        op = fock._pair_blocks(coupling, *phases, squeezer, cutoff)
        # blocks of 1-6, 7-12 and 13-15 states, padded to 6, 12 and 18
        assert shapes == [(12, 6, 6), (12, 12, 12), (5, 18, 18)]
        (m1, m2), bounds = fock._block_layout(cutoff, squeezer)
        diag = phases[0] * m1 + phases[1] * m2
        lower = -1j * coupling * np.sqrt(m1[1:] * (m2[1:] if squeezer else m2[:-1]))
        sizes = [*range(1, cutoff), cutoff, *range(cutoff - 1, 0, -1)]
        assert [b.shape[0] for b in op.blocks] == sizes
        for block, lo, hi in zip(op.blocks, bounds, bounds[1:]):
            assert _bits(block) == _bits(fock._expm_tridiagonal(diag[lo:hi], lower[lo:hi - 1]))

    @pytest.mark.parametrize("size_class", [6, 13])
    def test_padded_blocks_keep_their_bits(self, size_class, monkeypatch):
        # classes of 13 pad a block by up to 12 entries; past 1e100 or below
        # 1e-100, where LAPACK would scale a padded stack and not a lone block,
        # the classes are the sizes
        monkeypatch.setattr(fock, "_SIZE_CLASS", size_class)
        rng = np.random.default_rng(size_class)
        for scale in [*10.0 ** np.arange(-3, 7), 1e-200, 1e-150, 1e150, 1e200]:
            for _ in range(60):
                sizes = rng.integers(1, 41, size=rng.integers(1, 5))
                diags = [np.zeros(n) if rng.random() < 0.3 else scale * rng.normal(size=n)
                         for n in sizes]
                lowers = [scale * (rng.normal(size=n - 1) + 1j * rng.normal(size=n - 1))
                          for n in sizes]
                if rng.random() < 0.2:  # a two-mode squeezer's links near MAX_COUPLING
                    n = np.arange(1.0, sizes[0])
                    lowers[0] = -1j * MAX_COUPLING * np.sqrt(n * (n + 1.0))
                for got, diag, lower in zip(fock._expm_blocks(diags, lowers), diags, lowers):
                    assert _bits(got) == _bits(fock._expm_tridiagonal(diag, lower))


def _built_blocks(monkeypatch, builder):
    """The indices of the blocks each call of ``fock.<builder>`` builds, as it is called."""
    built, build = [], getattr(fock, builder)

    def recording(*args):
        op = build(*args)
        built.append([k for k, b in enumerate(op.blocks) if b is not None])
        return op

    monkeypatch.setattr(fock, builder, recording)
    return built


_SQUEEZED_PAIR = [Squeeze(0, 0.4), Squeeze(1, -0.3, 0.5), BeamSplitter(0, 1, 0.7, 0.3)]


class TestLiveBlocks:
    """On a ket a pair operator builds and applies only the blocks whose rows hold
    a nonzero entry: the other rows stay zero, and every count keeps the bits of
    the whole-operator build."""

    @pytest.mark.parametrize("run, live", [
        # a two-mode squeezer on vacuum: only n1 - n2 = 0
        (lambda: replay_fock(GaussianCircuit(2, [TwoModeSqueeze(0, 1, 0.4)]), 20), [[19]]),
        # a beam splitter after two squeezers: only even n1 + n2 of even n1 and n2
        (lambda: replay_fock(GaussianCircuit(2, _SQUEEZED_PAIR), 20), [list(range(0, 37, 2))]),
        # a two-mode squeezer, a splitter and another squeezer: d = 0, even N, even d
        (lambda: replay_fock(GaussianCircuit(2, [TwoModeSqueeze(0, 1, 0.3), BeamSplitter(
            0, 1, 0.7, 0.3), TwoModeSqueeze(0, 1, 0.2)]), 24, strict=False),
         [[23], list(range(0, 47, 2)), list(range(1, 47, 2))]),
        # synthesis: squeezers on vacuum, then the last passive mixing
        (lambda: gaussian_to_fock(replay(GaussianCircuit(2, _SQUEEZED_PAIR)), 20),
         [list(range(0, 37, 2))]),
        # a reversed two-mode squeezer on a squeezed mode 1: only even n1 - n0 >= 0
        (lambda: replay_fock(GaussianCircuit(2, [Squeeze(1, 0.4), TwoModeSqueeze(1, 0, 0.2)]), 12,
                             strict=False), [list(range(11, 22, 2))]),
        # displaced: every block holds a nonzero row
        (lambda: replay_fock(GaussianCircuit(2, [Displace(0, 0.3), Displace(1, -0.2j),
                                                 BeamSplitter(0, 1, 0.7, 0.3)]), 12),
         [list(range(23))]),
    ], ids=["tms-on-vacuum", "bs-after-squeezers", "tms-bs-tms", "synthesis", "reversed-tms",
            "displaced"])
    def test_dead_blocks_are_not_built(self, monkeypatch, run, live):
        built = _built_blocks(monkeypatch, "_pair_blocks")
        rho = run()
        assert built == live
        monkeypatch.setattr(fock, "_FockWorkspace", WholeOperatorWorkspace)
        whole = run()
        assert _bits(rho.occupations()) == _bits(whole.occupations())
        assert rho.trace.hex() == whole.trace.hex()
        assert rho.tail_mass.hex() == whole.tail_mass.hex()
        assert rho.boundary_mass().hex() == whole.boundary_mass().hex()
        # the ket itself, up to the sign of a zero
        assert np.array_equal(rho.factor, whole.factor)


def _route(kind, num_modes, cutoff):
    """A call that holds a ``kind`` state of ``num_modes`` modes, with every
    operator that state meets on its way, on the last mode too."""
    pure = _pure_circuit(np.random.default_rng([num_modes, cutoff]), num_modes, True)
    last = num_modes - 1
    if kind == "ket-replay":
        return lambda: replay_fock(pure, cutoff, strict=False)
    if kind == "ket-synthesis":
        state = replay(pure)
        return lambda: gaussian_to_fock(state, cutoff)
    if kind == "density":
        lossy = GaussianCircuit(num_modes, [
            *pure.elements, Loss(0, 0.8), ThermalMix(last, 0.1, 0.2), *pure.elements])
        return lambda: replay_fock(lossy, cutoff, strict=False)
    mixed = replay(GaussianCircuit(num_modes, [
        *pure.elements, *(ThermalMix(m, 0.1, 0.3) for m in range(num_modes))]))
    return lambda: gaussian_to_fock(mixed, cutoff)


def _counts_models():
    """(model, cutoff): the corners of the number-balanced route, then seeded
    models at cutoffs 8-30, some of them too small for their model."""
    tmsv, smsv = TMSV(0.4), SMSVPair(0.5, 0.3)
    base = {"bs_transmission": 0.5, "loss_pre": (0.7, 0.8), "loss_post": (0.9, 0.85),
            "distinguishability": 0.06}
    corners = [
        (tmsv, {}, 16), (smsv, {}, 25),  # the last column of _apply_pair's rows is alone
        (tmsv, {"distinguishability": 0.0}, 20),
        (smsv, {"loss_pre": (1.0, 1.0), "loss_post": (1.0, 1.0)}, 12),  # thermal admixture only
        (tmsv, {"bs_transmission": 1.0}, 24),  # t = 1: no splitter
        (smsv, {"distinguishability": 0.0, "loss_pre": (1.0, 1.0)}, 30),  # channels after it only
        (tmsv, {"loss_pre": (1.0, 0.6), "loss_post": (0.7, 1.0)}, 9),
        (smsv, {"distinguishability": 0.0, "loss_pre": (1.0, 1.0), "loss_post": (1.0, 1.0)}, 10),
        (tmsv, {"bs_transmission": 0.0, "distinguishability": 0.0}, 14),
    ]
    cases = [(ExperimentModel(src, **{**base, **over}), cutoff) for src, over, cutoff in corners]
    rng = np.random.default_rng(26)
    for i in range(16):
        def unit_or(lo):
            return 1.0 if rng.random() < 0.3 else float(rng.uniform(lo, 1.0))
        source = (TMSV(rng.uniform(0.0, 0.6)) if i % 2 else
                  SMSVPair(rng.uniform(0.0, 0.7), rng.uniform(0.0, 0.7)))
        t = float(rng.choice([0.0, 1.0])) if rng.random() < 0.2 else float(rng.uniform())
        cases.append((ExperimentModel(
            source, t, (unit_or(0.3), unit_or(0.3)), (unit_or(0.5), unit_or(0.5)),
            0.0 if rng.random() < 0.3 else float(rng.uniform(0.0, 0.2))),
            int(rng.integers(8, 31))))
    return cases


def _counts_or_error(run, circuit, cutoff):
    try:
        rho = run(circuit, cutoff)
    except (TruncationError, fock.FockMemoryError) as exc:
        return type(exc).__name__, str(exc)
    return (_bits(rho.occupations()), rho.trace.hex(), rho.tail_mass.hex(),
            rho.boundary_mass().hex())


_REVERSED_SPLITTER = GaussianCircuit(2, [Squeeze(0, 0.3), TwoModeSqueeze(0, 1, 0.2), Loss(0, 0.7),
                                         BeamSplitter(1, 0, 0.5, 0.4), Loss(1, 0.8)])


class TestPhotonCounts:
    """``_photon_counts`` evolves only the number-balanced sector of the
    density, and gives every bit of the whole replay's counts."""

    @pytest.mark.parametrize("model, cutoff", _counts_models())
    def test_counts_equal_the_whole_replay(self, model, cutoff):
        circuit = build_circuit(model)
        assert (_counts_or_error(fock._photon_counts, circuit, cutoff)
                == _counts_or_error(replay_fock, circuit, cutoff))

    @pytest.mark.parametrize("mnk", [2, 150, 200, 350, 500])
    def test_panels_of_other_widths(self, monkeypatch, mnk):
        # _apply_pair's column panels at cutoff 8 as at cutoffs past memory
        # here: of 1 column, of 2, 3 ending in 1 (64 % 3 == 1), 5, and 7
        # ending in 1; a one-column panel is a matrix-vector product
        monkeypatch.setattr(fock, "_SERIAL_MNK", mnk)
        for model, _ in _counts_models()[:10]:
            circuit = build_circuit(model)
            assert (_counts_or_error(fock._photon_counts, circuit, 8)
                    == _counts_or_error(replay_fock, circuit, 8))

    @pytest.mark.parametrize("circuit, cutoff", [
        (GaussianCircuit(2, [TwoModeSqueeze(0, 1, 0.3), Loss(0, 0.8), Squeeze(1, 0.2),
                             BeamSplitter(0, 1, 0.5)]), 12),
        (GaussianCircuit(2, [Squeeze(0, 0.3), ThermalMix(1, 0.1, 0.2), TwoModeSqueeze(0, 1, 0.2)]),
         12),
        (GaussianCircuit(2, [Squeeze(0, 0.3), Loss(1, 0.7), Displace(0, 0.3 - 0.1j)]), 12),
        (GaussianCircuit(2, [Squeeze(0, 0.3), BeamSplitter(1, 0, 0.4, 0.3), Loss(1, 0.7),
                             BeamSplitter(0, 1, 0.6), ThermalMix(0, 0.1, 0.2)]), 12),
        (GaussianCircuit(1, [Squeeze(0, 0.4), Loss(0, 0.6)]), 12),
        (_REVERSED_SPLITTER, 12),
        # a pair block of the splitter spans two column panels
        (_REVERSED_SPLITTER, 20),
    ], ids=["squeeze-after", "tms-after", "displace-after", "two-splitters", "one-mode",
            "reversed-splitter", "reversed-splitter-c20"])
    def test_other_circuits(self, circuit, cutoff):
        # a unitary other than a beam splitter on modes (0, 1) after a channel: the whole replay
        assert (_counts_or_error(fock._photon_counts, circuit, cutoff)
                == _counts_or_error(replay_fock, circuit, cutoff))

    @pytest.mark.parametrize("source, before", [
        (TMSV(0.4), [11]),  # n1 = n2 and m1 = m2: only d = 0
        (SMSVPair(0.5, 0.3), list(range(1, 22, 2))),  # even n1 and m1: even d
    ], ids=["tmsv", "smsv"])
    def test_channels_build_only_live_sector_blocks(self, monkeypatch, source, before):
        # four channels before the splitter, two after it, where counts read d = 0 alone
        circuit = build_circuit(ExperimentModel(source, 0.5, (0.7, 0.8), (0.9, 0.85), 0.06))
        built = _built_blocks(monkeypatch, "_channel")
        got = _counts_or_error(fock._photon_counts, circuit, 12)
        assert built == [before] * 4 + [[11]] * 2
        assert got == _counts_or_error(replay_fock, circuit, 12)

    def test_too_small_a_cutoff_raises_the_same_error(self):
        circuit = build_circuit(ExperimentModel(TMSV(0.6), 0.5, (0.7, 0.8), (0.9, 0.85), 0.06))
        with pytest.raises(TruncationError) as whole:
            replay_fock(circuit, 6)
        with pytest.raises(TruncationError, match=re.escape(str(whole.value))):
            fock._photon_counts(circuit, 6)

    @pytest.mark.parametrize("t", [0.5, 1.0])
    def test_same_refusal_and_working_set(self, monkeypatch, t):
        circuit = build_circuit(ExperimentModel(SMSVPair(0.5, 0.3), t, (0.7, 0.8), (0.9, 0.85)))
        fock._photon_counts(circuit, 30)
        tracemalloc.start()
        try:
            fock._photon_counts(circuit, 30)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # the sector, rows of one pair block and the operators: no c^4 array
        assert peak < 16 * 30**4 / 4
        # a density past memory is refused at the first channel, as the
        # replay refuses it, even where the sector alone would fit (t = 1)
        have = 1 << 28
        monkeypatch.setattr(fock, "_physical_memory", lambda: have)
        cutoff = math.ceil((have / 16) ** 0.25) + 1
        with pytest.raises(fock.FockMemoryError) as whole:
            replay_fock(circuit, cutoff)
        with pytest.raises(fock.FockMemoryError, match=re.escape(str(whole.value))):
            fock._photon_counts(circuit, cutoff)

    def test_a_kept_diagonal_has_no_matrix(self):
        circuit = build_circuit(ExperimentModel(TMSV(0.3), 0.5, (0.7, 0.8)))
        rho = fock._photon_counts(circuit, 10)
        assert rho.rho is None and rho.factor is None and rho.diagonal.shape == (100,)
        with pytest.raises(ValueError, match="diagonal"):
            rho.matrix
        with pytest.raises(ValueError, match="shape"):
            FockDensity(2, 4, diagonal=np.ones(15))


class TestMemoryGuard:
    @pytest.mark.parametrize("kind", ["ket-replay", "ket-synthesis", "density", "purification"])
    @pytest.mark.parametrize("num_modes, cutoff", [(1, 30), (2, 12), (2, 24), (2, 30), (3, 8),
                                                   (3, 10)])
    def test_working_set_of_every_route(self, kind, num_modes, cutoff):
        run = _route(kind, num_modes, cutoff)
        run()  # the cutoff's cached tables and scipy's import are not the state's
        tracemalloc.start()
        try:
            held = run()
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        columns = None if held.factor is None else held.factor.shape[1]
        assert columns == {"density": None, "purification": cutoff**num_modes}.get(kind, 1)
        estimate = fock._state_bytes(num_modes, cutoff, kind.split("-")[0])
        assert peak <= estimate
        if columns != 1 and cutoff >= {2: 24, 3: 8}.get(num_modes, math.inf):
            # the state is most of the estimate: a new state-sized temporary
            # breaks the upper bound, a dropped one the lower
            assert peak >= 0.9 * estimate
        if columns != 1 and (num_modes, cutoff) == (2, 30):
            assert peak <= 1.25 * 16 * cutoff**4

    def test_estimate(self):
        buffers = fock._BUFFER_ENTRIES
        assert fock._state_bytes(3, 10, "ket") == 16 * (3 * 10**3 + 6 * 10**3 + buffers)
        assert fock._state_bytes(3, 10, "purification") == 16 * (10**6 + 10**5 + 10**3 + buffers)
        assert fock._state_bytes(3, 10, "density") == 16 * (10**6 + 10**5 + 6 * 10**3 + buffers)
        assert fock._state_bytes(2, 10**200, "density") == math.inf

    def test_over_physical_memory_raises_before_allocating(self, monkeypatch):
        assert fock._physical_memory() == os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
        # on a 256 MB machine the builds that precede a refusal stay small
        have = 1 << 28
        monkeypatch.setattr(fock, "_physical_memory", lambda: have)
        # two modes: a ket a thousand times the physical memory, and a ket
        # that fits but whose density does not
        ket_cutoff = math.isqrt(1000 * have // 16) + 1
        rho_cutoff = math.ceil((have / 16) ** 0.25) + 1
        assert fock._state_bytes(2, ket_cutoff, "ket") >= 1000 * have
        assert fock._state_bytes(2, rho_cutoff, "ket") < have
        assert fock._state_bytes(2, rho_cutoff, "density") > have
        assert fock._state_bytes(2, rho_cutoff, "purification") > have
        fock._check_memory(2, 30, "density")
        with pytest.raises(fock.FockMemoryError, match=re.escape(f"{float(have):.3g} bytes")):
            fock._check_memory(2, ket_cutoff, "ket")
        tracemalloc.start()
        try:
            with pytest.raises(fock.FockMemoryError):
                replay_fock(GaussianCircuit(2, [Squeeze(0, 0.3)]), ket_cutoff)
            with pytest.raises(fock.FockMemoryError):
                replay_fock(GaussianCircuit(2, [Squeeze(0, 0.3), Loss(0, 0.5)]), rho_cutoff)
            with pytest.raises(fock.FockMemoryError):
                gaussian_to_fock(replay(GaussianCircuit(2, [ThermalMix(0, 0.5, 0.2)])), rho_cutoff)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # the ket and the channel's build, not the density
        assert peak < fock._state_bytes(2, rho_cutoff, "ket")


class TestAddressSpaceLimit:
    """The address space a process maps already counts against its soft
    RLIMIT_AS, through readers that tests replace: no limit is changed."""

    def test_mapped_bytes_move_the_threshold(self, monkeypatch):
        limit, mapped = 1 << 30, 300 << 20
        status = f"Name:\tpython\nVmPeak:\t 999999 kB\nVmSize:\t {mapped >> 10} kB\n"
        monkeypatch.setattr(fock, "_physical_memory", lambda: 1 << 40)
        monkeypatch.setattr(fock, "_read_text", lambda path: {"/proc/self/status": status}.get(
            path, ""))
        monkeypatch.setattr(fock.resource, "getrlimit", lambda which: (
            limit if which == fock.resource.RLIMIT_AS else fock.resource.RLIM_INFINITY,
            fock.resource.RLIM_INFINITY))
        fock._refuse_beyond_memory("a test array", limit - mapped)
        with pytest.raises(fock.FockMemoryError) as refused:
            fock._refuse_beyond_memory("a test array", limit - mapped + 1)
        assert str(refused.value).endswith(
            f"more than the {float(limit):.3g} bytes of the soft RLIMIT_AS, "
            f"less the {float(mapped):.3g} bytes the process maps")
        # unreadable, the whole limit binds, with the message it had
        monkeypatch.setattr(fock, "_read_text", lambda path: "")
        fock._refuse_beyond_memory("a test array", limit)
        with pytest.raises(fock.FockMemoryError) as refused:
            fock._refuse_beyond_memory("a test array", limit + 1)
        assert str(refused.value).endswith(f"more than the {float(limit):.3g} bytes of the "
                                           "soft RLIMIT_AS")


class TestCgroupLimit:
    """The guards also read the memory limit of the process's own cgroup,
    through a reader that tests replace: no cgroup is changed."""

    CGROUP = "the memory limit of the process's cgroup"

    @staticmethod
    def refusal(need: float) -> str:
        with pytest.raises(fock.FockMemoryError) as refused:
            fock._refuse_beyond_memory("a test array", need)
        return str(refused.value)

    @pytest.mark.parametrize("files, limit", [
        ({"/proc/self/cgroup": "0::/box\n", "/sys/fs/cgroup/box/memory.max": "1048576\n"},
         1 << 20),
        # v1, with the memory controller beside another one; v2 sets no memory limit
        ({"/proc/self/cgroup": "4:cpu,memory:/a/b/\n0::/\n",
          "/sys/fs/cgroup/memory/a/b/memory.limit_in_bytes": "2097152\n"}, 2 << 20),
    ])
    def test_a_limit_moves_the_threshold(self, monkeypatch, tmp_path, capsys, files, limit):
        monkeypatch.setattr(fock, "_read_text", lambda path: files.get(path, ""))
        assert fock._cgroup_memory() == limit
        fock._refuse_beyond_memory("a test array", limit)
        assert self.refusal(limit + 1).endswith(f"more than the {float(limit):.3g} bytes of "
                                                f"{self.CGROUP}")
        # a command exits 2 on it, naming the limit
        from vibsim.cli import main

        path = tmp_path / "config.json"
        path.write_text('{"version": 1, "target": {"kind": "tropolone"}, "cutoff": 30}')
        assert main(["--config", str(path), "--out-dir", str(tmp_path / "out"), "ideal"]) == 2
        err = capsys.readouterr().err
        assert "cutoff 30 on 2 modes" in err and self.CGROUP in err and "Traceback" not in err

    @pytest.mark.parametrize("files", [
        {},
        {"/proc/self/cgroup": "0::/box\n", "/sys/fs/cgroup/box/memory.max": "max\n"},
        {"/proc/self/cgroup": "0::/box\n"},
        {"/proc/self/cgroup": "4:memory:/a\nnot a cgroup line\n",
         "/sys/fs/cgroup/memory/a/memory.limit_in_bytes": "-1\n"},
        {"/proc/self/cgroup": "4:cpu:/a\n", "/sys/fs/cgroup/memory/a/memory.limit_in_bytes": "1\n"},
    ])
    def test_no_readable_limit_leaves_every_message(self, monkeypatch, files):
        need = 4.0 * fock._physical_memory()
        monkeypatch.setattr(fock, "_read_text", lambda path: "")
        unlimited = self.refusal(need)
        assert self.CGROUP not in unlimited
        monkeypatch.setattr(fock, "_read_text", lambda path: files.get(path, ""))
        assert fock._cgroup_memory() is None
        assert self.refusal(need) == unlimited

    def test_the_process_own_cgroup_reads(self):
        # here the limit is unset, or above what the tests need
        limit = fock._cgroup_memory()
        assert limit is None or limit > 1 << 28
        assert fock._read_text("/nonexistent/memory.max") == ""
