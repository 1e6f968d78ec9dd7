import hashlib
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
        Squeeze(0, -350.5),
        TwoModeSqueeze(0, 1, 1e308),
    ])
    def test_invalid_elements_rejected(self, elem):
        with pytest.raises(ValueError):
            apply(vacuum(2), elem)

    def test_squeezing_at_the_bound_is_accepted(self):
        r = gaussian.MAX_SQUEEZING
        assert GaussianCircuit(2, [Squeeze(0, -r), TwoModeSqueeze(0, 1, r)]).elements

    @pytest.mark.parametrize("elem", [
        BeamSplitter(0, 1, math.nan),
        BeamSplitter(0, 1, math.inf),
        BeamSplitter(0, 1, 0.3, -math.inf),
        Squeeze(0, 0.1, math.nan),
        Displace(1, complex(math.nan, 0.0)),
        ThermalMix(0, 0.5, math.nan),
        ThermalMix(0, 0.5, math.inf),
    ])
    def test_non_finite_parameters_rejected_on_build(self, elem):
        with pytest.raises(ValueError, match="finite"):
            GaussianCircuit(2, [elem])


def explicit_symplectic(elem, n):
    """(S, d) of a unitary element built the long way: the element's block
    placed with ``np.ix_`` into the identity, and a beam splitter as
    ``passive_symplectic`` of its mode-mixing matrix embedded in the identity."""
    s, d = np.eye(2 * n), np.zeros(2 * n)
    if isinstance(elem, Squeeze):
        ch, sh = math.cosh(elem.r), math.sinh(elem.r)
        c, sn = math.cos(elem.phase), math.sin(elem.phase)
        idx = [elem.mode, elem.mode + n]
        s[np.ix_(idx, idx)] = np.array([[ch - sh * c, -sh * sn], [-sh * sn, ch + sh * c]])
    elif isinstance(elem, BeamSplitter):
        ct, st = math.cos(elem.theta), math.sin(elem.theta)
        ph = np.exp(1j * elem.phase)
        w = np.eye(n, dtype=complex)
        idx = [elem.mode1, elem.mode2]
        w[np.ix_(idx, idx)] = np.array([[ct, st * ph], [-st * np.conj(ph), ct]])
        s = gaussian.passive_symplectic(w)
    elif isinstance(elem, TwoModeSqueeze):
        ch, sh = math.cosh(elem.r), math.sinh(elem.r)
        idx = np.array([elem.mode1, elem.mode2])
        s[np.ix_(idx, idx)] = np.array([[ch, sh], [sh, ch]])
        s[np.ix_(idx + n, idx + n)] = np.array([[ch, -sh], [-sh, ch]])
    else:
        d[elem.mode] = math.sqrt(2.0) * elem.alpha.real
        d[elem.mode + n] = math.sqrt(2.0) * elem.alpha.imag
    return s, d


class TestElementSymplectic:
    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_equals_explicit_construction_with_signed_zeros(self, n):
        rng = np.random.default_rng(n)
        angles = [0.0, -0.0, math.pi / 2, -math.pi / 2, math.pi, *rng.uniform(-4, 4, 4)]
        amounts = [0.0, -0.0, 0.5, *rng.normal(size=3)]
        pairs = [(i, j) for i in range(n) for j in range(n) if i != j]
        elems = [Squeeze(m, r, ph) for m in range(n) for r in amounts for ph in angles]
        elems += [Displace(m, a) for m in range(n)
                  for a in (0j, complex(-0.0, 0.5), complex(rng.normal(), rng.normal()))]
        elems += [BeamSplitter(i, j, th, ph) for i, j in pairs for th in angles for ph in angles]
        elems += [TwoModeSqueeze(i, j, r) for i, j in pairs for r in amounts]
        for elem in elems:
            for got, want in zip(gaussian._symplectic(elem, n, 1), explicit_symplectic(elem, n)):
                got = got[0]
                assert np.array_equal(got, want), elem
                assert np.array_equal(np.signbit(got), np.signbit(want)), elem

    #: sha256 of every (S, d) and every stepped (mean, cov) below: the bits,
    #: signed zeros included, of building each model's entries on its own
    COLUMN_DIGESTS = {
        1: "498207b3ce8f46854078935f1c4c6c540ea955979bfede08cf8b7ff0961c441e",
        3: "dd1c795ba5cf726a5ef945682baabb551d020b634d249fcee8f9c0f5a52fd9c8",
        100: "39deb94136ce500b00137d9af65062e3e4a91e239524636856babf1f7b70ca37",
    }

    @pytest.mark.parametrize("count", [1, 3, 100])
    def test_column_fields_pinned_bytewise(self, count):
        rng = np.random.default_rng(count)

        def col(lo, hi, head=(0.0, -0.0)):
            c = rng.uniform(lo, hi, count)
            c[:len(head)] = head[:count]
            return c

        alpha = col(-1.0, 1.0) + 1j * col(-1.0, 1.0)
        elements = [Squeeze(0, col(-1.5, 1.5), col(-4.0, 4.0)),
                    BeamSplitter(0, 2, col(-3.0, 3.0), col(-4.0, 4.0)),
                    TwoModeSqueeze(1, 2, col(-1.0, 1.0)),
                    Displace(1, alpha),
                    BeamSplitter(2, 1, col(-3.0, 3.0), col(-4.0, 4.0)),
                    Loss(0, col(0.0, 1.0, (0.0, 1.0, 0.5))),
                    ThermalMix(2, col(0.0, 1.0, (0.0, 1.0, 0.5)), rng.uniform(0.0, 3.0, count)),
                    Squeeze(2, col(-1.5, 1.5), col(-4.0, 4.0))]
        digest = hashlib.sha256()
        mean, cov = np.zeros((count, 6)), np.empty((count, 6, 6))
        cov[...] = 0.5 * np.eye(6)
        for elem in elements:
            if not isinstance(elem, (Loss, ThermalMix)):
                for a in gaussian._symplectic(elem, 3, count):
                    digest.update(a.tobytes())
            mean, cov = gaussian._step(mean, cov, elem, 3)
            digest.update(mean.tobytes() + cov.tobytes())
        assert digest.hexdigest() == self.COLUMN_DIGESTS[count]


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


class TestPhysicalityTolerance:
    @pytest.mark.parametrize("r", [5.0, 6.0, 8.0])
    def test_strongly_squeezed_pure_state_passes(self, r):
        state = replay(GaussianCircuit(2, [Squeeze(0, r, 0.3), BeamSplitter(0, 1, 0.7, 0.2)]))
        assert fidelity(state, state) == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("r", [0.0, 1.0, 2.0])
    def test_mixed_below_half_still_raises(self, r):
        s = np.eye(4)
        for elem in (Squeeze(0, r, 0.3), BeamSplitter(0, 1, 0.7, 0.2)):
            s = gaussian._symplectic(elem, 2, 1)[0][0] @ s
        cov = s @ (0.45 * np.eye(4)) @ s.T
        with pytest.raises(PhysicalityError):
            GaussianState(np.zeros(4), cov)

    def test_absolute_up_to_scale_1000(self):
        tol = gaussian.PHYSICALITY_TOL
        for scale in (0.5, 16.0, 1000.0, -1000.0):
            cov = scale * np.eye(4)
            assert gaussian._unphysical(0.5 - 1.01 * tol, cov)
            assert not gaussian._unphysical(0.5 - 0.99 * tol, cov)
        assert not gaussian._unphysical(0.5 - 1.01 * tol, 2000.0 * np.eye(4))

    def test_scale_past_the_float_range(self):
        # max|V|² overflows to inf, which forgives any rounding, rather than raising
        assert not gaussian._unphysical(0.0, 1e200 * np.eye(4))


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
            totals = [sum(mean_photon(s, m) for m in range(s.num_modes)) for s in (mixed, state)]
            assert totals[0] == pytest.approx(totals[1], abs=1e-12)

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
        circuit = random_circuit(rng)
        mixed = replay(GaussianCircuit(2, circuit.elements + (ThermalMix(0, 0.2, 0.3),)))
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
            circuits = [GaussianCircuit(2, random_circuit(rng).elements + (ThermalMix(m, 0.15, 0.2),))
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


class TestStackParity:
    """The stacked evaluation gives each model the bits of its own
    evaluation.  It rests on numpy's stacked linear algebra matching its
    per-matrix calls, so a numpy or BLAS upgrade that breaks that fails
    here instead of moving artefacts."""

    @pytest.mark.parametrize("count", [1, 3, 4, 100])
    def test_stacked_linear_algebra_equals_per_matrix(self, count):
        rng = np.random.default_rng(count)
        a, b = rng.normal(size=(2, count, 4, 4))
        spd = a @ a.swapaxes(-1, -2) + np.eye(4)
        v = rng.normal(size=(count, 4))
        stacked = {
            "matmul": a @ b,
            "matvec": (a @ v[..., None])[..., 0],
            "eigvals": np.linalg.eigvals(1j * symplectic_form(2) @ spd),
            # a column right-hand side: numpy 2 reads a 2-D b as a matrix, wrong at count 4
            "solve": np.linalg.solve(spd, v[..., None])[..., 0],
            "det": np.linalg.det(spd),
        }
        for k in range(count):
            single = {
                "matmul": a[k] @ b[k],
                "matvec": a[k] @ v[k],
                "eigvals": np.linalg.eigvals(1j * symplectic_form(2) @ spd[k]),
                "solve": np.linalg.solve(spd[k], v[k]),
                "det": np.linalg.det(spd[k]),
            }
            for name, want in single.items():
                assert stacked[name][k].tobytes() == np.asarray(want).tobytes(), (name, k)

    def test_stacked_fidelities_equal_one_at_a_time(self):
        from vibsim.experiment import (
            TMSV, DetectorModel, ExperimentModel, SMSVPair, model_fidelities, model_fidelity,
        )
        from vibsim.vibronic import OpticalTarget

        rng = np.random.default_rng(2024)
        targets = [
            OpticalTarget((0.7, -0.2), (BeamSplitter(0, 1, 0.6),)),
            # displaced, and a beam splitter with a phase
            OpticalTarget((0.4, 0.3), (BeamSplitter(0, 1, 1.1, 0.4),), (0.3 - 0.2j, 0.1j)),
        ]
        sources = [SMSVPair(0.6, 0.2), TMSV(0.5)]
        detector = DetectorModel()

        def clamped(value, sigma, size, hi=1.0):
            # Monte Carlo draws: about a fifth land on a bound
            return np.clip(value + sigma * rng.standard_normal(size), 0.0, hi)

        checked = 0
        for target in targets:
            for source in sources:
                for delta in (0.0, 0.05):
                    template = ExperimentModel(source, 0.5, (0.9, 1.0), (1.0, 0.85), delta,
                                               detector)
                    size = 260
                    columns = {f: clamped(getattr(source, f), 0.5, size, np.inf)
                               for f in source.__dataclass_fields__}
                    columns["bs_transmission"] = clamped(0.8, 0.25, size)
                    columns["loss_pre"] = clamped(np.array([0.9, 0.95]), 0.1, (size, 2))
                    columns["loss_post"] = clamped(np.array([0.97, 0.85]), 0.1, (size, 2))
                    if delta:
                        columns["distinguishability"] = clamped(delta, 0.05, size)
                    stacked = model_fidelities(template, target, **columns)
                    for k, got in enumerate(stacked.tolist()):
                        row = {name: col[k] for name, col in columns.items()}
                        row["loss_pre"], row["loss_post"] = (tuple(row[n])
                                                             for n in ("loss_pre", "loss_post"))
                        want = model_fidelity(template.with_values(**row), target)
                        assert got.hex() == want.hex(), (template, row)
                        checked += 1
        assert checked >= 2000
        # rows at each no-op value (t = 1, η = 1, δ = 0) share stacks with rows
        # that need the element, while each one-model call leaves it out
        assert np.any(columns["bs_transmission"] == 1.0)
        assert np.any(columns["loss_pre"] == 1.0) and np.any(columns["distinguishability"] == 0)

    def test_mixed_sources_equal_each_model_alone(self):
        # the stack of a loss sweep step: SMSV rows (r = 0) and TMSV rows
        # (r1 = r2 = 0) in one call, each scaled by its own detector factor
        from vibsim.experiment import (
            TMSV, DetectorModel, ExperimentModel, SMSVPair, model_fidelities,
        )
        from vibsim.optimize import _SweepSource
        from vibsim.vibronic import OpticalTarget

        rng = np.random.default_rng(25)
        targets = [OpticalTarget((0.72, -0.19), (BeamSplitter(0, 1, 0.33),)),
                   OpticalTarget((0.4, 0.3), (BeamSplitter(0, 1, 1.1, 0.4),), (0.3 - 0.2j, 0.1j))]
        template = ExperimentModel(_SweepSource(0.0, 0.0), 1.0, detector=DetectorModel().ideal())
        seen = set()
        for stack in range(200):
            count = 9
            tmsv = rng.random(count) < 0.5
            r1, r2, r = np.where([~tmsv, ~tmsv, tmsv], rng.uniform(0.0, 2.0, (3, count)), 0.0)
            t = np.where(rng.random(count) < 0.2, 1.0, rng.uniform(0.0, 1.0, count))
            delta = np.where(rng.random(count) < 0.5, 0.0, 0.06)
            eta = np.where(rng.random(count) < 0.2, 1.0, rng.uniform(0.05, 1.0, count))
            factor = np.where(tmsv, 0.9958, 1.0)
            loss = np.stack([eta, eta], -1)
            target = targets[stack % 2]
            got = model_fidelities(template, target, r1=r1, r2=r2, r=r, bs_transmission=t,
                                   distinguishability=delta, loss_pre=loss) * factor
            for k in range(count):
                source = TMSV(r[k]) if tmsv[k] else SMSVPair(r1[k], r2[k])
                alone = ExperimentModel(source, t[k], (eta[k], eta[k]), distinguishability=delta[k],
                                        detector=DetectorModel(noise_fidelity_factor=factor[k]))
                assert got[k].hex() == model_fidelities(alone, target)[0].hex(), (stack, k)
                seen.add((bool(tmsv[k]), delta[k] > 0, eta[k] == 1.0, t[k] == 1.0))
        # every kind of row, at δ = 0 and 0.06, at η = 1 and t = 1, met a stack
        assert len(seen) == 16

    def test_one_fold_per_call(self, monkeypatch):
        from vibsim import experiment
        from vibsim.vibronic import OpticalTarget

        counts, stacked_fidelity = [], experiment.stacked_fidelity

        def counted(*args):
            counts.append(args[-2])  # the number of models
            return stacked_fidelity(*args)

        monkeypatch.setattr(experiment, "stacked_fidelity", counted)
        template = experiment.ExperimentModel(experiment.TMSV(0.5), 0.5, (0.9, 0.8), (0.95, 1.0),
                                              0.05, experiment.DetectorModel())
        target = OpticalTarget((0.7, -0.2), (BeamSplitter(0, 1, 0.6),))
        # each row is at the no-op value of some element that another row needs
        columns = {"bs_transmission": np.array([1.0, 0.5, 0.7, 1.0]),
                   "loss_pre": np.array([[1.0, 1.0], [0.9, 1.0], [1.0, 0.7], [0.8, 0.6]]),
                   "loss_post": np.array([[1.0, 1.0], [1.0, 0.9], [0.95, 1.0], [1.0, 1.0]]),
                   "distinguishability": np.array([0.0, 0.05, 0.0, 0.1])}
        stacked = experiment.model_fidelities(template, target, **columns)
        assert counts == [4]
        for k, got in enumerate(stacked.tolist()):
            row = {name: col[k] for name, col in columns.items()}
            row["loss_pre"], row["loss_post"] = tuple(row["loss_pre"]), tuple(row["loss_post"])
            want = experiment.model_fidelity(template.with_values(**row), target)
            assert got.hex() == want.hex(), k

    def test_no_op_rows_pass_through(self):
        # the modes are uncorrelated, so the stack holds zero entries too
        rng = np.random.default_rng(5)
        count = 40
        r, phase = rng.uniform(0.0, 1.2, (2, count))
        mean, cov = gaussian._fold([Squeeze(0, r, phase), Squeeze(1, r / 2),
                                    Displace(1, 0.3 - 0.1j)], 2, count)
        noop = rng.random(count) < 0.5
        for elem in (Loss(1, np.where(noop, 1.0, rng.uniform(0.2, 1.0, count))),
                     ThermalMix(0, np.where(noop, 0.0, rng.uniform(0.0, 0.3, count)),
                                rng.uniform(0.0, 2.0, count)),
                     BeamSplitter(0, 1, np.where(noop, 0.0, rng.uniform(-1.0, 1.0, count)), 0.4)):
            stepped = gaussian._step(mean, cov, elem, 2)
            for got, want in zip(stepped, (mean, cov)):
                got, want = got[noop], want[noop]
                nonzero = want != 0.0
                assert np.array_equal(got == 0.0, ~nonzero), elem
                assert got[nonzero].tobytes() == want[nonzero].tobytes(), elem

    def test_mixed_and_pure_rows_of_one_stack(self):
        rng = np.random.default_rng(7)
        count = 60
        r, theta = rng.uniform(0.0, 1.0, count), rng.uniform(-1.0, 1.0, count)
        eta = np.where(rng.random(count) < 0.3, 1.0, rng.uniform(0.3, 1.0, count))

        def elements(r, eta, theta):
            return [Squeeze(0, r, 0.3), TwoModeSqueeze(0, 1, r / 2), Loss(1, eta),
                    BeamSplitter(0, 1, theta, 0.2), Displace(0, 0.1 + 0.2j)]

        # a mixed other state: rows left pure (eta = 1) take the overlap formula
        for other in (replay(GaussianCircuit(2, [ThermalMix(0, 0.4, 0.3), Squeeze(1, 0.2)])),
                      replay(GaussianCircuit(2, [Squeeze(1, 0.2)]))):
            got = gaussian.stacked_fidelity(elements(r, eta, theta), count, other)
            for k in range(count):
                circuit = GaussianCircuit(2, elements(r[k], eta[k], theta[k]))
                assert got[k].hex() == fidelity(replay(circuit), other).hex(), k
