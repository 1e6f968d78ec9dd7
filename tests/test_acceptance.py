"""End-to-end acceptance checks, one per release criterion.

Each test prints a single PASS/FAIL line (run with ``pytest -s`` to see
them) and asserts the criterion at its stated tolerance.
"""

import math
import time

import numpy as np
import pytest

from vibsim import fixtures
from vibsim.experiment import (
    DetectorModel,
    ExperimentModel,
    SMSVPair,
    model_fidelity,
    observed_distribution,
)
from vibsim.fock import fidelity_fock, gaussian_to_fock, photon_distribution, replay_fock
from vibsim.gaussian import (
    GaussianCircuit,
    Loss,
    apply,
    fidelity,
    replay,
    symplectic_eigenvalues,
    vacuum,
)
from vibsim.metrics import closest_classical, restrict_to, total_bound, trace_bound, tvd
from vibsim.optimize import loss_sweep, monte_carlo_fidelity, optimize_experiment
from vibsim.sampler import estimate_fc, sample
from vibsim.vibronic import fc_factors
from helpers import TROPOLONE_IDEAL, random_circuit


def _report(criterion: str, passed: bool, detail: str = "") -> None:
    status = "PASS" if passed else "FAIL"
    print(f"\nACCEPTANCE {criterion}: {status} {detail}")
    assert passed, f"{criterion} failed: {detail}"


@pytest.fixture(scope="module")
def target():
    return fixtures.tropolone_target()


@pytest.fixture(scope="module")
def ideal_table(target):
    return fc_factors(target, 20)


def test_criterion_01_ideal_franck_condon_table(target):
    t0 = time.perf_counter()
    table = fc_factors(target, 20)
    elapsed = time.perf_counter() - t0
    deviations = {
        outcome: abs(table.probability(outcome) - expected)
        for outcome, expected in TROPOLONE_IDEAL.items()
    }
    tol = {(0, 2): 0.001}
    ok = all(dev <= tol.get(k, 0.002) for k, dev in deviations.items())
    ok &= table.probability((1, 0)) < 1e-12 and table.probability((0, 1)) < 1e-12
    ok &= elapsed < 1.0
    worst = max(deviations.values())
    _report("criterion 1 (ideal table)", ok, f"max deviation {worst:.2e}, {elapsed:.2f}s")


def test_criterion_02_oracle_equivalence():
    rng = np.random.default_rng(2024)
    worst = 0.0
    for i in range(50):
        circuit = random_circuit(rng, channels=(i % 5 < 2), max_mode_photons=0.7)
        direct = photon_distribution(replay_fock(circuit, 30, strict=False))
        synth = photon_distribution(gaussian_to_fock(replay(circuit), 30))
        worst = max(worst, tvd(direct, synth))
    _report("criterion 2 (route equivalence)", worst < 1e-6, f"max TVD {worst:.2e}")


def test_criterion_03_classical_benchmark(target):
    bench = closest_classical(target)
    f_ok = abs(bench.classical_fidelity - 0.879) <= 0.001
    b_ok = abs(bench.classical_bound - 0.476) <= 0.001
    _report(
        "criterion 3 (classical benchmark)",
        f_ok and b_ok,
        f"fidelity {bench.classical_fidelity:.4f}, bound {bench.classical_bound:.4f}",
    )


def test_criterion_04_experimental_regime(target):
    template = fixtures.characterized_model()
    best, f_star = optimize_experiment(template, target)
    mc = monte_carlo_fidelity(best, target, fixtures.parameter_uncertainty(), n=100, seed=7)
    ok = abs(f_star - 0.891) <= 0.01
    ok &= abs(mc.mean - 0.890) <= 0.003
    ok &= mc.std <= 0.005
    _report(
        "criterion 4 (experimental regime)",
        ok,
        f"F*={f_star:.4f}, MC {mc.mean:.4f}({mc.std:.4f})",
    )


def test_criterion_05_intermediate_setups(target, ideal_table):
    outcomes = list(TROPOLONE_IDEAL) + [(1, 0), (0, 1)]
    ideal_listed = restrict_to(ideal_table, outcomes)

    lossless = ExperimentModel(SMSVPair(0.5, 0.5), 0.5)
    best_ll, f_ll = optimize_experiment(lossless, target)
    obs_ll = restrict_to(observed_distribution(best_ll, 20), outcomes)
    tvd_ll = tvd(obs_ll, ideal_listed, residual_sink=False)

    lossy = ExperimentModel(SMSVPair(0.5, 0.5), 0.5, loss_pre=(0.4, 0.4))
    best_lo, f_lo = optimize_experiment(lossy, target)
    obs_lo = restrict_to(observed_distribution(best_lo, 20), outcomes)
    tvd_lo = tvd(obs_lo, ideal_listed, residual_sink=False)

    ok = abs(f_ll - 0.9958) <= 0.002 and abs(tvd_ll - 0.005) <= 0.002
    ok &= abs(f_lo - 0.9068) <= 0.01 and abs(tvd_lo - 0.195) <= 0.01
    _report(
        "criterion 5 (intermediate setups)",
        ok,
        f"lossless F={f_ll:.4f} TVD={tvd_ll:.4f}; lossy F={f_lo:.4f} TVD={tvd_lo:.4f}",
    )


def test_criterion_06_error_budget():
    budget = total_bound(0.890, 0.0, 1e-3)
    arithmetic_ok = abs(budget.total - 0.455) <= 0.003

    rng = np.random.default_rng(66)
    holds = True
    for _ in range(50):
        c1 = random_circuit(rng, max_mode_photons=0.6)
        c2 = random_circuit(rng, max_mode_photons=0.6)
        p1 = photon_distribution(replay_fock(c1, 18, strict=False))
        p2 = photon_distribution(replay_fock(c2, 18, strict=False))
        bound = trace_bound(fidelity(replay(c1), replay(c2)))
        slack = 2 * (p1.tail_mass + p2.tail_mass)
        holds &= tvd(p1, p2) <= bound + slack + 1e-12
    _report(
        "criterion 6 (error budget)",
        arithmetic_ok and holds,
        f"total {budget.total:.4f}, statistics bound holds on 50 pairs: {holds}",
    )


def test_criterion_07_tvd_normalization():
    experiment = fixtures.reference_table("experiment")
    ideal = fixtures.reference_table("ideal")
    value = tvd(experiment, ideal, residual_sink=False)
    _report(
        "criterion 7 (reported error reproduction)",
        abs(value - 0.206) <= 0.005,
        f"TVD {value:.4f}",
    )


def test_criterion_08_loss_sweep(target):
    grid = [0.0, 0.3, 0.6, 0.8, 0.85, 0.88, 0.90, 0.92, 0.94]
    threshold = closest_classical(target).classical_fidelity
    curves = loss_sweep(target, grid, DetectorModel(), 0.06)

    monotone = all(
        all(b <= a + 1e-6 for a, b in zip(vals, vals[1:])) for vals in curves.values()
    )
    noisy = curves["f_smsv_noisydet"]
    crossing = None
    for i in range(len(grid) - 1):
        if noisy[i] >= threshold > noisy[i + 1]:
            frac = (noisy[i] - threshold) / (noisy[i] - noisy[i + 1])
            crossing = grid[i] + frac * (grid[i + 1] - grid[i])
            break
    ok = monotone and crossing is not None and abs(crossing - 0.90) <= 0.03
    _report(
        "criterion 8 (loss sweep)",
        ok,
        f"monotone={monotone}, threshold crossing at {crossing}",
    )


def test_criterion_09_property_suites(target):
    rng = np.random.default_rng(99)
    checks = {}

    physical = True
    for _ in range(10):
        nus = symplectic_eigenvalues(replay(random_circuit(rng)))
        physical &= bool(np.all(nus >= 0.5 - 1e-9))
    checks["physicality"] = physical

    parity_ok = True
    for _ in range(5):
        circuit = random_circuit(rng, channels=False, displacement=False)
        table = photon_distribution(replay_fock(circuit, 16, strict=False))
        odd = sum(p for key, p in table.entries.items() if sum(key) % 2 == 1)
        parity_ok &= odd < 1e-12
    checks["parity"] = parity_ok

    compose_ok = True
    for _ in range(5):
        state = replay(random_circuit(rng))
        e1, e2 = rng.uniform(0.2, 1.0, size=2)
        twice = apply(apply(state, Loss(1, e1)), Loss(1, e2))
        once = apply(state, Loss(1, e1 * e2))
        compose_ok &= float(np.max(np.abs(twice.cov - once.cov))) < 1e-12
    checks["loss_composition"] = compose_ok

    fid_ok = True
    for _ in range(5):
        s1, s2 = replay(random_circuit(rng)), replay(random_circuit(rng))
        fid_ok &= abs(fidelity(s1, s1) - 1.0) < 1e-9
        fid_ok &= abs(fidelity(s1, s2) - fidelity(s2, s1)) < 1e-8
    checks["fidelity_symmetry"] = fid_ok

    agree_ok = True
    for _ in range(4):
        c1 = random_circuit(rng, max_mode_photons=0.6)
        c2 = random_circuit(rng, max_mode_photons=0.6)
        f_gauss = fidelity(replay(c1), replay(c2))
        f_fock = fidelity_fock(
            replay_fock(c1, 30, strict=False), replay_fock(c2, 30, strict=False)
        )
        agree_ok &= abs(f_gauss - f_fock) < 1e-4
    checks["gaussian_fock_fidelity"] = agree_ok

    mc_a = monte_carlo_fidelity(
        fixtures.characterized_model(), target, fixtures.parameter_uncertainty(), n=20, seed=5
    )
    mc_b = monte_carlo_fidelity(
        fixtures.characterized_model(), target, fixtures.parameter_uncertainty(), n=20, seed=5
    )
    checks["mc_determinism"] = bool(np.array_equal(mc_a.samples, mc_b.samples))

    table = fc_factors(target, 16)
    checks["sampling_determinism"] = (
        sample(table, 5000, seed=3).counts == sample(table, 5000, seed=3).counts
    )

    failed = [name for name, ok in checks.items() if not ok]
    _report("criterion 9 (property suites)", not failed, f"failed: {failed or 'none'}")


def test_criterion_10_calibration_round_trips():
    from vibsim.calibrate import fit_pump_curve, fit_source, hom_to_delta, predicted_distribution

    det = DetectorModel()
    truth_r, truth_eta = 0.3, (0.45, 0.40)
    hists = []
    for seed, t in ((50, 1.0), (51, 0.0)):
        table = predicted_distribution(truth_r, truth_eta, t, det, 12)
        hists.append(sample(table, 1_000_000, seed=seed))
    fit = fit_source(hists[0], hists[1], det)
    tomo_ok = (
        abs(fit.r - truth_r) <= 0.01
        and abs(fit.eta[0] - truth_eta[0]) <= 0.02
        and abs(fit.eta[1] - truth_eta[1]) <= 0.02
    )

    rng = np.random.default_rng(52)
    k = 0.05
    points = [(p, k * math.sqrt(p) + rng.normal(0, 0.003)) for p in np.linspace(10, 100, 10)]
    pump = fit_pump_curve(points, max_power=100.0)
    pump_ok = abs(pump.k - k) / k <= 0.01

    hom_ok = abs(hom_to_delta(0.94) - 0.06) < 1e-12

    _report(
        "criterion 10 (calibration)",
        tomo_ok and pump_ok and hom_ok,
        f"tomography r={fit.r:.4f} eta={tuple(round(e, 3) for e in fit.eta)}, "
        f"pump k={pump.k:.5f}",
    )
