"""Generated inputs, operations and output checks of the three workloads.

Every workload builds a pool of operations from a random generator, seeded
by ``--seed`` for spectra and by a fixed seed for design and tomography,
whose optimisers stop short on a few inputs; a round runs the whole pool
once.  The program only ever sees the config and histogram
files written here.  Each operation's outputs are checked against the
numpy computations in :mod:`reference` or against properties the method
must have.

Checks raise :class:`WrongOutput` when a number is wrong,
:class:`StoppedShort` when an optimiser reports convergence short of the
independent optimum, and :class:`ContractFault` when the exit code or error
reporting breaks the documented CLI contract (exit 0 / 2 / 3, no traceback).

Some rounds also hold a few inputs on which a named fault of the program
makes the operation fail every time.  They keep the fault visible in the
failure count and stay out of the timings.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable

import numpy as np

import reference as ref

#: two-mode cutoffs of one spectra round, with how often each is taken: the
#: median operation falls in the middle of the cutoff-24 group, so it does
#: not jump between cutoffs from seed to seed
SPECTRA_CUTOFFS_2M = {20: 2, 24: 7, 27: 2, 30: 2}
SPECTRA_CUTOFFS_3M = (9, 10, 11)
#: cutoff of every tomography fit
TOMOGRAPHY_CUTOFF = 12
#: every cutoff some workload replays at; one per-layer metric each
CUTOFFS = tuple(sorted({TOMOGRAPHY_CUTOFF, *SPECTRA_CUTOFFS_2M, *SPECTRA_CUTOFFS_3M}))

TOMOGRAPHY_SHOTS = 1_000_000
TOMOGRAPHY_FITS = 9
#: (source, target) of the optimize operations in one design round: ten
#: three-parameter (SMSV) fits to four two-parameter (TMSV) ones, so that the
#: median operation lies inside one kind rather than on the step between them
DESIGN_OPTIMIZE = (("tmsv", "tropolone"), ("tmsv", "optical")) * 2 + (
    ("smsv", "tropolone"), ("smsv", "optical")) * 5
DESIGN_SWEEPS = 2

#: the bundled reference scenario and the paper's tables, read as data
FIXTURES = Path(__file__).resolve().parent.parent / "src/vibsim/fixtures"
TROPOLONE = json.loads((FIXTURES / "tropolone.json").read_text())


class WrongOutput(AssertionError):
    """An output disagrees with the independent computation."""


class ContractFault(AssertionError):
    """Exit code or error reporting outside the CLI contract."""


class StoppedShort(AssertionError):
    """An optimiser reports convergence short of the optimum that the
    independent computation finds."""


@dataclass
class Op:
    """One operation: ``run`` calls the program, ``check`` inspects what it
    returned and wrote.  ``expected_failure`` names the program fault that
    makes a fixed input fail; such operations are counted but not timed,
    so that mending the fault moves only the failure count."""

    kind: str
    label: str
    run: Callable[[], Any]
    check: Callable[[Any], None]
    expected_failure: str | None = None


def _close(name: str, got: float, want: float, tol: float) -> None:
    if not (math.isfinite(got) and abs(got - want) <= tol):
        raise WrongOutput(f"{name}: got {got!r}, expected {want!r} within {tol:g}")


def _at_maximum(name: str, got: float, best: float, tol: float = 1e-6) -> None:
    """An optimiser's value against the independent maximum: below it the
    optimiser stopped short, above it the value is wrong."""
    if got < best - tol:
        raise StoppedShort(f"{name}: {got!r} below the independent maximum {best!r}")
    _close(name, got, best, tol)


def _expect_exit(rc, expected: int, stderr: str) -> None:
    if "Traceback" in stderr:
        raise ContractFault(f"traceback on stderr: {stderr.strip().splitlines()[-1]}")
    if rc != expected:
        raise ContractFault(f"exit code {rc}, expected {expected}")


def call_cli(argv: list[str]) -> tuple[int, str]:
    """``vibsim.cli.main`` in-process with stderr captured."""
    from vibsim.cli import main

    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        rc = main(argv)
    return rc, err.getvalue()


def _write_config(path: Path, cfg: dict) -> Path:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(cfg, indent=1))
    return path


# ---------------------------------------------------------------------------
# generated inputs
# ---------------------------------------------------------------------------


def _optical_target(rng: np.random.Generator, displaced: bool) -> dict:
    target = {
        "kind": "optical",
        "squeeze": [float(rng.uniform(-0.75, -0.3)), float(rng.uniform(0.05, 0.35))],
        "bs_angle": float(rng.uniform(0.15, 0.6)),
        "excited_freqs_cm1": [float(rng.uniform(150, 250)), float(rng.uniform(80, 140))],
    }
    if displaced:
        target["displacement"] = [[float(v) for v in rng.uniform(-0.35, 0.35, 2)]
                                  for _ in range(2)]
    return target


def _experiment(rng: np.random.Generator, source: str, r1_max: float = 0.8) -> dict:
    if source == "tmsv":
        src = {"kind": "tmsv", "r": float(rng.uniform(0.3, 0.7))}
    else:
        src = {"kind": "smsv_pair", "r1": float(rng.uniform(0.4, r1_max)),
               "r2": float(rng.uniform(0.05, 0.35))}
    # Nelder-Mead can settle on the flat r = 0 edge from a two-mode squeezer
    # started above t = 0.55; EDGE_CASES show that fault in every round.
    return {
        "source": src,
        "bs_transmission": float(rng.uniform(0.3, 0.55)),
        "loss_pre": [float(v) for v in rng.uniform(0.35, 0.95, 2)],
        "loss_post": [float(v) for v in rng.uniform(0.85, 1.0, 2)],
        "distinguishability": float(rng.uniform(0.0, 0.1)),
        "detector": {"dark_p1": float(rng.uniform(0.0, 0.004)),
                     "pump_p2": float(rng.uniform(0.0, 0.002)),
                     "noise_fidelity_factor": float(rng.uniform(0.99, 1.0))},
    }


def _transition(rng: np.random.Generator, displaced: bool) -> dict:
    q, _ = np.linalg.qr(rng.normal(size=(3, 3)))
    if np.linalg.det(q) < 0:
        q[:, 0] = -q[:, 0]
    ground = np.sort(rng.uniform(300.0, 600.0, 3))
    excited = ground * rng.uniform(0.85, 1.15, 3)
    target = {"kind": "transition", "duschinsky": q.tolist(),
              "ground_freqs_cm1": ground.tolist(), "excited_freqs_cm1": excited.tolist()}
    if displaced:
        target["displacement"] = [float(v) for v in rng.uniform(-0.4, 0.4, 3)]
    return target


def target_moments(target: dict):
    """Independent (mean, covariance, excited frequencies) of a config target."""
    if target["kind"] == "tropolone":
        mean, v = ref.optical_target_moments(TROPOLONE["squeeze"], TROPOLONE["bs_angle"])
        return mean, v, TROPOLONE["excited_freqs_cm1"]
    if target["kind"] == "optical":
        mean, v = ref.optical_target_moments(
            target["squeeze"], target.get("bs_angle"), target.get("displacement"))
        return mean, v, target["excited_freqs_cm1"]
    mean, v = ref.transition_moments(
        target["duschinsky"], target["ground_freqs_cm1"], target["excited_freqs_cm1"],
        target.get("displacement"))
    return mean, v, target["excited_freqs_cm1"]


def _model_cov(exp: dict) -> np.ndarray:
    src = exp["source"]
    if src["kind"] == "tmsv":
        params = {"r": src["r"], "t": exp["bs_transmission"]}
    else:
        params = {"r1": src["r1"], "r2": src["r2"], "t": exp["bs_transmission"]}
    return ref.experiment_cov(
        "tmsv" if src["kind"] == "tmsv" else "smsv", params,
        loss_pre=exp.get("loss_pre", (1.0, 1.0)), loss_post=exp.get("loss_post", (1.0, 1.0)),
        delta=exp.get("distinguishability", 0.0))


# ---------------------------------------------------------------------------
# design: optimize and sweep-loss
# ---------------------------------------------------------------------------

MALFORMED_FAULT = "a ValueError from config parsing escapes cli.main (exit 1, traceback)"
MALFORMED = (
    ("cutoff-string", lambda c: c.update(cutoff="abc")),
    ("negative-sigma-r", lambda c: c.update(uncertainties={"sigma_r": -0.01})),
    ("string-bs-angle", lambda c: c.update(target={"kind": "optical", "squeeze": [-0.7, 0.2],
                                                    "bs_angle": "wide"})),
    ("dark-p1-above-one", lambda c: c["experiment"]["detector"].update(dark_p1=2)),
    ("negative-frequency", lambda c: c.update(target={
        "kind": "transition", "duschinsky": [[1.0, 0.0], [0.0, 1.0]],
        "ground_freqs_cm1": [100.0, -200.0], "excited_freqs_cm1": [120.0, 180.0]})),
    ("nan-squeeze", lambda c: c.update(target={"kind": "optical", "squeeze": [float("nan"), 0.2],
                                                "bs_angle": 0.3})),
)

TMSV_EDGE = ("optimize_experiment, started from a TMSV at beam-splitter transmission above "
             "about 0.6, ends on the flat r = 0 edge about 0.015 below the optimum")
SMSV_EDGE = ("optimize_experiment ends an SMSV fit on the r2 = 0 bound, 3e-4 below the optimum")
#: (fault, target, experiment) of optimisations that stop short of the
#: optimum in every round; the pool's TMSV fits start at t <= 0.55, where
#: none has been seen to
EDGE_CASES = (
    (TMSV_EDGE,
     {"kind": "optical", "squeeze": [-0.469, 0.1315], "bs_angle": 0.5928,
      "excited_freqs_cm1": [233.0659, 138.0426]},
     {"source": {"kind": "tmsv", "r": 0.6647}, "bs_transmission": 0.6508,
      "loss_pre": [0.8583, 0.4859], "loss_post": [0.9108, 0.8526], "distinguishability": 0.0103,
      "detector": {"dark_p1": 0.0006, "pump_p2": 0.0009, "noise_fidelity_factor": 0.9926}}),
    (TMSV_EDGE,
     {"kind": "optical", "squeeze": [-0.4242, 0.1754], "bs_angle": 0.4672,
      "excited_freqs_cm1": [191.4179, 105.0584]},
     {"source": {"kind": "tmsv", "r": 0.6602}, "bs_transmission": 0.7368,
      "loss_pre": [0.915, 0.4767], "loss_post": [0.9984, 0.8913], "distinguishability": 0.0088,
      "detector": {"dark_p1": 0.0, "pump_p2": 0.0015, "noise_fidelity_factor": 0.9903}}),
    (SMSV_EDGE,
     {"kind": "optical", "squeeze": [-0.5524, 0.0671], "bs_angle": 0.3705,
      "excited_freqs_cm1": [151.9104, 128.7415]},
     {"source": {"kind": "smsv_pair", "r1": 0.4131, "r2": 0.1254}, "bs_transmission": 0.3697,
      "loss_pre": [0.3944, 0.593], "loss_post": [0.9791, 0.9169], "distinguishability": 0.0914,
      "detector": {"dark_p1": 0.003, "pump_p2": 0.0002, "noise_fidelity_factor": 0.9901}}),
)
#: seed of the fixed pool of experiments
DESIGN_POOL_SEED = [1, 1]
UNCERTAINTIES = {"sigma_loss": 0.02, "sigma_r": 0.01, "sigma_delta": 0.02, "sigma_t": 0.01}


def _check_optimize(cfg: dict, out: Path, rng_seed: int) -> Callable:
    target = cfg["target"]
    mean, v_t, _ = target_moments(target)
    template = cfg["experiment"]
    source = "tmsv" if template["source"]["kind"] == "tmsv" else "smsv"
    factor = template["detector"]["noise_fidelity_factor"]
    optimum = {}  # the same in every round, so computed once

    def check(result) -> None:
        rc, err = result
        _expect_exit(rc, 0, err)
        res = json.loads((out / "optimize_result.json").read_text())
        best = res["experiment"]
        for key in ("loss_pre", "loss_post", "distinguishability", "detector"):
            if best[key] != template[key]:
                raise WrongOutput(f"optimize changed the fixed parameter {key}")
        if not optimum:
            names, f = ref.fidelity_landscape(
                source, v_t, loss_pre=template["loss_pre"], delta=template["distinguishability"],
                factor=factor, loss_post=template["loss_post"])
            optimum["grid"], optimum["max"] = ref.independent_maximum(
                f, names, np.random.default_rng(rng_seed))
        f_closed = factor * float(ref.pure_fidelity(_model_cov(best), v_t, mean))
        _close("f_star vs closed form at the reported optimum", res["f_star"], f_closed, 1e-9)
        _close("t_star", res["t_star"], best["bs_transmission"], 0.0)
        if not (0.0 < res["f_mc_mean"] <= 1.0 and res["f_mc_std"] >= 0.0
                and res["clamp_events"] >= 0):
            raise WrongOutput("Monte Carlo summary out of range")
        if res["f_star"] < optimum["grid"] - 1e-9:
            raise StoppedShort(f"f_star {res['f_star']!r} below the grid maximum "
                               f"{optimum['grid']!r}")
        _at_maximum("f_star", res["f_star"], optimum["max"])

    return check


def _check_sweep(cfg: dict, grid: list[float], out: Path, rng_seed: int) -> Callable:
    target = cfg["target"]
    _, v_t, _ = target_moments(target)
    exp = cfg["experiment"]
    factor = exp["detector"]["noise_fidelity_factor"]
    delta = exp["distinguishability"]
    squeeze = TROPOLONE["squeeze"] if target["kind"] == "tropolone" else target["squeeze"]
    threshold = float(np.prod(np.cosh(squeeze)) ** -0.5)
    optima: list[tuple[float, float, float]] = []  # the same in every round

    def maxima(loss: float) -> tuple[float, float, float]:
        rng = np.random.default_rng(rng_seed)
        eta = (1.0 - loss, 1.0 - loss)
        out_vals = []
        for source, d, fac in (("smsv", 0.0, 1.0), ("tmsv", 0.0, factor), ("tmsv", delta, factor)):
            names, f = ref.fidelity_landscape(source, v_t, loss_pre=eta, delta=d, factor=fac)
            out_vals.append(ref.independent_maximum(f, names, rng)[1])
        return tuple(out_vals)

    def check(result) -> None:
        rc, err = result
        _expect_exit(rc, 0, err)
        lines = (out / "loss_sweep.csv").read_text().splitlines()
        if lines[0] != "loss,f_smsv,f_smsv_noisydet,f_tmsv,f_tmsv_dist,classical_threshold":
            raise WrongOutput("unexpected sweep header")
        rows = [[float(x) for x in line.split(",")] for line in lines[1:]]
        if [r[0] for r in rows] != sorted(grid):
            raise WrongOutput("sweep rows do not follow the grid")
        if not optima:
            optima.extend(maxima(r[0]) for r in rows)
        for loss, f_smsv, f_noisy, _, _, thr in rows:
            _close(f"f_smsv_noisydet at loss {loss}", f_noisy, f_smsv * factor, 1e-11)
            _close("classical threshold", thr, threshold, 1e-11)
        for row, maxima_at_loss in zip(rows, optima):
            for name, got, best in zip(("f_smsv", "f_tmsv", "f_tmsv_dist"),
                                       (row[1], row[3], row[4]), maxima_at_loss):
                _at_maximum(f"{name} at loss {row[0]}", got, best)
        for col in (1, 2, 3, 4):
            vals = [r[col] for r in rows]
            if any(b > a + 1e-9 for a, b in zip(vals, vals[1:])):
                raise StoppedShort(f"sweep column {col} increases with loss")

    return check


def design(seed: int, work: Path) -> list[Op]:
    """Optimisation of the controllables and short loss sweeps, on a fixed
    pool of experiments, then the edge cases and the malformed configs.

    The pool does not depend on ``seed``: Nelder-Mead stops short on a few
    in a thousand experiments (one SMSV fit in 50 seeded rounds, now the
    last of EDGE_CASES), so a seeded pool would fail on some seeds only."""
    rng = np.random.default_rng(DESIGN_POOL_SEED)
    ops: list[Op] = []

    def base_config(target: dict, source: str) -> dict:
        return {"version": 1, "target": target, "experiment": _experiment(rng, source),
                "uncertainties": UNCERTAINTIES,
                "seed": int(rng.integers(1 << 30)), "monte_carlo_samples": 100}

    def optimize(cfg: dict, label: str, grid_seed: int, fault: str | None = None) -> None:
        idx = len(ops)
        path = _write_config(work / f"in/{idx}/config.json", cfg)
        out = work / f"out/{idx}"
        argv = ["--config", str(path), "--out-dir", str(out), "optimize"]
        ops.append(Op("optimize", label, lambda a=argv: call_cli(a),
                      _check_optimize(cfg, out, grid_seed), fault))

    for source, kind in DESIGN_OPTIMIZE:
        target = {"kind": "tropolone"} if kind == "tropolone" else _optical_target(rng, False)
        optimize(base_config(target, source), f"optimize {source} {kind}",
                 int(rng.integers(1 << 30)))
    for _ in range(DESIGN_SWEEPS):
        cfg = base_config({"kind": "tropolone"}, "tmsv")
        # four decimals, so that the CSV's loss column repeats the grid exactly
        grid = [round(float(rng.uniform(0.0, 0.35)), 4), round(float(rng.uniform(0.45, 0.8)), 4)]
        idx = len(ops)
        path = _write_config(work / f"in/{idx}/config.json", cfg)
        out = work / f"out/{idx}"
        argv = ["--config", str(path), "--out-dir", str(out), "sweep-loss",
                "--grid", ",".join(repr(g) for g in grid)]
        ops.append(Op("sweep-loss", "sweep-loss tropolone", lambda a=argv: call_cli(a),
                      _check_sweep(cfg, grid, out, int(rng.integers(1 << 30)))))
    for k, (fault, target, experiment) in enumerate(EDGE_CASES):
        cfg = {"version": 1, "target": target, "experiment": experiment,
               "uncertainties": UNCERTAINTIES, "seed": 1234, "monte_carlo_samples": 100}
        optimize(cfg, f"optimize edge case {k}", 99, fault)
    for name, mutate in MALFORMED:
        cfg = base_config({"kind": "tropolone"}, "tmsv")
        mutate(cfg)
        idx = len(ops)
        path = _write_config(work / f"in/{idx}/config.json", cfg)
        argv = ["--config", str(path), "--out-dir", str(work / f"out/{idx}"), "optimize"]

        def check(result) -> None:
            _expect_exit(result[0], 2, result[1])

        ops.append(Op("malformed", f"malformed {name}", lambda a=argv: call_cli(a), check,
                      MALFORMED_FAULT))
    return ops


# ---------------------------------------------------------------------------
# tomography
# ---------------------------------------------------------------------------


def _fit_objective(counts: tuple[np.ndarray, np.ndarray], x, dark: float, pump: float):
    """TVDs of the two settings between the counts and the model at
    ``x = (r, eta_1, eta_2)``, outcomes at or above the cutoff pooled."""
    probs = ref.lossy_tmsv_counts(x[0], (x[1], x[2]), dark, pump)
    return tuple(ref.pooled_tvd(c / c.sum(), p, TOMOGRAPHY_CUTOFF)
                 for c, p in zip(counts, (probs, probs.T)))


def _check_tomography(out: Path, truth, counts, dark: float, pump: float) -> Callable:
    def check(result) -> None:
        rc, err = result
        _expect_exit(rc, 0, err)
        fit = json.loads((out / "tomography_fit.json").read_text())
        if fit["converged"] is not True:
            raise WrongOutput("fit reports no convergence")
        x = (fit["r"], *fit["eta"])
        if not (0.0 <= x[0] <= 1.5 and 0.0 <= min(x[1:]) and max(x[1:]) <= 1.0):
            raise WrongOutput(f"fit {x} outside the parameter bounds")
        at_fit = _fit_objective(counts, x, dark, pump)
        _close("residual TVD at the reported fit", fit["residual_tvd"], max(at_fit), RESIDUAL_TOL)
        at_truth = _fit_objective(counts, truth, dark, pump)
        if sum(at_fit) > sum(at_truth) + RESIDUAL_TOL:
            raise StoppedShort(f"fit {x} stops at a summed TVD of {sum(at_fit):.3g}, above the "
                               f"{sum(at_truth):.3g} at the true {truth}")
        error = max(abs(a - b) for a, b in zip(x, truth))
        if error > FIT_TOL:
            raise WrongOutput(f"fit {x} misses the true {truth} by {error:.3g}")

    return check


def _tomography_op(work: Path, idx: int, truth, dark: float, pump: float, counts,
                   fault: str | None = None) -> Op:
    inp = work / f"in/{idx}"
    inp.mkdir(parents=True, exist_ok=True)
    ref.write_histogram(inp / "trans.csv", counts[0])
    ref.write_histogram(inp / "refl.csv", counts[1])
    cfg = {"version": 1, "cutoff": TOMOGRAPHY_CUTOFF,
           "experiment": {"source": {"kind": "tmsv", "r": 0.5}, "bs_transmission": 0.5,
                          "detector": {"dark_p1": dark, "pump_p2": pump}}}
    path = _write_config(inp / "config.json", cfg)
    out = work / f"out/{idx}"
    argv = ["--config", str(path), "--out-dir", str(out), "tomography",
            str(inp / "trans.csv"), str(inp / "refl.csv")]
    return Op("tomography", f"tomography r={truth[0]:.3f}", lambda a=argv: call_cli(a),
              _check_tomography(out, truth, counts, dark, pump), fault)


def _tomography_source(rng: np.random.Generator, r: float):
    """(truth, dark_p1, pump_p2, counts of both settings) of one sampled pair."""
    eta = tuple(float(v) for v in rng.uniform(0.3, 0.7, 2))
    dark, pump = float(rng.uniform(0.001, 0.005)), float(rng.uniform(0.0005, 0.002))
    probs = ref.lossy_tmsv_counts(r, eta, dark, pump)
    # the 100:0 setting sees the arms straight, the 0:100 setting swapped
    counts = (ref.sample_counts(probs, TOMOGRAPHY_SHOTS, rng),
              ref.sample_counts(probs.T, TOMOGRAPHY_SHOTS, rng))
    return (r, *eta), dark, pump, counts


def tomography(seed: int, work: Path) -> list[Op]:
    """Source fits on a fixed pool of sampled histogram pairs, squeezing
    stratified over 0.3-0.7, then the pair on which the fit stalls.

    The pool does not depend on ``seed``: Nelder-Mead stops short on a few
    per cent of pairs, sampled or not, so a seeded pool would fail on some
    seeds only.  With a fixed pool the same fits fail in every run."""
    rng = np.random.default_rng(TOMOGRAPHY_POOL_SEED)
    edges = np.linspace(0.3, 0.7, TOMOGRAPHY_FITS + 1)
    ops = [_tomography_op(work, idx, *_tomography_source(
               rng, float(rng.uniform(edges[idx], edges[idx + 1]))))
           for idx in range(TOMOGRAPHY_FITS)]
    rng = np.random.default_rng(STALL_SEED)
    ops.append(_tomography_op(work, len(ops), *_tomography_source(
        rng, float(rng.uniform(0.3, 0.7))), STALL_FAULT))
    return ops


#: seed of the fixed pool of fits
TOMOGRAPHY_POOL_SEED = 2
#: A fit that reaches the TVD minimum recovers the true r and eta to this
#: absolute accuracy: over 125 seeded pairs the largest miss was 0.006.
FIT_TOL = 0.015
#: the program predicts at the fit's cutoff, the reference without one
RESIDUAL_TOL = 1e-4
#: the pair sampled from this seed makes Nelder-Mead stop at 3.5 times the
#: summed TVD of the true parameters
STALL_SEED = (28, 77)
STALL_FAULT = ("fit_source reports convergence at a point whose summed TVD is several times "
               "that at the true parameters")


# ---------------------------------------------------------------------------
# spectra
# ---------------------------------------------------------------------------


#: truncation at the cutoffs used here moves a mean photon number by up to
#: about 2e-5; a misplaced probability of 1e-5 moves the total by as much
MEAN_TOL = 2e-4


def _check_table(probs: dict, mean, v, *, undisplaced: bool, pure: bool, where: str) -> None:
    modes = v.shape[0] // 2
    _close(f"{where} vacuum probability", probs.get((0,) * modes, 0.0),
           ref.vacuum_probability(mean, v), 1e-7)
    if pure:  # a unitary replay keeps all probability inside the cutoff
        _close(f"{where} total probability", sum(probs.values()), 1.0, 1e-8)
    got = ref.table_means(probs, modes)
    want = ref.mean_photons(mean, v)
    for i in range(modes):
        _close(f"{where} mean photons of mode {i + 1}", float(got[i]), float(want[i]), MEAN_TOL)
    if undisplaced:
        odd = max((p for o, p in probs.items() if sum(o) % 2), default=0.0)
        if odd > 1e-12:
            raise WrongOutput(f"{where} puts {odd:.3g} on an odd photon total")


def _check_spectra(cfg: dict, out: Path) -> Callable:
    target = cfg["target"]
    mean, v_t, freqs = target_moments(target)
    undisplaced = not np.any(mean)
    two_mode = v_t.shape[0] == 4
    exp = cfg.get("experiment")

    def check(result) -> None:
        (rc_ideal, err_ideal), sim, stats_target, stats_model = result
        _expect_exit(rc_ideal, 0, err_ideal)
        rows = ref.read_table_csv(out / "ideal/ideal_table.csv")
        for outcome, (freq, _) in rows.items():
            _close("peak frequency", freq, float(np.dot(outcome, freqs)), 1e-9 * max(1.0, freq))
        ideal = {o: p for o, (_, p) in rows.items()}
        summary = json.loads((out / "ideal/ideal_summary.json").read_text())
        if summary["converged"] is not True:
            raise WrongOutput("ideal table reports no convergence")
        _close("summary vacuum probability", summary["vacuum_probability"],
               ref.vacuum_probability(mean, v_t), 1e-7)
        _check_table(ideal, mean, v_t, undisplaced=undisplaced, pure=True, where="ideal table")
        if target["kind"] == "tropolone":
            _check_tropolone(ideal)
        target_probs = dict(stats_target.entries)
        _check_table(target_probs, mean, v_t, undisplaced=undisplaced, pure=True,
                     where="gaussian_statistics(target)")
        if not two_mode:
            return
        rc_sim, err_sim = sim
        _expect_exit(rc_sim, 0, err_sim)
        v_m = _model_cov(exp)
        zero = np.zeros(4)
        _check_table(dict(stats_model.entries), zero, v_m, undisplaced=False, pure=False,
                     where="gaussian_statistics(model)")
        _check_simulate(out / "sim", exp, mean, v_t, v_m, cfg["eps_g"])

    return check


def _check_tropolone(ideal: dict) -> None:
    tables = json.loads((FIXTURES / "reference_tables.json").read_text())
    for outcome, want in zip(tables["outcomes"], tables["ideal"]):
        tol = 0.001 if tuple(outcome) == (0, 2) else 0.002
        _close(f"tropolone P{tuple(outcome)} vs the paper", ideal.get(tuple(outcome), 0.0),
               want, tol)


def _check_simulate(out: Path, exp: dict, mean, v_t, v_m, eps_g: float) -> None:
    det = exp["detector"]
    factor = det["noise_fidelity_factor"]
    report = json.loads((out / "simulate_report.json").read_text())
    f = factor * float(ref.pure_fidelity(v_m, v_t, mean))
    _close("simulate fidelity", report["fidelity"], f, 1e-9)
    _close("fidelity bound", report["fidelity_bound"], math.sqrt(max(0.0, 1 - f * f)), 1e-9)
    _close("total error", report["total"],
           report["fidelity_bound"] + report["eps_stat"] + report["eps_g"], 1e-12)
    _close("eps_g", report["eps_g"], eps_g, 0.0)
    cf = ref.classical_fidelity(v_t)
    bench = report["classical_benchmark"]
    _close("classical fidelity", bench["classical_fidelity"], cf, 1e-9)
    _close("classical bound", bench["classical_bound"], math.sqrt(1 - cf * cf), 1e-9)
    if report["witness"]["passes"] != (report["fidelity"] > cf):
        raise WrongOutput("witness verdict disagrees with the fidelities")
    rows = ref.read_table_csv(out / "observed.csv")
    observed = {o: p for o, (_, p) in rows.items()}
    noise = ref.noise_mean(det["dark_p1"], det["pump_p2"])
    got = ref.table_means(observed, 2)
    want = ref.mean_photons(np.zeros(4), v_m) + noise
    for i in range(2):
        _close(f"observed mean counts of mode {i + 1}", float(got[i]), float(want[i]), MEAN_TOL)
    k0 = ref.noise_kernel(det["dark_p1"], det["pump_p2"])[0]
    p00 = ref.vacuum_probability(np.zeros(4), v_m) * k0 * k0
    _close("observed P(0,0)", observed.get((0, 0), 0.0), p00, 1e-7)
    lower = abs(p00 - ref.vacuum_probability(mean, v_t))
    if not lower - 1e-7 <= report["tvd_to_ideal"] <= 1.0:
        raise WrongOutput(f"tvd_to_ideal {report['tvd_to_ideal']!r} below the P(0,0) gap {lower!r}")
    if not 0.0 < report["eps_stat"] < 0.05:
        raise WrongOutput(f"eps_stat {report['eps_stat']!r} out of range")


def spectra(seed: int, work: Path) -> list[Op]:
    """A few large replays: two-mode targets at cutoffs 20-30 with the
    experiment simulated beside them, and three-mode transitions."""
    # called through their modules, so that a traced round sees the wrappers
    from vibsim import cli, experiment, vibronic

    rng = np.random.default_rng([seed, 3])
    # every round holds the same cutoffs, so the seed moves the targets and
    # the experiment but not the size of the replays; the source alternates
    # with the cutoff rather than with the target
    plan = []
    for k, (cutoff, count) in enumerate(SPECTRA_CUTOFFS_2M.items()):
        kinds = rng.permutation(["tropolone", "optical", "displaced", "displaced"])
        for j in range(count):
            kind = kinds[j % len(kinds)]
            target = ({"kind": "tropolone"} if kind == "tropolone"
                      else _optical_target(rng, kind == "displaced"))
            plan.append((target, cutoff, "tmsv" if k % 2 == 0 else "smsv"))
    for k, cutoff in enumerate(SPECTRA_CUTOFFS_3M):
        plan.append((_transition(rng, k % 2 == 1), cutoff, None))
    ops: list[Op] = []
    for idx, (target, cutoff, source) in enumerate(plan):
        cfg = {"version": 1, "target": target, "cutoff": cutoff,
               "seed": int(rng.integers(1 << 30))}
        if source is not None:
            # a squeezer above r = 0.65 leaves more than 1e-6 of probability
            # beyond cutoff 24, and simulate rightly stops with exit 3
            cfg["experiment"] = _experiment(rng, source, r1_max=0.65)
            cfg["shots"] = int(rng.integers(200_000, 2_000_000))
            cfg["eps_g"] = float(rng.uniform(0.0, 0.002))
        path = _write_config(work / f"in/{idx}/config.json", cfg)
        out = work / f"out/{idx}"
        base = ["--config", str(path), "--out-dir"]

        def run(path=path, base=base, out=out, cutoff=cutoff, two_mode=source is not None):
            ideal = call_cli(base + [str(out / "ideal"), "ideal"])
            sim = call_cli(base + [str(out / "sim"), "simulate"]) if two_mode else None
            loaded = cli.load_config(path)
            stats_target = vibronic.gaussian_statistics(loaded["target"].state(), cutoff)
            stats_model = (vibronic.gaussian_statistics(
                experiment.effective_state(loaded["experiment"]), cutoff) if two_mode else None)
            return ideal, sim, stats_target, stats_model

        ops.append(Op("spectra", f"spectra {target['kind']} c{cutoff}", run,
                      _check_spectra(cfg, out)))
    return ops


WORKLOADS = {"design": design, "tomography": tomography, "spectra": spectra}
