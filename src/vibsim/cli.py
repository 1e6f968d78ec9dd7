"""Command-line front end.

Every command reads a declarative JSON config, writes CSV/JSON artifacts
into ``--out-dir``, and is deterministic for a fixed (config, seed) pair.
Exit codes: 0 success, 2 input error, 3 convergence or physicality failure.
"""

from __future__ import annotations

import argparse
import cmath
import json
import math
import sys
from dataclasses import asdict
from pathlib import Path

import numpy as np

from . import fixtures, fock, metrics, sampler
from .calibrate import HistogramFormatError, fit_source, read_histogram_csv
from .experiment import (
    DetectorModel,
    ExperimentModel,
    ParameterUncertainty,
    SMSVPair,
    TMSV,
    model_fidelity,
    observed_distribution,
)
from .gaussian import BeamSplitter, PhysicalityError
from .optimize import DEFAULT_BOUNDS, loss_sweep, monte_carlo_fidelity, optimize_experiment
from .tables import FCTable, is_sink
from .vibronic import OpticalTarget, VibronicTransition, doktorov_decompose, fc_factors, spectrum

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_CONVERGENCE = 3

CONFIG_VERSION = 1


class ConfigError(ValueError):
    pass


# ---------------------------------------------------------------------------
# config parsing
# ---------------------------------------------------------------------------


def _check_keys(obj: dict, where: str, required: set[str], optional: set[str]) -> None:
    if not isinstance(obj, dict):
        raise ConfigError(f"{where} must be an object")
    unknown = set(obj) - required - optional
    if unknown:
        raise ConfigError(f"unknown field(s) in {where}: {', '.join(sorted(unknown))}")
    missing = required - set(obj)
    if missing:
        raise ConfigError(f"missing field(s) in {where}: {', '.join(sorted(missing))}")


def _parse_target(obj: dict) -> tuple[OpticalTarget, tuple[float, ...] | None]:
    _check_keys(obj, "target", {"kind"}, {
        "squeeze", "bs_angle", "displacement", "excited_freqs_cm1",
        "duschinsky", "ground_freqs_cm1",
    })
    kind = obj["kind"]
    if kind == "tropolone":
        return fixtures.tropolone_target(), fixtures.tropolone_excited_freqs()
    if kind == "optical":
        squeeze = tuple(float(r) for r in obj["squeeze"])
        if not all(math.isfinite(r) for r in squeeze):
            raise ConfigError("target squeeze values must be finite")
        interferometer = ()
        if "bs_angle" in obj:
            if len(squeeze) != 2:
                raise ConfigError("bs_angle applies to two-mode targets only")
            interferometer = (BeamSplitter(0, 1, float(obj["bs_angle"])),)
        disp = tuple(complex(d[0], d[1]) for d in obj.get("displacement", []))
        if not all(cmath.isfinite(a) for a in disp):
            raise ConfigError("target displacement values must be finite")
        target = OpticalTarget(squeeze, interferometer, disp)
        freqs = obj.get("excited_freqs_cm1")
        return target, tuple(freqs) if freqs else None
    if kind == "transition":
        disp = obj.get("displacement")
        transition = VibronicTransition(
            duschinsky=np.array(obj["duschinsky"], dtype=float),
            ground_freqs=np.array(obj["ground_freqs_cm1"], dtype=float),
            excited_freqs=np.array(obj["excited_freqs_cm1"], dtype=float),
            displacement=np.array(disp, dtype=float) if disp else None,
        )
        return doktorov_decompose(transition), tuple(obj["excited_freqs_cm1"])
    raise ConfigError(f"unknown target kind {kind!r}")


def _parse_experiment(obj: dict) -> ExperimentModel:
    _check_keys(obj, "experiment", {"source", "bs_transmission"}, {
        "loss_pre", "loss_post", "distinguishability", "detector",
    })
    src = obj["source"]
    _check_keys(src, "experiment.source", {"kind"}, {"r", "r1", "r2"})
    if src["kind"] == "tmsv":
        source = TMSV(float(src["r"]))
    elif src["kind"] == "smsv_pair":
        source = SMSVPair(float(src["r1"]), float(src["r2"]))
    else:
        raise ConfigError(f"unknown source kind {src['kind']!r}")
    det_obj = obj.get("detector", {})
    _check_keys(det_obj, "experiment.detector", set(), {
        "dark_p1", "pump_p2", "noise_fidelity_factor",
    })
    return ExperimentModel(
        source=source,
        bs_transmission=float(obj["bs_transmission"]),
        loss_pre=tuple(obj.get("loss_pre", (1.0, 1.0))),
        loss_post=tuple(obj.get("loss_post", (1.0, 1.0))),
        distinguishability=float(obj.get("distinguishability", 0.0)),
        detector=DetectorModel(**det_obj),
    )


def load_config(path: Path) -> dict:
    try:
        raw = json.loads(Path(path).read_text())
    except FileNotFoundError:
        raise ConfigError(f"config file not found: {path}") from None
    except ValueError as exc:
        # malformed JSON or text that is not UTF-8
        raise ConfigError(f"invalid JSON in {path}: {exc}") from None
    try:
        return _parse_config(raw)
    except ConfigError:
        raise
    except KeyError as exc:
        raise ConfigError(f"missing field {exc} in {path}") from None
    except (TypeError, ValueError, OverflowError) as exc:
        # wrong types and out-of-range values, from parsing or a model constructor
        raise ConfigError(f"invalid config {path}: {exc}") from None


def _parse_config(raw: dict) -> dict:
    _check_keys(raw, "config", {"version"}, {
        "target", "experiment", "uncertainties", "cutoff", "shots", "seed",
        "eps_g", "monte_carlo_samples",
    })
    if raw["version"] != CONFIG_VERSION:
        raise ConfigError(f"unsupported config version {raw['version']!r}")
    cfg = {
        "cutoff": int(raw.get("cutoff", 20)),
        "shots": int(raw.get("shots", 0)),
        "seed": int(raw.get("seed", 7)),
        "eps_g": float(raw.get("eps_g", 0.0)),
        "monte_carlo_samples": int(raw.get("monte_carlo_samples", 100)),
    }
    if cfg["cutoff"] < 2:
        raise ConfigError("cutoff must be at least 2")
    if "target" in raw:
        cfg["target"], cfg["excited_freqs"] = _parse_target(raw["target"])
    if "experiment" in raw:
        cfg["experiment"] = _parse_experiment(raw["experiment"])
    unc_obj = raw.get("uncertainties", {})
    _check_keys(unc_obj, "uncertainties", set(), {
        "sigma_loss", "sigma_r", "sigma_delta", "sigma_t",
    })
    cfg["uncertainties"] = ParameterUncertainty(**unc_obj)
    return cfg


# ---------------------------------------------------------------------------
# output helpers
# ---------------------------------------------------------------------------


def _write_json(path: Path, payload: dict) -> None:
    path.write_text(json.dumps(payload, sort_keys=True, indent=2) + "\n")


def _fmt(x: float) -> str:
    return f"{x:.12g}"


def _write_table_csv(path: Path, table: FCTable, freqs: tuple[float, ...] | None) -> None:
    modes = table.num_modes
    header = [f"m{i + 1}" for i in range(modes)] + ["frequency_cm1", "probability"]
    lines = [",".join(header)]
    for outcome, p in table.items():
        if is_sink(outcome):
            continue
        freq = float(np.dot(outcome, freqs)) if freqs else 0.0
        lines.append(",".join([*(str(m) for m in outcome), _fmt(freq), _fmt(p)]))
    path.write_text("\n".join(lines) + "\n")


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------


def cmd_ideal(cfg: dict, out_dir: Path) -> int:
    target: OpticalTarget = cfg["target"]
    cutoff = cfg["cutoff"]
    rho = fock.replay_fock(target.circuit(), cutoff, strict=False)
    table = fock.photon_distribution(rho)
    freqs = cfg.get("excited_freqs")
    summary = {
        "cutoff": cutoff,
        "tail_mass": rho.tail_mass,
        "boundary_mass": rho.boundary_mass(),
        "converged": rho.converged(),
        "vacuum_probability": table.probability((0,) * target.num_modes),
    }
    if freqs:
        summary["peaks"] = [
            {"frequency_cm1": f, "intensity": i}
            for f, i in spectrum(table, freqs).peaks
            if i > 1e-9
        ]
    _write_table_csv(out_dir / "ideal_table.csv", table, freqs)
    if not rho.converged():
        summary["tail_mass"] = rho.tail_mass + rho.boundary_mass()
        _write_json(out_dir / "ideal_summary.json", summary)
        print(f"cutoff {cutoff} has not converged; raise it", file=sys.stderr)
        return EXIT_CONVERGENCE
    _write_json(out_dir / "ideal_summary.json", summary)
    return EXIT_OK


def cmd_simulate(cfg: dict, out_dir: Path) -> int:
    target: OpticalTarget = cfg["target"]
    model: ExperimentModel = cfg["experiment"]
    cutoff, seed = cfg["cutoff"], cfg["seed"]
    observed = observed_distribution(model, cutoff)
    ideal = fc_factors(target, cutoff)
    f = model_fidelity(model, target)
    mc = monte_carlo_fidelity(
        model, target, cfg["uncertainties"], n=cfg["monte_carlo_samples"], seed=seed
    )
    eps_stat = 0.0
    if cfg["shots"] > 0:
        hist = sampler.sample(observed, cfg["shots"], seed)
        eps_stat = sampler.estimate_fc(hist, seed=seed).eps_stat
    budget = metrics.total_bound(f, eps_stat, cfg["eps_g"])
    bench = metrics.closest_classical(target)
    wit = metrics.witness(f, max(mc.std, 1e-12), bench)
    report = {
        "fidelity": budget.fidelity,
        "fidelity_bound": budget.fidelity_bound,
        "fidelity_mc_mean": mc.mean,
        "fidelity_mc_std": mc.std,
        "eps_stat": budget.eps_stat,
        "eps_g": budget.eps_g,
        "total": budget.total,
        "tvd_to_ideal": metrics.tvd(observed, ideal),
        "classical_benchmark": {
            "classical_fidelity": bench.classical_fidelity,
            "classical_bound": bench.classical_bound,
        },
        "witness": {"passes": wit.passes, "margin_sigmas": wit.margin_sigmas},
    }
    _write_table_csv(out_dir / "observed.csv", observed, cfg.get("excited_freqs"))
    _write_json(out_dir / "simulate_report.json", report)
    return EXIT_OK


def experiment_section(model: ExperimentModel) -> dict:
    """Config-format section describing a model (inverse of parsing)."""
    if isinstance(model.source, TMSV):
        source = {"kind": "tmsv", "r": model.source.r}
    else:
        source = {"kind": "smsv_pair", "r1": model.source.r1, "r2": model.source.r2}
    return {
        "source": source,
        "bs_transmission": model.bs_transmission,
        "loss_pre": list(model.loss_pre),
        "loss_post": list(model.loss_post),
        "distinguishability": model.distinguishability,
        "detector": {
            "dark_p1": model.detector.dark_p1,
            "pump_p2": model.detector.pump_p2,
            "noise_fidelity_factor": model.detector.noise_fidelity_factor,
        },
    }


def _check_start(what: str, value: float, name: str) -> None:
    """Reject an optimiser start outside ``DEFAULT_BOUNDS[name]``."""
    lo, hi = DEFAULT_BOUNDS[name]
    if not lo <= value <= hi:
        raise ConfigError(
            f"the optimiser starts from {what} = {value}, outside its bound [{lo}, {hi}]"
        )


def cmd_optimize(cfg: dict, out_dir: Path) -> int:
    target: OpticalTarget = cfg["target"]
    template: ExperimentModel = cfg["experiment"]
    for name, value in asdict(template.source).items():
        _check_start(f"the experiment's {name}", value, name)
    best, f_star = optimize_experiment(template, target)
    mc = monte_carlo_fidelity(
        best, target, cfg["uncertainties"], n=cfg["monte_carlo_samples"], seed=cfg["seed"]
    )
    payload = {
        "t_star": best.bs_transmission,
        "f_star": f_star,
        "f_mc_mean": mc.mean,
        "f_mc_std": mc.std,
        "clamp_events": mc.clamp_events,
        "experiment": experiment_section(best),
    }
    if isinstance(best.source, TMSV):
        payload["r_star"] = best.source.r
    else:
        payload["r1_star"] = best.source.r1
        payload["r2_star"] = best.source.r2
    _write_json(out_dir / "optimize_result.json", payload)
    return EXIT_OK


def _parse_grid(spec: str) -> list[float]:
    if ":" in spec:
        parts = spec.split(":")
        if len(parts) != 3:
            raise ConfigError("grid must be 'start:stop:count' or a comma list")
        start, stop, count = float(parts[0]), float(parts[1]), int(parts[2])
        if count < 2:
            raise ConfigError("grid needs at least two points")
        return list(np.linspace(start, stop, count))
    return [float(v) for v in spec.split(",") if v.strip()]


def cmd_sweep_loss(cfg: dict, out_dir: Path, grid: list[float]) -> int:
    target: OpticalTarget = cfg["target"]
    if any(not 0.0 <= g < 1.0 for g in grid):
        raise ConfigError("loss grid values must lie in [0, 1)")
    for i, r in enumerate(target.squeeze):
        # the SMSV fits start from the target's squeezing
        _check_start(f"|target squeeze[{i}]|", abs(r), f"r{i + 1}")
    detector = cfg["experiment"].detector if "experiment" in cfg else DetectorModel()
    delta = cfg["experiment"].distinguishability if "experiment" in cfg else 0.06
    threshold = metrics.closest_classical(target).classical_fidelity
    losses = sorted(grid)
    curves = loss_sweep(target, losses, detector, delta)
    lines = ["loss,f_smsv,f_smsv_noisydet,f_tmsv,f_tmsv_dist,classical_threshold"]
    for row in zip(losses, *curves.values()):
        lines.append(",".join(_fmt(v) for v in (*row, threshold)))
    (out_dir / "loss_sweep.csv").write_text("\n".join(lines) + "\n")
    return EXIT_OK


def cmd_tomography(cfg: dict, out_dir: Path, transmissive: Path, reflective: Path) -> int:
    detector = cfg["experiment"].detector if "experiment" in cfg else DetectorModel()
    hist_t = read_histogram_csv(transmissive)
    hist_r = read_histogram_csv(reflective)
    fit = fit_source(hist_t, hist_r, detector, cutoff=min(cfg["cutoff"], 14))
    payload = {
        "r": fit.r,
        "eta": list(fit.eta),
        "residual_tvd": fit.residual_tvd,
        "converged": fit.converged,
        "iterations": fit.iterations,
    }
    _write_json(out_dir / "tomography_fit.json", payload)
    return EXIT_OK if fit.converged else EXIT_CONVERGENCE


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="vibsim",
        description="Simulate and analyse squeezed-light estimation of vibronic spectra",
    )
    parser.add_argument("--config", required=True, help="JSON run configuration")
    parser.add_argument("--out-dir", default=".", help="output directory")
    parser.add_argument("--cutoff", type=int, help="override the config cutoff")
    parser.add_argument("--seed", type=int, help="override the config seed")
    sub = parser.add_subparsers(dest="command", required=True)
    sub.add_parser("ideal", help="ideal Franck-Condon table and spectrum")
    sub.add_parser("simulate", help="observed distribution and error budget")
    sub.add_parser("optimize", help="best controllable parameters")
    sweep = sub.add_parser("sweep-loss", help="fidelity-vs-loss curves")
    sweep.add_argument("--grid", default="0:0.95:20", help="'start:stop:count' or comma list")
    tomo = sub.add_parser("tomography", help="fit source parameters from histograms")
    tomo.add_argument("transmissive", help="histogram CSV at the 100:0 setting")
    tomo.add_argument("reflective", help="histogram CSV at the 0:100 setting")
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        cfg = load_config(Path(args.config))
        if args.cutoff is not None:
            if args.cutoff < 2:
                raise ConfigError("cutoff must be at least 2")
            cfg["cutoff"] = args.cutoff
        if args.seed is not None:
            cfg["seed"] = args.seed
        out_dir = Path(args.out_dir)
        out_dir.mkdir(parents=True, exist_ok=True)
        if args.command == "ideal":
            _require(cfg, "target")
            return cmd_ideal(cfg, out_dir)
        if args.command == "simulate":
            _require(cfg, "target", "experiment")
            _require_two_modes(cfg)
            return cmd_simulate(cfg, out_dir)
        if args.command == "optimize":
            _require(cfg, "target", "experiment")
            _require_two_modes(cfg)
            return cmd_optimize(cfg, out_dir)
        if args.command == "sweep-loss":
            _require(cfg, "target")
            _require_two_modes(cfg)
            return cmd_sweep_loss(cfg, out_dir, _parse_grid(args.grid))
        if args.command == "tomography":
            return cmd_tomography(cfg, out_dir, Path(args.transmissive), Path(args.reflective))
        raise ConfigError(f"unknown command {args.command!r}")
    except (ConfigError, HistogramFormatError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except (fock.TruncationError, PhysicalityError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONVERGENCE


def _require(cfg: dict, *sections: str) -> None:
    for section in sections:
        if section not in cfg:
            raise ConfigError(f"this command needs a '{section}' section in the config")


def _require_two_modes(cfg: dict) -> None:
    modes = cfg["target"].num_modes
    if modes != 2:
        raise ConfigError(
            f"this command models a two-mode experiment; the target has {modes} modes"
        )


if __name__ == "__main__":
    sys.exit(main())
