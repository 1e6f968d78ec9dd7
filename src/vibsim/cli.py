"""Command-line front end.

Every command reads a declarative JSON config, writes CSV/JSON artifacts
into ``--out-dir``, and is deterministic for a fixed (config, seed) pair.
Exit codes: 0 success, 2 input error, 3 convergence or physicality failure.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import asdict, fields
from pathlib import Path

import numpy as np

from . import fixtures, fock, metrics, sampler
from .calibrate import HistogramFormatError, fit_source, read_histogram_csv
from .experiment import (
    DetectorModel,
    ExperimentModel,
    ParameterUncertainty,
    check_keys,
    experiment_section,
    model_fidelity,
    observed_distribution,
    parse_experiment,
    parse_target,
)
from .gaussian import PHYSICALITY_TOL, PhysicalityError, symplectic_eigenvalues
from .optimize import (DEFAULT_BOUNDS, MONTE_CARLO_BYTES_PER_DRAW, MonteCarloResult, _optimum,
                       loss_sweep, monte_carlo_fidelity)
from .tables import FCTable, is_sink
from .vibronic import OpticalTarget, fc_factors, spectrum

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_CONVERGENCE = 3

CONFIG_VERSION = 1

#: distinguishability of ``sweep-loss``'s f_tmsv_dist curve without an ``experiment`` section
SWEEP_DELTA = 0.06
#: largest cutoff below which a tomography fit pools the counts
MAX_FIT_CUTOFF = 14


class ConfigError(ValueError):
    pass


# ---------------------------------------------------------------------------
# config parsing
# ---------------------------------------------------------------------------


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
    except (TypeError, ValueError, OverflowError) as exc:
        # wrong types and out-of-range values, from parsing or a model constructor
        raise ConfigError(f"invalid config {path}: {exc}") from None


def _parse_config(raw: dict) -> dict:
    check_keys(raw, "config", {"version"}, {
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
    _check_run(cfg)
    if not 0.0 <= cfg["eps_g"] < math.inf:
        raise ConfigError("eps_g must be finite and >= 0")
    samples = cfg["monte_carlo_samples"]
    if samples < 2:
        raise ConfigError("monte_carlo_samples must be at least 2")
    fock._refuse_beyond_memory(f"monte_carlo_samples = {samples}",
                               MONTE_CARLO_BYTES_PER_DRAW * samples)
    if cfg["shots"] >= 2**63:
        # numpy's multinomial draws take a 64-bit signed count
        raise ConfigError(f"shots = {cfg['shots']} lies beyond the 64-bit integer range")
    if "target" in raw:
        target = raw["target"]
        if isinstance(target, dict) and target.get("kind") == "tropolone":
            # the bundled scenario stands for its optical section
            check_keys(target, "the tropolone target", {"kind"}, set())
            target = fixtures.tropolone_section()
        cfg["target"], cfg["excited_freqs"] = parse_target(target)
    if "experiment" in raw:
        cfg["experiment"] = parse_experiment(raw["experiment"])
    cfg["detector"] = cfg["experiment"].detector if "experiment" in cfg else DetectorModel()
    unc_obj = raw.get("uncertainties", {})
    check_keys(unc_obj, "uncertainties", set(), {f.name for f in fields(ParameterUncertainty)})
    cfg["uncertainties"] = ParameterUncertainty(**unc_obj)
    return cfg


def _check_run(cfg: dict) -> None:
    """Check the run fields that ``--cutoff`` and ``--seed`` override."""
    if cfg["cutoff"] < 2:
        raise ConfigError("cutoff must be at least 2")
    if cfg["seed"] < 0:
        raise ConfigError("seed must be >= 0")


# ---------------------------------------------------------------------------
# output helpers
# ---------------------------------------------------------------------------


def _write_json(path: Path, payload: dict) -> None:
    path.write_text(json.dumps(payload, sort_keys=True, indent=2, allow_nan=False) + "\n")


def _write_csv(path: Path, header: list[str], rows) -> None:
    """Write ``rows`` of integers and floats, the floats to 12 significant
    digits; a non-finite float is refused before the file is opened."""
    lines = [",".join(header)]
    for row in rows:
        if not all(math.isfinite(v) for v in row):
            raise ValueError(f"non-finite number in a row of {path.name}: {row}")
        lines.append(",".join(f"{v:.12g}" if isinstance(v, float) else str(v) for v in row))
    path.write_text("\n".join(lines) + "\n")


def _write_table_csv(path: Path, table: FCTable, freqs: tuple[float, ...] | None) -> None:
    header = [f"m{i + 1}" for i in range(table.num_modes)] + ["frequency_cm1", "probability"]
    rows = [(*outcome, float(np.dot(outcome, freqs)) if freqs else 0.0, p)
            for outcome, p in table.items() if not is_sink(outcome)]
    _write_csv(path, header, rows)


def _check_freqs(freqs: tuple[float, ...] | None, largest: int) -> None:
    """Refuse excited frequencies whose sum over an outcome of up to
    ``largest`` photons per mode overflows, as a table or a spectrum sums
    them: the outcome (largest, ..., largest) bounds every such sum."""
    if not freqs:
        return
    with np.errstate(over="ignore"):
        top = float(np.dot((largest,) * len(freqs), np.abs(freqs)))
    if not math.isfinite(top):
        raise ConfigError(f"excited_freqs_cm1 {list(freqs)} overflow the frequency of an "
                          f"outcome of up to {largest} photons per mode")


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------


def cmd_ideal(cfg: dict, out_dir: Path, args: argparse.Namespace) -> int:
    target: OpticalTarget = cfg["target"]
    cutoff, freqs = cfg["cutoff"], cfg.get("excited_freqs")
    # the replay's memory guard refuses first a cutoff past the float range
    rho = fock.replay_fock(target.circuit(), cutoff, strict=False)
    _check_freqs(freqs, cutoff - 1)
    table = fock.photon_distribution(rho)
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
    if not summary["converged"]:
        summary["tail_mass"] = rho.tail_mass + rho.boundary_mass()
        print(f"cutoff {cutoff} has not converged; raise it", file=sys.stderr)
    _write_json(out_dir / "ideal_summary.json", summary)
    return EXIT_OK if summary["converged"] else EXIT_CONVERGENCE


def _monte_carlo(model: ExperimentModel, target: OpticalTarget, cfg: dict) -> MonteCarloResult:
    """:func:`monte_carlo_fidelity` of the config's uncertainties; draws that
    it cannot evaluate are the config's error."""
    try:
        return monte_carlo_fidelity(model, target, cfg["uncertainties"],
                                    n=cfg["monte_carlo_samples"], seed=cfg["seed"])
    except ValueError as exc:
        raise ConfigError(str(exc)) from None


def cmd_simulate(cfg: dict, out_dir: Path, args: argparse.Namespace) -> int:
    target: OpticalTarget = cfg["target"]
    model: ExperimentModel = cfg["experiment"]
    cutoff, seed = cfg["cutoff"], cfg["seed"]
    # first: it reads nothing of the replay, and refuses its draws before any Fock cost
    mc = _monte_carlo(model, target, cfg)
    observed = observed_distribution(model, cutoff)
    # the detector noise lengthens each axis by the kernel's length less one
    _check_freqs(cfg.get("excited_freqs"), cutoff + fock.noise_kernel(model.detector).size - 2)
    ideal = fc_factors(target, cutoff)
    f = model_fidelity(model, target)
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


def _check_start(what: str, value: float, name: str) -> None:
    """Reject an optimiser start outside ``DEFAULT_BOUNDS[name]``."""
    lo, hi = DEFAULT_BOUNDS[name]
    if not lo <= value <= hi:
        raise ConfigError(
            f"the optimiser starts from {what} = {value}, outside its bound [{lo}, {hi}]"
        )


def cmd_optimize(cfg: dict, out_dir: Path, args: argparse.Namespace) -> int:
    target: OpticalTarget = cfg["target"]
    template: ExperimentModel = cfg["experiment"]
    for name, value in asdict(template.source).items():
        _check_start(f"the experiment's {name}", value, name)
    # a target is pure by construction; past float64's precision its state is not
    drift = float(np.max(np.abs(symplectic_eigenvalues(target.state()) - 0.5)))
    if not drift <= PHYSICALITY_TOL:
        raise ConfigError(
            f"the target's squeezing is too large for float64: a symplectic eigenvalue of its "
            f"state lies {drift:.2e} from the pure state's 1/2, past {PHYSICALITY_TOL:g}"
        )
    best, result = _optimum(template, target)
    mc = _monte_carlo(best, target, cfg)
    payload = {
        "t_star": best.bs_transmission,
        "f_star": result.value,
        "f_mc_mean": mc.mean,
        "f_mc_std": mc.std,
        "clamp_events": mc.clamp_events,
        "experiment": experiment_section(best),
        **{f"{name}_star": value for name, value in asdict(best.source).items()},
    }
    _write_json(out_dir / "optimize_result.json", payload)
    if not result.converged:
        print(f"error: the optimiser did not converge: neither its run nor its restart shrank "
              f"the simplex to the tolerance (the better stopped after {result.iterations} "
              f"iterations); optimize_result.json holds the best point found", file=sys.stderr)
        return EXIT_CONVERGENCE
    return EXIT_OK


def _parse_grid(spec: str) -> np.ndarray:
    try:
        if ":" not in spec:
            points = [float(v) for v in spec.split(",") if v.strip()]
            if not points:
                raise ValueError("empty comma list")
            return np.array(points)
        start, stop, count = spec.split(":")
        start, stop, count = float(start), float(stop), int(count)
    except ValueError:
        raise ConfigError("grid must be 'start:stop:count' or a comma list") from None
    if count < 2:
        raise ConfigError("grid needs at least two points")
    # past the float range, 8.0 * count overflows: no memory holds such a grid
    need = 8.0 * count if count < sys.float_info.max / 8.0 else math.inf
    fock._refuse_beyond_memory(f"a grid of {count} points", need)
    return np.linspace(start, stop, count)


def cmd_sweep_loss(cfg: dict, out_dir: Path, args: argparse.Namespace) -> int:
    target: OpticalTarget = cfg["target"]
    losses = np.sort(_parse_grid(args.grid))
    if any(not 0.0 <= g < 1.0 for g in losses):
        raise ConfigError("loss grid values must lie in [0, 1)")
    for i, r in enumerate(target.squeeze):
        # the SMSV fits start from the target's squeezing
        _check_start(f"|target squeeze[{i}]|", abs(r), f"r{i + 1}")
    delta = cfg["experiment"].distinguishability if "experiment" in cfg else SWEEP_DELTA
    threshold = metrics.closest_classical(target).classical_fidelity
    curves = loss_sweep(target, losses, cfg["detector"], delta)
    rows = [(*row, threshold) for row in zip(losses, *curves.values())]
    _write_csv(out_dir / "loss_sweep.csv", ["loss", *curves, "classical_threshold"], rows)
    return EXIT_OK


def cmd_tomography(cfg: dict, out_dir: Path, args: argparse.Namespace) -> int:
    hist_t = read_histogram_csv(Path(args.transmissive))
    hist_r = read_histogram_csv(Path(args.reflective))
    fit = fit_source(hist_t, hist_r, cfg["detector"], cutoff=min(cfg["cutoff"], MAX_FIT_CUTOFF))
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

    def command(name, run, help, needs=(), two_modes=False):
        """A subcommand: its function, the config sections it needs and
        whether it models a two-mode experiment."""
        cmd = sub.add_parser(name, help=help)
        cmd.set_defaults(run=run, needs=needs, two_modes=two_modes)
        return cmd

    both = ("target", "experiment")
    command("ideal", cmd_ideal, "ideal Franck-Condon table and spectrum", ("target",))
    command("simulate", cmd_simulate, "observed distribution and error budget", both, True)
    command("optimize", cmd_optimize, "best controllable parameters", both, True)
    sweep = command("sweep-loss", cmd_sweep_loss, "fidelity-vs-loss curves", ("target",), True)
    sweep.add_argument("--grid", default="0:0.95:20", help="'start:stop:count' or comma list")
    tomo = command("tomography", cmd_tomography, "fit source parameters from histograms")
    tomo.add_argument("transmissive", help="histogram CSV at the 100:0 setting")
    tomo.add_argument("reflective", help="histogram CSV at the 0:100 setting")
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        cfg = load_config(Path(args.config))
        for name in ("cutoff", "seed"):
            if getattr(args, name) is not None:
                cfg[name] = getattr(args, name)
        _check_run(cfg)
        out_dir = Path(args.out_dir)
        out_dir.mkdir(parents=True, exist_ok=True)
        for section in args.needs:
            if section not in cfg:
                raise ConfigError(f"this command needs a '{section}' section in the config")
        if args.two_modes and cfg["target"].num_modes != 2:
            raise ConfigError(
                "this command models a two-mode experiment; "
                f"the target has {cfg['target'].num_modes} modes"
            )
        return args.run(cfg, out_dir, args)
    except (ConfigError, HistogramFormatError, OSError, fock.FockMemoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except MemoryError as exc:  # an allocation past a guard that memory could not hold
        print("error: out of memory" + (f": {exc}" if str(exc) else ""), file=sys.stderr)
        return EXIT_INPUT
    except (fock.TruncationError, PhysicalityError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONVERGENCE


if __name__ == "__main__":
    sys.exit(main())
