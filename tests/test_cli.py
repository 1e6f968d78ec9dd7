import csv
import json
import math
import os
import subprocess
import sys
import time
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest

from vibsim import cli, fock
from vibsim.calibrate import write_histogram_csv
from vibsim.cli import main
from vibsim.experiment import MAX_COUPLING, DetectorModel
from vibsim.optimize import loss_sweep
from vibsim.tables import CountHistogram
from helpers import sequential_loss_sweep


def write_config(tmp_path, name="config.json", **overrides):
    cfg = {
        "version": 1,
        "target": {"kind": "tropolone"},
        "cutoff": 16,
        "seed": 7,
    }
    cfg.update(overrides)
    path = tmp_path / name
    path.write_text(json.dumps(cfg))
    return path


def paper_experiment_section(r=0.2407, t=0.1939):
    return {
        "source": {"kind": "tmsv", "r": r},
        "bs_transmission": t,
        "loss_pre": [0.4, 0.4],
        "distinguishability": 0.06,
    }


def read_csv_rows(path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def write_histogram_pair(tmp_path, shots=20_000):
    """Sampled counts of both beam-splitter settings; their CSV paths."""
    from vibsim.calibrate import predicted_distribution
    from vibsim.sampler import sample

    paths = [tmp_path / "trans.csv", tmp_path / "refl.csv"]
    for path, t in zip(paths, (1.0, 0.0)):
        table = predicted_distribution(0.3, (0.45, 0.40), t, DetectorModel(), 12)
        write_histogram_csv(sample(table, shots, seed=int(t)), path)
    return [str(p) for p in paths]


#: config fields that are missing, of a wrong type or out of range
MALFORMED = {
    "cutoff-string": {"cutoff": "abc"},
    "inf-cutoff": {"cutoff": math.inf},
    "negative-sigma-r": {"uncertainties": {"sigma_r": -0.01}},
    "string-bs-angle": {"target": {"kind": "optical", "squeeze": [-0.7, 0.2], "bs_angle": "wide"}},
    "dark-p1-above-one": {"experiment": {**paper_experiment_section(), "detector": {"dark_p1": 2}}},
    "negative-frequency": {"target": {
        "kind": "transition", "duschinsky": [[1.0, 0.0], [0.0, 1.0]],
        "ground_freqs_cm1": [100.0, -200.0], "excited_freqs_cm1": [120.0, 180.0]}},
    "nan-squeeze": {"target": {"kind": "optical", "squeeze": [math.nan, 0.2], "bs_angle": 0.3}},
    "nan-bs-angle": {"target": {"kind": "optical", "squeeze": [-0.72, 0.19], "bs_angle": math.nan}},
    "inf-bs-angle": {"target": {"kind": "optical", "squeeze": [-0.72, 0.19], "bs_angle": math.inf}},
    "nan-excited-freq": {"target": {"kind": "optical", "squeeze": [-0.72, 0.19],
                                    "excited_freqs_cm1": [math.nan, 110.0]}},
    "missing-squeeze": {"target": {"kind": "optical"}},
    "nan-tmsv-r": {"experiment": paper_experiment_section(r=math.nan)},
    "inf-tmsv-r": {"experiment": paper_experiment_section(r=math.inf)},
    "nan-smsv-r2": {"experiment": {**paper_experiment_section(),
                                   "source": {"kind": "smsv_pair", "r1": 0.3, "r2": math.nan}}},
    "tmsv-with-r1": {"experiment": {**paper_experiment_section(),
                                    "source": {"kind": "tmsv", "r": 0.3, "r1": 0.2}}},
    "inf-smsv-r1": {"experiment": {**paper_experiment_section(),
                                   "source": {"kind": "smsv_pair", "r1": math.inf, "r2": 0.1}}},
    "nan-displacement": {"target": {"kind": "optical", "squeeze": [-0.7, 0.2], "bs_angle": 0.3,
                                    "displacement": [[math.nan, 0.0], [0.0, 0.0]]}},
    "inf-displacement": {"target": {"kind": "optical", "squeeze": [-0.7, 0.2], "bs_angle": 0.3,
                                    "displacement": [[0.0, 0.0], [0.0, -math.inf]]}},
    "displacement-not-a-pair": {"target": {"kind": "optical", "squeeze": [-0.7, 0.2],
                                           "displacement": [[0.1], [0.0, 0.0]]}},
    "displacement-pair-as-object": {"target": {"kind": "optical", "squeeze": [-0.7, 0.2],
                                               "displacement": [{"re": 0.1, "im": 0.0}, [0, 0]]}},
    "short-excited-freqs": {"target": {"kind": "optical", "squeeze": [-0.7, 0.2],
                                       "excited_freqs_cm1": [176.0]}},
    "string-excited-freqs": {"target": {"kind": "optical", "squeeze": [-0.7, 0.2],
                                        "excited_freqs_cm1": ["a", "b"]}},
    "one-monte-carlo-sample": {"monte_carlo_samples": 1},
    "huge-monte-carlo-samples": {"monte_carlo_samples": 1e12},
    "negative-seed": {"seed": -1},
    "negative-eps-g": {"eps_g": -0.001},
    "nan-eps-g": {"eps_g": math.nan},
    "nan-sigma-r": {"uncertainties": {"sigma_r": math.nan}},
    "nan-transition-displacement": {"target": {
        "kind": "transition", "duschinsky": [[1.0, 0.0], [0.0, 1.0]],
        "ground_freqs_cm1": [100.0, 200.0], "excited_freqs_cm1": [120.0, 180.0],
        "displacement": [math.nan, 0.0]}},
    "tropolone-with-squeeze": {"target": {"kind": "tropolone", "squeeze": [0.1, 0.2]}},
    "target-not-an-object": {"target": ["optical", [-0.7, 0.2]]},
    "optical-with-duschinsky": {"target": {"kind": "optical", "squeeze": [-0.7, 0.2],
                                           "duschinsky": [[1.0, 0.0], [0.0, 1.0]]}},
    "optical-with-ground-freqs": {"target": {"kind": "optical", "squeeze": [-0.7, 0.2],
                                             "ground_freqs_cm1": [100.0, 200.0]}},
    "transition-with-bs-angle": {"target": {
        "kind": "transition", "duschinsky": [[1.0, 0.0], [0.0, 1.0]],
        "ground_freqs_cm1": [100.0, 200.0], "excited_freqs_cm1": [120.0, 180.0],
        "bs_angle": 0.3}},
    # squeezing whose sinh(r)**2 or Fock generator would overflow
    "huge-tmsv-r": {"experiment": paper_experiment_section(r=1e3)},
    "huge-smsv-r1": {"experiment": {**paper_experiment_section(),
                                    "source": {"kind": "smsv_pair", "r1": 1e3, "r2": 0.1}}},
    "huge-squeeze": {"target": {"kind": "optical", "squeeze": [1e3, 0.2], "bs_angle": 0.3}},
    "overflowing-squeeze": {"target": {"kind": "optical", "squeeze": [1e308, 0.2],
                                       "bs_angle": 0.3}},
}
#: the command a case runs, where not ``optimize``: the one its value would overflow in
MALFORMED_COMMAND = {"huge-tmsv-r": "simulate", "huge-smsv-r1": "simulate",
                     "overflowing-squeeze": "ideal"}


class TestConfigValidation:
    def test_unknown_field_rejected(self, tmp_path, capsys):
        path = write_config(tmp_path, typo_field=1)
        assert main(["--config", str(path), "--out-dir", str(tmp_path), "ideal"]) == 2
        assert "typo_field" in capsys.readouterr().err

    def test_missing_file(self, tmp_path):
        assert main(["--config", str(tmp_path / "nope.json"),
                     "--out-dir", str(tmp_path), "ideal"]) == 2

    def test_non_utf8_config(self, tmp_path):
        path = write_config(tmp_path)
        path.write_bytes(b"\xff" + path.read_bytes())
        assert main(["--config", str(path), "--out-dir", str(tmp_path), "ideal"]) == 2

    def test_bad_version(self, tmp_path):
        path = write_config(tmp_path)
        path.write_text(json.dumps({"version": 99, "target": {"kind": "tropolone"}}))
        assert main(["--config", str(path), "--out-dir", str(tmp_path), "ideal"]) == 2

    @pytest.mark.parametrize("command, artefacts", [
        ("ideal", ("ideal_table.csv", "ideal_summary.json")),
        ("simulate", ("observed.csv", "simulate_report.json")),
    ], ids=["ideal", "simulate"])
    def test_tropolone_alias_runs_its_optical_section(self, tmp_path, command, artefacts):
        # the bundled scenario's values, written out
        optical = {"kind": "optical", "squeeze": [-0.72, 0.19], "bs_angle": 0.32946318227368,
                   "excited_freqs_cm1": [176.0, 110.0]}
        written = []
        for name, target in (("alias", {"kind": "tropolone"}), ("optical", optical)):
            path = write_config(tmp_path, f"{name}.json", target=target, shots=2000,
                                experiment=paper_experiment_section())
            out = tmp_path / name
            assert main(["--config", str(path), "--out-dir", str(out), command]) == 0
            written.append([(out / a).read_bytes() for a in artefacts])
        assert written[0] == written[1]

    def test_unknown_target_kind(self, tmp_path):
        path = write_config(tmp_path, target={"kind": "mystery"})
        assert main(["--config", str(path), "--out-dir", str(tmp_path), "ideal"]) == 2

    @pytest.mark.parametrize("name", MALFORMED)
    def test_malformed_value_exits_2(self, tmp_path, capsys, name):
        path = write_config(tmp_path, **{"experiment": paper_experiment_section(),
                                         **MALFORMED[name]})
        command = MALFORMED_COMMAND.get(name, "optimize")
        assert main(["--config", str(path), "--out-dir", str(tmp_path), command]) == 2
        assert "Traceback" not in capsys.readouterr().err

    def test_empty_squeeze_exits_2(self, tmp_path, capsys):
        path = write_config(tmp_path, target={"kind": "optical", "squeeze": []})
        assert main(["--config", str(path), "--out-dir", str(tmp_path), "ideal"]) == 2
        assert "at least one mode" in capsys.readouterr().err

    def test_negative_seed_override_exits_2(self, tmp_path):
        path = write_config(tmp_path, experiment=paper_experiment_section())
        assert main(["--config", str(path), "--out-dir", str(tmp_path), "--seed", "-3",
                     "simulate"]) == 2

    def test_cutoff_override_below_two_exits_2(self, tmp_path, capsys):
        path = write_config(tmp_path)
        assert main(["--config", str(path), "--out-dir", str(tmp_path), "--cutoff", "1",
                     "ideal"]) == 2
        assert "cutoff must be at least 2" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "overrides, argv",
        [
            ({}, ["sweep-loss", "--grid", "abc"]),
            ({}, ["sweep-loss", "--grid", "0:0.9:x"]),
            ({}, ["sweep-loss", "--grid", "0:0.9:1000000000000"]),
            ({}, ["sweep-loss", "--grid", "0:0.9:1" + "0" * 400]),
            ({}, ["sweep-loss", "--grid", ","]),
            ({}, ["sweep-loss", "--grid", " , "]),
            ({}, ["sweep-loss", "--grid", ""]),
            ({"shots": 2**63}, ["simulate"]),
            ({"uncertainties": {"sigma_t": 10**400}}, ["optimize"]),
            ({"uncertainties": {"sigma_loss": 10**400}}, ["optimize"]),
            ({"uncertainties": {"sigma_r": 10**400}}, ["simulate"]),
        ],
        ids=["grid-word", "grid-count-word", "grid-beyond-memory", "grid-count-beyond-float",
             "grid-comma", "grid-blank-commas", "grid-empty", "shots-beyond-int64",
             "sigma-t-beyond-float", "sigma-loss-beyond-float", "sigma-r-beyond-float"],
    )
    def test_out_of_range_run_input_exits_2(self, tmp_path, capsys, overrides, argv):
        path = write_config(tmp_path, cutoff=12, experiment=paper_experiment_section(),
                            **overrides)
        assert main(["--config", str(path), "--out-dir", str(tmp_path), *argv]) == 2
        assert "Traceback" not in capsys.readouterr().err

    def test_transition_frequencies_as_numerals(self, tmp_path, capsys):
        # numerals parse as the numbers they spell, as everywhere in the config
        target = {"kind": "transition", "duschinsky": [[1.0, 0.0], [0.0, 1.0]],
                  "ground_freqs_cm1": [100.0, 200.0], "excited_freqs_cm1": [120.0, 180.0]}
        outputs = []
        for freqs in ([120.0, 180.0], ["120", "180"]):
            out = tmp_path / str(len(outputs))
            path = write_config(tmp_path, cutoff=12, target={**target, "excited_freqs_cm1": freqs})
            assert main(["--config", str(path), "--out-dir", str(out), "ideal"]) == 0
            assert "Traceback" not in capsys.readouterr().err
            outputs.append([(out / name).read_bytes()
                            for name in ("ideal_table.csv", "ideal_summary.json")])
        assert outputs[0] == outputs[1]

    def test_optimize_start_outside_bounds_exits_2(self, tmp_path, capsys):
        from vibsim.optimize import DEFAULT_BOUNDS

        path = write_config(tmp_path, experiment=paper_experiment_section(r=2.5))
        assert main(["--config", str(path), "--out-dir", str(tmp_path), "optimize"]) == 2
        assert f"[{DEFAULT_BOUNDS['r'][0]}, {DEFAULT_BOUNDS['r'][1]}]" in capsys.readouterr().err
        # the same experiment is a valid input to simulate (which finds the
        # cutoff too small for this squeezing)
        assert main(["--config", str(path), "--out-dir", str(tmp_path), "simulate"]) == 3

    def test_sweep_start_outside_bounds_exits_2(self, tmp_path, capsys):
        path = write_config(tmp_path, target={"kind": "optical", "squeeze": [-2.5, 0.2]})
        assert main(["--config", str(path), "--out-dir", str(tmp_path), "sweep-loss",
                     "--grid", "0.1,0.2"]) == 2
        assert "squeeze[0]" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["simulate", "optimize", "sweep-loss"])
    def test_three_mode_target_exits_2(self, tmp_path, capsys, command):
        path = write_config(tmp_path, experiment=paper_experiment_section(),
                            target={"kind": "optical", "squeeze": [-0.5, 0.2, 0.1]})
        assert main(["--config", str(path), "--out-dir", str(tmp_path), command]) == 2
        assert "3 modes" in capsys.readouterr().err


class TestIdeal:
    def test_tropolone_table(self, tmp_path):
        path = write_config(tmp_path, cutoff=20)
        assert main(["--config", str(path), "--out-dir", str(tmp_path), "ideal"]) == 0
        rows = read_csv_rows(tmp_path / "ideal_table.csv")
        by_outcome = {(int(r["m1"]), int(r["m2"])): r for r in rows}
        row = by_outcome[(2, 0)]
        assert float(row["frequency_cm1"]) == 352.0
        assert float(row["probability"]) == pytest.approx(0.1097, abs=0.002)
        summary = json.loads((tmp_path / "ideal_summary.json").read_text())
        assert summary["converged"] is True
        assert summary["vacuum_probability"] == pytest.approx(0.7731, abs=0.002)

    def test_transition_target(self, tmp_path):
        path = write_config(
            tmp_path, cutoff=14,
            target={
                "kind": "transition",
                "duschinsky": [[1.0, 0.0], [0.0, 1.0]],
                "ground_freqs_cm1": [100.0, 200.0],
                "excited_freqs_cm1": [100.0, 200.0],
                "displacement": [0.8, 0.0],
            },
        )
        assert main(["--config", str(path), "--out-dir", str(tmp_path), "ideal"]) == 0
        rows = read_csv_rows(tmp_path / "ideal_table.csv")
        by_outcome = {(int(r["m1"]), int(r["m2"])): float(r["probability"]) for r in rows}
        # displaced identity transition: coherent statistics with |alpha|^2 = 0.32
        nbar = 0.8**2 / 2
        assert by_outcome[(0, 0)] == pytest.approx(math.exp(-nbar), abs=1e-6)
        assert by_outcome[(1, 0)] == pytest.approx(nbar * math.exp(-nbar), abs=1e-6)

    def test_unsqueezed_target_single_row(self, tmp_path):
        path = write_config(
            tmp_path,
            target={"kind": "optical", "squeeze": [0.0, 0.0], "bs_angle": 0.3,
                    "excited_freqs_cm1": [176.0, 110.0]},
        )
        assert main(["--config", str(path), "--out-dir", str(tmp_path), "ideal"]) == 0
        rows = [r for r in read_csv_rows(tmp_path / "ideal_table.csv")
                if float(r["probability"]) > 1e-12]
        assert len(rows) == 1
        assert (rows[0]["m1"], rows[0]["m2"]) == ("0", "0")

    def test_small_cutoff_flags_convergence(self, tmp_path):
        path = write_config(tmp_path)
        code = main(["--config", str(path), "--out-dir", str(tmp_path),
                     "--cutoff", "4", "ideal"])
        assert code == 3
        summary = json.loads((tmp_path / "ideal_summary.json").read_text())
        assert summary["tail_mass"] > 0.0
        assert summary["converged"] is False

    def test_rerun_byte_identical(self, tmp_path):
        path = write_config(tmp_path)
        main(["--config", str(path), "--out-dir", str(tmp_path), "ideal"])
        first = (tmp_path / "ideal_table.csv").read_bytes()
        main(["--config", str(path), "--out-dir", str(tmp_path), "ideal"])
        assert (tmp_path / "ideal_table.csv").read_bytes() == first


#: a displaced three-mode Duschinsky transition, converged from cutoff 20
THREE_MODE_TRANSITION = {
    "kind": "transition",
    "duschinsky": [[0.6, -0.48, -0.64], [0.8, 0.36, 0.48], [0.0, -0.8, 0.6]],
    "ground_freqs_cm1": [500.0, 700.0, 900.0],
    "excited_freqs_cm1": [420.0, 650.0, 1000.0],
    "displacement": [0.5, -0.3, 0.2],
}


def simulate_under_address_limit(path, out_dir, limit) -> subprocess.CompletedProcess:
    """``simulate`` on the config at ``path`` in a child whose soft RLIMIT_AS is ``limit``."""
    code = ("import resource, sys\n"
            f"resource.setrlimit(resource.RLIMIT_AS, ({limit}, "
            "resource.getrlimit(resource.RLIMIT_AS)[1]))\n"
            "from vibsim.cli import main\n"
            "sys.exit(main(sys.argv[1:]))")
    src = str(Path(cli.__file__).parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get(
        "PYTHONPATH")]))}
    return subprocess.run([sys.executable, "-c", code, "--config", str(path), "--out-dir",
                           str(out_dir), "simulate"], capture_output=True, text=True, env=env,
                          timeout=300)


class TestFockMemory:
    @pytest.mark.parametrize("cutoff", [20, 50])
    def test_three_mode_ideal_stays_a_ket(self, tmp_path, cutoff):
        # at cutoff 50 the ket takes 2 MB and a density would take about
        # 250 GB, which the memory guard refuses with exit 2
        path = write_config(tmp_path, cutoff=cutoff, target=THREE_MODE_TRANSITION)
        assert main(["--config", str(path), "--out-dir", str(tmp_path), "ideal"]) == 0
        summary = json.loads((tmp_path / "ideal_summary.json").read_text())
        assert summary["converged"] is True

    @pytest.mark.parametrize("command", ["ideal", "simulate"])
    def test_cutoff_beyond_memory_exits_2(self, tmp_path, capsys, command):
        have = os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
        # two modes: the ket alone needs a thousand times the physical memory
        cutoff = math.isqrt(1000 * have // 16) + 1
        path = write_config(tmp_path, experiment=paper_experiment_section())
        code = main(["--config", str(path), "--out-dir", str(tmp_path),
                     "--cutoff", str(cutoff), command])
        err = capsys.readouterr().err
        assert code == 2
        assert f"cutoff {cutoff}" in err and "bytes of physical memory" in err
        assert "Traceback" not in err

    def test_monte_carlo_beyond_memory_exits_2(self, tmp_path, capsys, monkeypatch):
        # 10 000 samples fit in 1 MB as a float64 array, but their draws and
        # the stacked fold that evaluates them all at once do not
        monkeypatch.setattr(fock, "_physical_memory", lambda: 1 << 20)
        path = write_config(tmp_path, experiment=paper_experiment_section(),
                            monte_carlo_samples=10_000)
        code = main(["--config", str(path), "--out-dir", str(tmp_path), "optimize"])
        err = capsys.readouterr().err
        assert code == 2
        assert "monte_carlo_samples = 10000" in err and "bytes of physical memory" in err
        assert "Traceback" not in err
        assert not (tmp_path / "optimize_result.json").exists()

    def test_address_space_limit_binds_the_guard(self, tmp_path):
        # in a child whose soft RLIMIT_AS is 1.5 GB, the 2.3 GB density of
        # cutoff 110 is refused before it is allocated, and the message names
        # the binding limit
        limit = 3 << 29
        path = write_config(tmp_path, **{**README_CONFIG, "cutoff": 110})
        done = simulate_under_address_limit(path, tmp_path / "out", limit)
        have = os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
        bound = "the soft RLIMIT_AS" if limit < have else "physical memory"
        assert done.returncode == 2, done.stderr
        assert "Traceback" not in done.stderr and len(done.stderr.splitlines()) == 1
        assert "cutoff 110 on 2 modes" in done.stderr
        assert f"more than the {float(min(limit, have)):.3g} bytes of {bound}" in done.stderr

    @pytest.mark.parametrize("cutoff", [96, 98])
    def test_address_space_already_mapped_counts(self, tmp_path, cutoff):
        # under a soft RLIMIT_AS of 1.5 GiB set in a child only, the densities
        # of cutoffs 96 and 98 fit the limit but not beside the interpreter,
        # numpy and BLAS the child maps already: refused, not a traceback
        path = write_config(tmp_path, **{**README_CONFIG, "cutoff": cutoff})
        done = simulate_under_address_limit(path, tmp_path / "out", 3 << 29)
        assert done.returncode == 2, done.stderr
        assert "Traceback" not in done.stderr and len(done.stderr.splitlines()) == 1
        assert done.stderr.startswith("error: ")
        assert not (tmp_path / "out" / "observed.csv").exists()

    def test_bootstrap_beyond_the_address_space_exits_2(self, tmp_path):
        # at dark_p1 = 0.97, 2e7 shots land on about 59 000 outcomes, whose
        # bootstrap needs about 1.27 GB: under a soft RLIMIT_AS of 1 GiB set in
        # a child only, the guard refuses it between sampling and the bootstrap,
        # where the bootstrap's two 453 MiB arrays would run out of memory
        shots = 2 * 10**7
        exp = {**README_CONFIG["experiment"],
               "detector": {**README_CONFIG["experiment"]["detector"], "dark_p1": 0.97}}
        path = write_config(tmp_path, **{**README_CONFIG, "experiment": exp, "shots": shots})
        done = simulate_under_address_limit(path, tmp_path / "out", 1 << 30)
        assert done.returncode == 2, done.stderr
        assert "Traceback" not in done.stderr and len(done.stderr.splitlines()) == 1
        assert done.stderr.startswith(f"error: the bootstrap of shots = {shots} over ")
        assert "out of memory" not in done.stderr and "the soft RLIMIT_AS" in done.stderr
        assert not (tmp_path / "out" / "simulate_report.json").exists()

    @pytest.mark.parametrize("error", [MemoryError(), MemoryError("Unable to allocate 13.4 MiB")])
    def test_memory_error_past_a_guard_exits_2(self, tmp_path, capsys, monkeypatch, error):
        def allocate(model, cutoff):
            raise error

        monkeypatch.setattr(cli, "observed_distribution", allocate)
        path = write_config(tmp_path, **README_CONFIG)
        assert main(["--config", str(path), "--out-dir", str(tmp_path), "simulate"]) == 2
        err = capsys.readouterr().err
        assert err == f"error: out of memory{f': {error}' if str(error) else ''}\n"


class TestDetectorNoiseBound:
    """dark_p1 = 1 has no geometric count law, and a dark_p1 close to 1 needs
    a noise kernel whose count grid exceeds physical memory: both exit 2
    before any allocation, within seconds."""

    @pytest.mark.parametrize("dark_p1", [1.0, 0.9999, 1 - 1e-12])
    @pytest.mark.parametrize("command", ["tomography", "simulate"])
    def test_exits_2_without_artefact(self, tmp_path, capsys, command, dark_p1):
        hists = write_histogram_pair(tmp_path) if command == "tomography" else []
        exp = {**paper_experiment_section(), "detector": {"dark_p1": dark_p1}}
        path = write_config(tmp_path, experiment=exp)
        out = tmp_path / "out"
        start = time.perf_counter()
        code = main(["--config", str(path), "--out-dir", str(out), command, *hists])
        elapsed = time.perf_counter() - start
        err = capsys.readouterr().err
        assert code == 2
        assert "Traceback" not in err and "dark_p1" in err
        assert not out.exists() or not any(out.iterdir())
        assert elapsed < 10.0

    def test_long_kernel_fit_stays_within_the_check(self, tmp_path, capsys, monkeypatch):
        # dark_p1 = 0.97 widens each count axis to 1108: the memory check counts
        # one noisy grid, 9.8 MB, and the first simplex's candidates have eight.
        # Under a bound between the two, the fit runs within it, a grid at a time
        size = len(fock._noise_convolution(DetectorModel(0.97, 0.0), 12, 2))
        have = 4 * 8 * size**2
        monkeypatch.setattr(fock, "_physical_memory", lambda: have)
        hists = write_histogram_pair(tmp_path)
        exp = {**paper_experiment_section(), "detector": {"dark_p1": 0.97}}
        path = write_config(tmp_path, experiment=exp)
        tracemalloc.start()
        try:
            code = main(["--config", str(path), "--out-dir", str(tmp_path), "tomography", *hists])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 0 and "Traceback" not in capsys.readouterr().err
        assert peak < have < 8 * 8 * size**2

    def test_long_kernel_that_fits_runs(self, tmp_path):
        # dark_p1 = 0.9 keeps 328 dark-count terms
        hists = write_histogram_pair(tmp_path)
        exp = {**paper_experiment_section(), "detector": {"dark_p1": 0.9}}
        path = write_config(tmp_path, experiment=exp)
        code = main(["--config", str(path), "--out-dir", str(tmp_path), "tomography", *hists])
        assert code == 0
        assert (tmp_path / "tomography_fit.json").is_file()


class TestSimulate:
    def test_paper_model_report(self, tmp_path):
        path = write_config(
            tmp_path, cutoff=20, experiment=paper_experiment_section(),
            eps_g=0.001, shots=200000,
        )
        assert main(["--config", str(path), "--out-dir", str(tmp_path), "simulate"]) == 0
        report = json.loads((tmp_path / "simulate_report.json").read_text())
        assert report["fidelity"] == pytest.approx(0.891, abs=0.01)
        assert 0.19 <= report["tvd_to_ideal"] <= 0.22
        assert report["total"] == pytest.approx(0.455, abs=0.005)
        assert report["classical_benchmark"]["classical_bound"] == pytest.approx(0.476, abs=0.001)
        assert report["witness"]["passes"] is True
        assert report["witness"]["margin_sigmas"] > 5
        assert report["eps_stat"] > 0

    def test_ideal_config_near_zero_errors(self, tmp_path):
        from vibsim.fixtures import IDEAL_BS_TRANSMISSION

        path = write_config(
            tmp_path, cutoff=18,
            experiment={
                "source": {"kind": "smsv_pair", "r1": 0.72, "r2": 0.19},
                "bs_transmission": IDEAL_BS_TRANSMISSION,
                "detector": {"dark_p1": 0.0, "pump_p2": 0.0, "noise_fidelity_factor": 1.0},
            },
        )
        assert main(["--config", str(path), "--out-dir", str(tmp_path), "simulate"]) == 0
        report = json.loads((tmp_path / "simulate_report.json").read_text())
        assert report["fidelity"] == pytest.approx(1.0, abs=1e-5)
        assert report["tvd_to_ideal"] < 1e-4
        assert report["total"] == pytest.approx(0.0, abs=0.01)


class TestOptimize:
    def test_paper_model(self, tmp_path):
        path = write_config(
            tmp_path, experiment=paper_experiment_section(r=0.5, t=0.5),
        )
        assert main(["--config", str(path), "--out-dir", str(tmp_path), "optimize"]) == 0
        result = json.loads((tmp_path / "optimize_result.json").read_text())
        assert result["f_star"] == pytest.approx(0.891, abs=0.01)
        assert result["f_mc_mean"] == pytest.approx(0.890, abs=0.003)
        assert result["f_mc_std"] <= 0.005

    def test_seed_changes_only_monte_carlo(self, tmp_path):
        path = write_config(tmp_path, experiment=paper_experiment_section(r=0.5, t=0.5))
        main(["--config", str(path), "--out-dir", str(tmp_path / "a"), "optimize"])
        main(["--config", str(path), "--out-dir", str(tmp_path / "b"), "--seed", "99",
              "optimize"])
        a = json.loads((tmp_path / "a" / "optimize_result.json").read_text())
        b = json.loads((tmp_path / "b" / "optimize_result.json").read_text())
        assert a["f_star"] == b["f_star"]
        assert a["r_star"] == b["r_star"]
        assert a["f_mc_mean"] != b["f_mc_mean"]

    def test_result_feeds_back_into_simulate(self, tmp_path):
        path = write_config(tmp_path, experiment=paper_experiment_section(r=0.5, t=0.5))
        main(["--config", str(path), "--out-dir", str(tmp_path), "optimize"])
        result = json.loads((tmp_path / "optimize_result.json").read_text())
        path2 = write_config(tmp_path, name="config2.json", cutoff=16,
                             experiment=result["experiment"], eps_g=0.001)
        assert main(["--config", str(path2), "--out-dir", str(tmp_path), "simulate"]) == 0
        report = json.loads((tmp_path / "simulate_report.json").read_text())
        assert report["fidelity"] == pytest.approx(result["f_star"], abs=1e-9)

    def test_no_converged_run_exits_3(self, tmp_path, capsys, monkeypatch):
        # neither the run nor its restart reaches the tolerance in three iterations
        from vibsim import optimize

        simplex = optimize._simplex
        monkeypatch.setattr(optimize, "_simplex",
                            lambda start, bounds, tol, max_iter: simplex(start, bounds, tol, 3))
        path = write_config(tmp_path, experiment=paper_experiment_section(r=0.5, t=0.5))
        assert main(["--config", str(path), "--out-dir", str(tmp_path), "optimize"]) == 3
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1 and "did not converge" in err
        assert "after 3 iterations" in err and "Traceback" not in err
        # the best point found is still written
        result = json.loads((tmp_path / "optimize_result.json").read_text())
        assert 0.0 < result["f_star"] < 1.0


def run_quietly(argv, capsys) -> tuple[int, str]:
    """:func:`main`'s exit code and stderr; it may raise no warning."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = main(argv)
    err = capsys.readouterr().err
    assert not caught and "Warning" not in err and "Traceback" not in err
    return code, err


class TestOverflowingInputs:
    """Inputs whose numbers overflow float64 exit 2 or 3 before an artefact
    holds a non-finite number, and without a warning."""

    @pytest.mark.parametrize("command", ["ideal", "simulate"])
    @pytest.mark.parametrize("freqs", [[1e308, 110.0], [-1e308, -1e308]])
    def test_frequencies_that_overflow_exit_2(self, tmp_path, capsys, command, freqs):
        target = {"kind": "optical", "squeeze": [-0.72, 0.19], "bs_angle": 0.3295,
                  "excited_freqs_cm1": freqs}
        path = write_config(tmp_path, cutoff=20, target=target,
                            experiment=paper_experiment_section(r=0.5, t=0.5))
        out = tmp_path / "out"
        code, err = run_quietly(["--config", str(path), "--out-dir", str(out), command], capsys)
        assert code == 2 and "excited_freqs_cm1" in err
        assert not any(out.iterdir())

    def test_detector_noise_lengthens_the_outcomes_checked(self, tmp_path, capsys):
        # 19 photons per mode fit 9e306, the 26 of a noisy count grid do not
        target = {"kind": "optical", "squeeze": [-0.72, 0.19], "bs_angle": 0.3295,
                  "excited_freqs_cm1": [9e306, 110.0]}
        path = write_config(tmp_path, cutoff=20, target=target,
                            experiment=paper_experiment_section(r=0.5, t=0.5))
        code, _ = run_quietly(["--config", str(path), "--out-dir", str(tmp_path), "ideal"], capsys)
        assert code == 0
        freqs = [float(r["frequency_cm1"]) for r in read_csv_rows(tmp_path / "ideal_table.csv")]
        assert max(freqs) == 19 * 9e306
        code, err = run_quietly(["--config", str(path), "--out-dir", str(tmp_path / "sim"),
                                 "simulate"], capsys)
        assert code == 2 and "up to 26 photons per mode" in err

    @pytest.mark.parametrize("r", [12.0, 16.0, 19.0, 20.0, 350.0])
    def test_target_beyond_float_precision_exits_2(self, tmp_path, capsys, r):
        target = {"kind": "optical", "squeeze": [-r, 0.19], "bs_angle": 0.3295}
        path = write_config(tmp_path, target=target,
                            experiment=paper_experiment_section(r=0.5, t=0.5))
        out = tmp_path / "out"
        code, err = run_quietly(["--config", str(path), "--out-dir", str(out), "optimize"], capsys)
        assert code == 2 and "symplectic eigenvalue" in err
        assert not any(out.iterdir())

    def test_amplifier_gain_past_the_float_range_exits_3(self, tmp_path, capsys):
        # cosh(s)^(n + 1) overflows: its weight is the limit 0
        path = write_config(tmp_path, cutoff=16, experiment=paper_experiment_section(r=50.0))
        code, err = run_quietly(["--config", str(path), "--out-dir", str(tmp_path), "simulate"],
                                capsys)
        assert code == 3 and "cutoff 16 too small" in err

    def test_cutoff_past_the_float_range_exits_2(self, tmp_path, capsys):
        # the memory guard refuses it before any frequency is summed
        path = write_config(tmp_path, **{**README_CONFIG, "cutoff": 10**400})
        code, err = run_quietly(["--config", str(path), "--out-dir", str(tmp_path), "ideal"],
                                capsys)
        assert code == 2 and "bytes" in err

    @pytest.mark.parametrize("config, command, sigma_r, samples", [
        ("readme", "simulate", 1e3, 3), ("readme", "optimize", 1e3, 3),
        ("readme", "simulate", 1e308, 3), ("readme", "optimize", 1e308, 3),
        ("readme", "simulate", 2**63, 3), ("readme", "optimize", 2**63, 3),
        ("optical", "optimize", 1e3, 3),
        # refused before the Fock replay, whose truncation check would exit 3
        ("optical", "simulate", 1e3, 3),
        # below the squeezing bound, but past float64 in the fidelity's
        # determinant (TMSV) or its solve (SMSV pair)
        ("readme", "optimize", 50.0, 100), ("optical", "optimize", 10.0, 100),
    ])
    def test_monte_carlo_draws_past_the_model_exit_2(self, tmp_path, capsys, config, command,
                                                     sigma_r, samples):
        base = {"readme": README_CONFIG, "optical": OPTICAL_CONFIG}[config]
        path = write_config(tmp_path, **{**base, "monte_carlo_samples": samples,
                                         "uncertainties": {"sigma_r": sigma_r}})
        out = tmp_path / "out"
        code, err = run_quietly(["--config", str(path), "--out-dir", str(out), command], capsys)
        assert code == 2 and "uncertainties.sigma_r" in err and len(err.splitlines()) == 1
        assert not any(out.iterdir())

    @pytest.mark.parametrize("command", ["ideal", "simulate", "optimize", "sweep-loss"])
    @pytest.mark.parametrize("field, value", [
        ("bs_angle", 1e308), ("bs_angle", -1e308), ("bs_angle", 1e17),
        ("displacement", [[1e308, 0.0], [0.0, 0.15]]),
        ("displacement", [[0.1, -0.2], [0.0, -1e308]]),
    ])
    def test_couplings_past_the_bound_exit_2(self, tmp_path, capsys, command, field, value):
        target = {**OPTICAL_CONFIG["target"], field: value}
        path = write_config(tmp_path, **{**OPTICAL_CONFIG, "target": target})
        argv = [command] + (["--grid", "0,0.5"] if command == "sweep-loss" else [])
        out = tmp_path / "out"
        code, err = run_quietly(["--config", str(path), "--out-dir", str(out), *argv], capsys)
        assert code == 2 and f"target {field}" in err
        assert not out.exists()  # refused while the config is read

    @pytest.mark.parametrize("kind, field, value", [
        ("optical", "bs_angle", 1.0), ("optical", "displacement", [[1.0, 0.0], [0.0, -1.0]]),
        ("transition", "displacement", [1.0, 0.0]),
    ])
    def test_couplings_at_the_bound_run(self, tmp_path, capsys, kind, field, value):
        target = {"optical": OPTICAL_CONFIG["target"],
                  "transition": {"kind": "transition", "duschinsky": [[1.0, 0.0], [0.0, 1.0]],
                                 "ground_freqs_cm1": [100.0, 200.0],
                                 "excited_freqs_cm1": [120.0, 180.0]}}[kind]
        for scale, codes in ((MAX_COUPLING, (0, 3)), (np.nextafter(MAX_COUPLING, math.inf), (2,))):
            scaled = np.multiply(value, scale).tolist()
            path = write_config(tmp_path, **{**OPTICAL_CONFIG, "target": {**target, field: scaled}})
            code, err = run_quietly(["--config", str(path), "--out-dir", str(tmp_path), "ideal"],
                                    capsys)
            assert code in codes, err

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_writers_refuse_non_finite_numbers(self, tmp_path, bad):
        with pytest.raises(ValueError):
            cli._write_csv(tmp_path / "t.csv", ["m1", "p"], [(0, 0.5), (1, bad)])
        with pytest.raises(ValueError):
            cli._write_json(tmp_path / "t.json", {"p": bad})
        assert not any(tmp_path.iterdir())


class TestSweepLoss:
    def test_small_grid(self, tmp_path):
        path = write_config(tmp_path, experiment=paper_experiment_section())
        code = main(["--config", str(path), "--out-dir", str(tmp_path),
                     "sweep-loss", "--grid", "0,0.3,0.6"])
        assert code == 0
        rows = read_csv_rows(tmp_path / "loss_sweep.csv")
        assert len(rows) == 3
        first = rows[0]
        assert float(first["loss"]) == 0.0
        assert float(first["f_smsv"]) == pytest.approx(1.0, abs=1e-5)
        assert float(first["f_smsv_noisydet"]) == pytest.approx(0.9958, abs=1e-4)
        for col in ("f_smsv", "f_smsv_noisydet", "f_tmsv", "f_tmsv_dist"):
            vals = [float(r[col]) for r in rows]
            assert all(b <= a + 1e-6 for a, b in zip(vals, vals[1:]))
        thresholds = {float(r["classical_threshold"]) for r in rows}
        assert len(thresholds) == 1
        assert thresholds.pop() == pytest.approx(0.879, abs=0.001)

    def test_bad_grid(self, tmp_path):
        path = write_config(tmp_path)
        assert main(["--config", str(path), "--out-dir", str(tmp_path),
                     "sweep-loss", "--grid", "0,1.5"]) == 2

    @pytest.mark.parametrize("grid", ["0:0.95:20", "0.1187,0.6076"])
    @pytest.mark.parametrize("config", ["readme", "optical"])
    def test_lockstep_equals_the_sequential_sweep(self, tmp_path, config, grid):
        cfg = cli.load_config(write_config(
            tmp_path, **{"readme": README_CONFIG, "optical": OPTICAL_CONFIG}[config]))
        args = (cfg["target"], np.sort(cli._parse_grid(grid)), cfg["detector"],
                cfg["experiment"].distinguishability)
        got, want = loss_sweep(*args), sequential_loss_sweep(*args)
        assert list(got) == list(want)
        for name, values in want.items():
            assert [v.hex() for v in got[name]] == [v.hex() for v in values], name


class TestTomography:
    def test_round_trip(self, tmp_path):
        hists = write_histogram_pair(tmp_path, shots=400_000)
        path = write_config(tmp_path)
        code = main(["--config", str(path), "--out-dir", str(tmp_path), "tomography", *hists])
        assert code == 0
        fit = json.loads((tmp_path / "tomography_fit.json").read_text())
        assert fit["r"] == pytest.approx(0.3, abs=0.01)
        assert fit["eta"][0] == pytest.approx(0.45, abs=0.02)
        assert fit["eta"][1] == pytest.approx(0.40, abs=0.02)
        assert fit["converged"] is True

    def test_vacuum_counts_exit_cleanly(self, tmp_path, capsys):
        for name in ("trans.csv", "refl.csv"):
            write_histogram_csv(CountHistogram({(0, 0): 1000}, 1000), tmp_path / name)
        path = write_config(tmp_path)
        code = main(["--config", str(path), "--out-dir", str(tmp_path), "tomography",
                     str(tmp_path / "trans.csv"), str(tmp_path / "refl.csv")])
        assert code in (0, 3)
        assert "Traceback" not in capsys.readouterr().err

    def test_malformed_csv_exit_code(self, tmp_path, capsys):
        bad = tmp_path / "bad.csv"
        bad.write_text("m1,m2,count\n0,0,5\nnot,a,row\n")
        good = tmp_path / "good.csv"
        write_histogram_csv(CountHistogram({(0, 0): 10}, 10), good)
        path = write_config(tmp_path)
        code = main(["--config", str(path), "--out-dir", str(tmp_path), "tomography",
                     str(bad), str(good)])
        assert code == 2
        assert "line 3" in capsys.readouterr().err

    def test_non_utf8_csv_exit_code(self, tmp_path, capsys):
        bad = tmp_path / "bad.csv"
        bad.write_bytes(b"m1,m2,count\n0,0,5\n\xff\xfe,1,2\n")
        path = write_config(tmp_path)
        code = main(["--config", str(path), "--out-dir", str(tmp_path), "tomography",
                     str(bad), str(bad)])
        assert code == 2
        assert "UTF-8" in capsys.readouterr().err

    def test_three_mode_histogram_exit_code(self, tmp_path, capsys):
        bad = tmp_path / "bad.csv"
        write_histogram_csv(CountHistogram({(0, 0, 0): 8, (1, 0, 1): 2}, 10), bad)
        good = tmp_path / "good.csv"
        write_histogram_csv(CountHistogram({(0, 0): 10}, 10), good)
        path = write_config(tmp_path)
        code = main(["--config", str(path), "--out-dir", str(tmp_path), "tomography",
                     str(bad), str(good)])
        assert code == 2
        assert "two-mode" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "rows, message",
        [
            ("0,0,0\n1,1,0\n", "line 2: bad.csv: no counts on a listed outcome"),
            ("0,0,5\n99999999999999999999,0,100\n", "line 3: field beyond"),
            ("-1,-1,1000\n", "line 2: bad.csv: no counts on a listed outcome"),
        ],
        ids=["all-zero", "int64-overflow", "sink-only"],
    )
    def test_histogram_without_data_exit_code(self, tmp_path, capsys, rows, message):
        bad = tmp_path / "bad.csv"
        bad.write_text("m1,m2,count\n" + rows)
        good = tmp_path / "good.csv"
        write_histogram_csv(CountHistogram({(0, 0): 9, (1, 1): 1}, 10), good)
        path = write_config(tmp_path)
        code = main(["--config", str(path), "--out-dir", str(tmp_path), "tomography",
                     str(good), str(bad)])
        assert code == 2
        err = capsys.readouterr().err
        assert message in err
        assert "Traceback" not in err
        assert not (tmp_path / "tomography_fit.json").exists()

    @pytest.mark.parametrize("sidecar", [b"{not json", b"[1, 2]", b"\xff{}"],
                             ids=["not-json", "not-object", "not-utf8"])
    def test_malformed_sidecar_exit_code(self, tmp_path, capsys, sidecar):
        for name in ("trans.csv", "refl.csv"):
            write_histogram_csv(CountHistogram({(0, 0): 9, (1, 1): 1}, 10), tmp_path / name)
        (tmp_path / "refl.json").write_bytes(sidecar)
        path = write_config(tmp_path)
        code = main(["--config", str(path), "--out-dir", str(tmp_path), "tomography",
                     str(tmp_path / "trans.csv"), str(tmp_path / "refl.csv")])
        assert code == 2
        assert "refl.json" in capsys.readouterr().err


#: the README's example config, with few Monte Carlo samples and shots and a
#: small cutoff, so that no mutation of it allocates a large Fock space
README_CONFIG = {
    "version": 1,
    "target": {"kind": "tropolone"},
    "experiment": {
        "source": {"kind": "tmsv", "r": 0.5},
        "bs_transmission": 0.5,
        "loss_pre": [0.4, 0.4],
        "distinguishability": 0.06,
        "detector": {"dark_p1": 0.002, "pump_p2": 0.001, "noise_fidelity_factor": 0.9958},
    },
    "uncertainties": {"sigma_loss": 0.02, "sigma_r": 0.01, "sigma_delta": 0.02, "sigma_t": 0.01},
    "cutoff": 12,
    "shots": 2000,
    "seed": 7,
    "eps_g": 0.001,
    "monte_carlo_samples": 3,
}
#: the leaves the README config lacks: an optical target with every optional
#: field, and an SMSV-pair source with post-splitter loss
OPTICAL_CONFIG = {
    **README_CONFIG,
    "target": {"kind": "optical", "squeeze": [-0.72, 0.19], "bs_angle": 0.3295,
               "displacement": [[0.1, -0.2], [0.0, 0.15]], "excited_freqs_cm1": [176, 110]},
    "experiment": {
        "source": {"kind": "smsv_pair", "r1": 0.7, "r2": 0.2},
        "bs_transmission": 0.9,
        "loss_pre": [0.4, 0.4],
        "loss_post": [0.9, 0.85],
        "distinguishability": 0.06,
        "detector": {"dark_p1": 0.002, "pump_p2": 0.001, "noise_fidelity_factor": 0.9958},
    },
}


def key_paths(record: dict, prefix: str = "") -> set[str]:
    """The keys of a JSON record, a nested record's as ``outer.inner``."""
    keys = set()
    for key, value in record.items():
        keys.add(prefix + key)
        if isinstance(value, dict):
            keys |= key_paths(value, f"{prefix}{key}.")
    return keys


#: the keys of each JSON artefact: those of simulate, optimize and tomography
#: come in part from dataclass fields, so a new field must show up here
ARTEFACT_KEYS = {
    "ideal_summary.json": {"boundary_mass", "converged", "cutoff", "peaks", "tail_mass",
                           "vacuum_probability"},
    "simulate_report.json": {
        "classical_benchmark", "classical_benchmark.classical_bound",
        "classical_benchmark.classical_fidelity", "eps_g", "eps_stat", "fidelity",
        "fidelity_bound", "fidelity_mc_mean", "fidelity_mc_std", "total", "tvd_to_ideal",
        "witness", "witness.margin_sigmas", "witness.passes"},
    "optimize_result.json": {
        "clamp_events", "experiment", "experiment.bs_transmission", "experiment.detector",
        "experiment.detector.dark_p1", "experiment.detector.noise_fidelity_factor",
        "experiment.detector.pump_p2", "experiment.distinguishability", "experiment.loss_post",
        "experiment.loss_pre", "experiment.source", "experiment.source.kind",
        "experiment.source.r", "f_mc_mean", "f_mc_std", "f_star", "r_star", "t_star"},
    "tomography_fit.json": {"converged", "eta", "iterations", "r", "residual_tvd"},
}


@pytest.mark.parametrize("command, artefact", [
    ("ideal", "ideal_summary.json"), ("simulate", "simulate_report.json"),
    ("optimize", "optimize_result.json"), ("tomography", "tomography_fit.json")])
def test_artefact_keys_are_pinned(tmp_path, command, artefact):
    hists = write_histogram_pair(tmp_path) if command == "tomography" else []
    path = write_config(tmp_path, **README_CONFIG)
    assert main(["--config", str(path), "--out-dir", str(tmp_path), command, *hists]) == 0
    assert key_paths(json.loads((tmp_path / artefact).read_text())) == ARTEFACT_KEYS[artefact]


DROP = object()


def config_paths(node, path=()):
    """Paths of every field and list entry below ``node``."""
    if isinstance(node, dict):
        items = node.items()
    elif isinstance(node, list):
        items = enumerate(node)
    else:
        return
    for key, child in items:
        yield path + (key,)
        yield from config_paths(child, path + (key,))


#: magnitudes a numeric leaf may take: large, the ends of the float range, an
#: integer past int64 and one past the float range, the least subnormal and zero
MAGNITUDES = (1e3, 1e308, -1e308, 2**63, 10**400, 5e-324, 0)


def mutations(value, magnitudes: bool = False) -> list:
    """A wrong type, null, NaN, +-inf, a negative number, an empty or
    truncated list, or the field dropped (``DROP``); with ``magnitudes``, a
    number also takes each of :data:`MAGNITUDES`."""
    out = [None, math.nan, math.inf, -math.inf, DROP, 1 if isinstance(value, str) else "x"]
    if isinstance(value, (int, float)):
        out.append(-(abs(value) or 1))
        if magnitudes:
            out += MAGNITUDES
    if isinstance(value, list):
        out += [[], value[:-1]]
    return out


def mutated(config: dict, path: tuple, value) -> dict:
    config = json.loads(json.dumps(config))
    parent = config
    for key in path[:-1]:
        parent = parent[key]
    if value is DROP:
        del parent[path[-1]]
    else:
        parent[path[-1]] = value
    return config


def exit_codes_under_mutation(base: dict, tmp_path, capsys) -> set[int]:
    """Run ideal, simulate and optimize on every mutation of every leaf of
    ``base``; each must exit 0, 2 or 3 without a traceback."""
    seen = set()
    for path in config_paths(base):
        leaf = base
        for key in path:
            leaf = leaf[key]
        for value in mutations(leaf):
            cfg_path = tmp_path / "config.json"
            cfg_path.write_text(json.dumps(mutated(base, path, value)))
            for command in ("ideal", "simulate", "optimize"):
                code = main(["--config", str(cfg_path), "--out-dir", str(tmp_path / command),
                             command])
                assert code in (0, 2, 3), (path, value, command)
                assert "Traceback" not in capsys.readouterr().err
                seen.add(code)
    return seen


class TestConfigMutations:
    def test_exit_codes_hold(self, tmp_path, capsys):
        assert {0, 2} <= exit_codes_under_mutation(README_CONFIG, tmp_path, capsys)

    def test_exit_codes_hold_on_optical_smsv_config(self, tmp_path, capsys):
        assert {0, 2} <= exit_codes_under_mutation(OPTICAL_CONFIG, tmp_path, capsys)

    @staticmethod
    def exits_at_every_leaf(base, sections, values, commands, tmp_path, capsys):
        """Exit codes and run count of ``commands``, each an argv list, with each
        numeric leaf of ``base[section]`` for each of ``sections`` (None: the
        top-level numbers of ``base``) set to each of ``values(leaf)``, in under
        10 s: each run exits 0, 2 or 3, with no traceback and no warning."""
        start, seen, runs = time.perf_counter(), set(), 0
        paths = [path for section in sections for path in (
            config_paths(base[section], (section,)) if section else ((key,) for key in base))]
        for path in paths:
            leaf = base
            for key in path:
                leaf = leaf[key]
            if not isinstance(leaf, (int, float)):
                continue
            for value in values(leaf):
                cfg_path = tmp_path / "config.json"
                cfg_path.write_text(json.dumps(mutated(base, path, value)))
                for command in commands:
                    code, _ = run_quietly(["--config", str(cfg_path), "--out-dir",
                                           str(tmp_path / "out"), *command], capsys)
                    assert code in (0, 2, 3), (path, value, command)
                    seen.add(code)
                    runs += 1
        assert time.perf_counter() - start < 10.0
        return seen, runs

    @pytest.mark.parametrize("base", [README_CONFIG, OPTICAL_CONFIG], ids=["readme", "optical"])
    def test_simulate_holds_at_every_magnitude(self, tmp_path, capsys, base):
        # every numeric leaf of the experiment, the section simulate's photon
        # counts read, at each magnitude
        seen, runs = self.exits_at_every_leaf(
            base, ["experiment"], lambda leaf: mutations(leaf, magnitudes=True), [["simulate"]],
            tmp_path, capsys)
        assert runs == (7 + len(MAGNITUDES)) * (8 if base is README_CONFIG else 11)
        assert {0, 2} <= seen

    @pytest.mark.parametrize("base", [README_CONFIG, OPTICAL_CONFIG], ids=["readme", "optical"])
    def test_simulate_holds_at_every_run_magnitude(self, tmp_path, capsys, base):
        # every uncertainty, which simulate's Monte Carlo draws read, and every
        # top-level number (version, cutoff, shots, seed, eps_g, samples)
        seen, runs = self.exits_at_every_leaf(
            base, ["uncertainties", None], lambda leaf: MAGNITUDES, [["simulate"]], tmp_path,
            capsys)
        assert runs == len(MAGNITUDES) * (4 + 6)
        # the optical config's cutoff 12 is too small for its r1 = 0.7: exit 3
        assert {2, 0 if base is README_CONFIG else 3} <= seen

    def test_optimize_holds_at_every_magnitude(self, tmp_path, capsys):
        # every experiment leaf of both sources, each the start of a fit
        seen, runs = self.exits_at_every_leaf(
            README_CONFIG, ["experiment"], lambda leaf: MAGNITUDES, [["optimize"]], tmp_path,
            capsys)
        more, extra = self.exits_at_every_leaf(
            OPTICAL_CONFIG, ["experiment"], lambda leaf: MAGNITUDES, [["optimize"]], tmp_path,
            capsys)
        assert runs + extra == len(MAGNITUDES) * (8 + 11)
        assert {0, 2} <= seen | more

    def test_target_holds_at_every_magnitude(self, tmp_path, capsys):
        # every numeric leaf of an optical target with every optional field,
        # which ideal and simulate both read, at each magnitude
        seen, runs = self.exits_at_every_leaf(
            OPTICAL_CONFIG, ["target"], lambda leaf: MAGNITUDES, [["ideal"], ["simulate"]],
            tmp_path, capsys)
        assert runs == 2 * len(MAGNITUDES) * 9
        assert {0, 2, 3} <= seen

    @pytest.mark.parametrize("base", [README_CONFIG, OPTICAL_CONFIG], ids=["readme", "optical"])
    def test_sweep_loss_holds_at_every_magnitude(self, tmp_path, capsys, base):
        # every numeric leaf of the target and of the experiment, which the
        # sweep's fits read, at each magnitude: one section per call, so that
        # each stays under the helper's time cap
        seen, runs = set(), 0
        for section in ("target", "experiment"):
            codes, count = self.exits_at_every_leaf(
                base, [section], lambda leaf: MAGNITUDES, [["sweep-loss", "--grid", "0.5"]],
                tmp_path, capsys)
            seen, runs = seen | codes, runs + count
        assert runs == len(MAGNITUDES) * (8 if base is README_CONFIG else 9 + 11)
        assert {0, 2} <= seen

    @pytest.mark.parametrize("r", [-6.5, -8.0, -9.5])
    def test_squeezed_past_six_exits_without_traceback(self, tmp_path, capsys, r):
        # past r ~ 6 the rounding of the symplectic eigenvalues grows like
        # eps·max|V|²; every state is checked once, when it is built, so
        # no command may reach a traceback on such a target
        cfg = {**OPTICAL_CONFIG, "target": {**OPTICAL_CONFIG["target"], "squeeze": [r, 0.19]}}
        path = tmp_path / "config.json"
        path.write_text(json.dumps(cfg))
        for command in (["ideal"], ["simulate"], ["optimize"], ["sweep-loss", "--grid", "0,0.5"]):
            code = main(["--config", str(path), "--out-dir", str(tmp_path / command[0]), *command])
            assert code in (0, 2, 3), command
            assert "Traceback" not in capsys.readouterr().err


#: argv and path faults, as a function of the work directory: the global
#: options before the command, with the config and output paths to use
ARGV_FAULTS = {
    "unknown-flag": lambda cfg, out: ["--config", cfg, "--out-dir", out, "--bogus", "1"],
    "flag-without-value": lambda cfg, out: ["--out-dir", out, "--config", cfg, "--seed"],
    "repeated-flag": lambda cfg, out: ["--config", cfg, "--out-dir", out,
                                       "--cutoff", "10", "--cutoff", "12"],
    "cutoff-non-integer": lambda cfg, out: ["--config", cfg, "--out-dir", out, "--cutoff", "1.5"],
    "cutoff-negative": lambda cfg, out: ["--config", cfg, "--out-dir", out, "--cutoff", "-3"],
    "cutoff-2-63": lambda cfg, out: ["--config", cfg, "--out-dir", out, "--cutoff", str(2**63)],
    "seed-non-integer": lambda cfg, out: ["--config", cfg, "--out-dir", out, "--seed", "x"],
    "seed-negative": lambda cfg, out: ["--config", cfg, "--out-dir", out, "--seed", "-3"],
    "seed-2-63": lambda cfg, out: ["--config", cfg, "--out-dir", out, "--seed", str(2**63)],
    "config-missing": lambda cfg, out: ["--config", cfg + ".absent", "--out-dir", out],
    "config-directory": lambda cfg, out: ["--config", out, "--out-dir", out],
    "config-empty": lambda cfg, out: ["--config", cfg + ".empty", "--out-dir", out],
    "config-binary": lambda cfg, out: ["--config", cfg + ".binary", "--out-dir", out],
    "out-dir-is-file": lambda cfg, out: ["--config", cfg, "--out-dir", cfg],
    "out-dir-under-file": lambda cfg, out: ["--config", cfg, "--out-dir", cfg + "/out"],
}


def exit_code(argv) -> int:
    """:func:`main`'s exit code, counting argparse's ``SystemExit`` as its code."""
    try:
        return main(argv)
    except SystemExit as exc:
        return exc.code


class TestArgvAndPaths:
    @pytest.fixture
    def commands(self, tmp_path):
        cfg = tmp_path / "config.json"
        cfg.write_text(json.dumps(README_CONFIG))
        (tmp_path / "config.json.empty").write_bytes(b"")
        (tmp_path / "config.json.binary").write_bytes(bytes(range(256)))
        (tmp_path / "out").mkdir()
        hists = write_histogram_pair(tmp_path)
        return str(cfg), str(tmp_path / "out"), [
            ["ideal"], ["simulate"], ["optimize"], ["sweep-loss", "--grid", "0,0.5"],
            ["tomography", *hists],
        ]

    @pytest.mark.parametrize("fault", ARGV_FAULTS.values(), ids=ARGV_FAULTS.keys())
    def test_every_command_exits_cleanly(self, commands, capsys, fault):
        cfg, out, argvs = commands
        for argv in argvs:
            assert exit_code([*fault(cfg, out), *argv]) in (0, 2, 3), argv
            assert "Traceback" not in capsys.readouterr().err

    @pytest.mark.parametrize("paths", [
        lambda hists, tmp: hists[:1],
        lambda hists, tmp: [*hists, hists[0]],
        lambda hists, tmp: [str(tmp), hists[1]],
    ], ids=["missing", "extra", "directory"])
    def test_histogram_path_faults_exit_2(self, commands, tmp_path, capsys, paths):
        cfg, out, argvs = commands
        hists = argvs[-1][1:]
        argv = ["--config", cfg, "--out-dir", out, "tomography", *paths(hists, tmp_path)]
        assert exit_code(argv) == 2
        assert "Traceback" not in capsys.readouterr().err


def histogram_mutations(text: str) -> dict[str, tuple[str, bytes | None]]:
    """Mutations of a histogram CSV ``text`` with no sidecar, keyed by name:
    the new CSV text and the sidecar bytes (None for no sidecar)."""
    header, first, *rest = text.splitlines()
    out = {
        f"header-{name}": "\n".join([new, first, *rest])
        for name, new in [("dropped-column", "m1,count"), ("extra-column", "m1,m2,m3,count"),
                          ("renamed-count", "m1,m2,counts"), ("renamed-mode", "x,m2,count")]
    }
    out.update({
        "header-only": header,
        "empty-file": "",
        "bom": "\ufeff" + text,
        "blank-rows": "\n".join([header, "", first, "", *rest]),
        "short-row": "\n".join([header, first.rsplit(",", 1)[0], *rest]),
        "long-row": "\n".join([header, first + ",1", *rest]),
        "sink-only": f"{header}\n-1,-1,1000",
        "negative-only": f"{header}\n-1,-1,600\n-3,2,400",
        "all-zero": "\n".join([header] + [row.rsplit(",", 1)[0] + ",0" for row in (first, *rest)]),
        "sink-beside-rows": f"{text}\n-1,-1,50",
    })
    fields = first.split(",")
    for i, name in enumerate(["m1", "m2", "count"]):
        for kind, value in [("empty", ""), ("non-integer", "1.5"), ("word", "x"),
                            ("negative", "-2"), ("zero", "0"), ("int64-max", str(2**63 - 1)),
                            ("int64-overflow", str(2**63)),
                            ("int64-underflow", str(-2**63 - 1))]:
            row = ",".join(fields[:i] + [value] + fields[i + 1:])
            out[f"{name}-{kind}"] = "\n".join([header, row, *rest])
    mutated = {name: (csv_text + "\n", None) for name, csv_text in out.items()}
    for name, sidecar in [("sidecar-not-object", b"[1, 2]"), ("sidecar-not-utf8", b"\xff{}"),
                          ("sidecar-malformed", b"{not json"), ("sidecar-bom", b"\xef\xbb\xbf{}")]:
        mutated[name] = (text, sidecar)
    return mutated


class TestHistogramMutations:
    def test_exit_codes_hold(self, tmp_path, capsys):
        from vibsim.calibrate import predicted_distribution
        from vibsim.sampler import sample

        det = DetectorModel()
        texts = {}
        for name, t in (("trans", 1.0), ("refl", 0.0)):
            table = predicted_distribution(0.3, (0.45, 0.40), t, det, 8)
            hist = sample(table, 5000, seed=3 + int(t))
            write_histogram_csv(hist, tmp_path / f"{name}.csv")
            (tmp_path / f"{name}.json").unlink()
            texts[name] = (tmp_path / f"{name}.csv").read_text()
        path = write_config(tmp_path, cutoff=8)
        seen = set()
        for target in texts:
            for label, (csv_text, sidecar) in histogram_mutations(texts[target]).items():
                work = tmp_path / label / target
                work.mkdir(parents=True)
                for name, text in texts.items():
                    (work / f"{name}.csv").write_text(csv_text if name == target else text)
                if sidecar is not None:
                    (work / f"{target}.json").write_bytes(sidecar)
                code = main(["--config", str(path), "--out-dir", str(work), "tomography",
                             str(work / "trans.csv"), str(work / "refl.csv")])
                assert code in (0, 2, 3), (target, label)
                assert "Traceback" not in capsys.readouterr().err
                seen.add(code)
        assert {0, 2} <= seen
