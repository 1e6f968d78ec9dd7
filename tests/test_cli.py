import csv
import json
import math

import numpy as np
import pytest

from vibsim.calibrate import write_histogram_csv
from vibsim.cli import main
from vibsim.experiment import DetectorModel
from vibsim.tables import CountHistogram


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
    "missing-squeeze": {"target": {"kind": "optical"}},
    "nan-tmsv-r": {"experiment": paper_experiment_section(r=math.nan)},
    "inf-tmsv-r": {"experiment": paper_experiment_section(r=math.inf)},
    "nan-smsv-r2": {"experiment": {**paper_experiment_section(),
                                   "source": {"kind": "smsv_pair", "r1": 0.3, "r2": math.nan}}},
    "inf-smsv-r1": {"experiment": {**paper_experiment_section(),
                                   "source": {"kind": "smsv_pair", "r1": math.inf, "r2": 0.1}}},
    "nan-displacement": {"target": {"kind": "optical", "squeeze": [-0.7, 0.2], "bs_angle": 0.3,
                                    "displacement": [[math.nan, 0.0], [0.0, 0.0]]}},
    "inf-displacement": {"target": {"kind": "optical", "squeeze": [-0.7, 0.2], "bs_angle": 0.3,
                                    "displacement": [[0.0, 0.0], [0.0, -math.inf]]}},
    "nan-transition-displacement": {"target": {
        "kind": "transition", "duschinsky": [[1.0, 0.0], [0.0, 1.0]],
        "ground_freqs_cm1": [100.0, 200.0], "excited_freqs_cm1": [120.0, 180.0],
        "displacement": [math.nan, 0.0]}},
}


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

    def test_unknown_target_kind(self, tmp_path):
        path = write_config(tmp_path, target={"kind": "mystery"})
        assert main(["--config", str(path), "--out-dir", str(tmp_path), "ideal"]) == 2

    @pytest.mark.parametrize("overrides", MALFORMED.values(), ids=MALFORMED.keys())
    def test_malformed_value_exits_2(self, tmp_path, capsys, overrides):
        path = write_config(tmp_path, **{"experiment": paper_experiment_section(), **overrides})
        assert main(["--config", str(path), "--out-dir", str(tmp_path), "optimize"]) == 2
        assert "Traceback" not in capsys.readouterr().err

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


class TestTomography:
    def test_round_trip(self, tmp_path):
        from vibsim.calibrate import predicted_distribution
        from vibsim.sampler import sample

        det = DetectorModel()
        for name, t in (("trans.csv", 1.0), ("refl.csv", 0.0)):
            table = predicted_distribution(0.3, (0.45, 0.40), t, det, 12)
            hist = sample(table, 400_000, seed=int(t))
            write_histogram_csv(hist, tmp_path / name)
        path = write_config(tmp_path)
        code = main(["--config", str(path), "--out-dir", str(tmp_path), "tomography",
                     str(tmp_path / "trans.csv"), str(tmp_path / "refl.csv")])
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
