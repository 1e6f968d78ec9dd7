"""Self-tests of the benchmark: its checks reject wrong outputs, its inputs
follow the seed, and a failing operation is counted rather than raised.

Run from the root of the checkout:

    python3 bench/selftest.py
"""

from __future__ import annotations

import json
import shutil
import sys
import tempfile
import unittest
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(ROOT / "bench"))

import numpy as np  # noqa: E402

import reference as ref  # noqa: E402
import run as bench  # noqa: E402
import workloads as wl  # noqa: E402


def _read_counts(path: Path) -> np.ndarray:
    rows = np.loadtxt(path, delimiter=",", skiprows=1, dtype=np.int64, ndmin=2)
    size = max(wl.TOMOGRAPHY_CUTOFF, int(rows[:, :2].max()) + 1)
    counts = np.zeros((size, size), dtype=np.int64)
    counts[rows[:, 0], rows[:, 1]] = rows[:, 2]
    return counts


def _files(root: Path) -> dict[str, bytes]:
    return {str(p.relative_to(root)): p.read_bytes() for p in sorted(root.rglob("*"))
            if p.is_file()}


class BenchTestCase(unittest.TestCase):
    def setUp(self) -> None:
        work = ROOT / "bench/.work"
        work.mkdir(parents=True, exist_ok=True)
        self.tmp = Path(tempfile.mkdtemp(prefix="selftest-", dir=work))
        self.addCleanup(shutil.rmtree, self.tmp, ignore_errors=True)

    def assertRejects(self, op, result, exc=wl.WrongOutput) -> None:
        with self.assertRaises(exc):
            op.check(result)

    @staticmethod
    def _edit_json(path: Path, edit) -> None:
        data = json.loads(path.read_text())
        edit(data)
        path.write_text(json.dumps(data))


class ReferenceAgreesWithProgram(BenchTestCase):
    """The independent formulas and vibsim describe the same physics."""

    def test_experiment_covariance(self) -> None:
        from vibsim.experiment import SMSVPair, TMSV, ExperimentModel, effective_state

        for source, params in (("tmsv", {"r": 0.47, "t": 0.31}),
                               ("smsv", {"r1": 0.6, "r2": 0.2, "t": 0.8})):
            src = TMSV(0.47) if source == "tmsv" else SMSVPair(0.6, 0.2)
            model = ExperimentModel(src, params["t"], loss_pre=(0.5, 0.7),
                                    loss_post=(0.9, 0.8), distinguishability=0.05)
            cov = ref.experiment_cov(source, params, loss_pre=(0.5, 0.7),
                                     loss_post=(0.9, 0.8), delta=0.05)
            np.testing.assert_allclose(cov, effective_state(model).cov, atol=1e-14)

    def test_tomography_generator(self) -> None:
        from vibsim.calibrate import predicted_distribution
        from vibsim.experiment import DetectorModel

        probs = ref.lossy_tmsv_counts(0.5, (0.45, 0.4), 0.003, 0.0015)
        det = DetectorModel(0.003, 0.0015)
        for t, table in ((1.0, probs), (0.0, probs.T)):
            pred = predicted_distribution(0.5, (0.45, 0.4), t, det, 20)
            for outcome, p in pred.entries.items():
                self.assertAlmostEqual(p, table[outcome], delta=1e-12)


class ChecksRejectWrongOutputs(BenchTestCase):
    def test_optimize_shifted_fidelity(self) -> None:
        op = next(o for o in wl.design(3, self.tmp) if o.kind == "optimize")
        result = op.run()
        op.check(result)
        path = next(self.tmp.glob("out/*/optimize_result.json"))
        self._edit_json(path, lambda d: d.update(f_star=d["f_star"] - 1e-4))
        self.assertRejects(op, result)

    def test_sweep_shifted_and_increasing(self) -> None:
        ops = wl.design(3, self.tmp)
        op = next(o for o in ops if o.kind == "sweep-loss")
        result = op.run()
        op.check(result)
        path = next(self.tmp.glob("out/*/loss_sweep.csv"))
        good = path.read_text()
        lines = good.splitlines()
        fields = lines[2].split(",")
        fields[3] = repr(float(lines[1].split(",")[3]) + 1e-3)  # f_tmsv rises with loss
        path.write_text("\n".join(lines[:2] + [",".join(fields)]) + "\n")
        self.assertRejects(op, result)
        fields = lines[1].split(",")
        fields[3] = repr(float(fields[3]) - 1e-4)  # f_tmsv short of the optimum
        path.write_text("\n".join(lines[:1] + [",".join(fields)] + lines[2:]) + "\n")
        self.assertRejects(op, result, wl.StoppedShort)

    def test_malformed_contract(self) -> None:
        op = next(o for o in wl.design(3, self.tmp) if o.kind == "malformed")
        op.check((2, "error: cutoff must be an integer\n"))
        self.assertRejects(op, (1, "Traceback (most recent call last):\nValueError: x\n"),
                           wl.ContractFault)
        self.assertRejects(op, (0, ""), wl.ContractFault)

    def test_tomography_biased_fit(self) -> None:
        op = wl.tomography(3, self.tmp)[0]
        result = op.run()
        op.check(result)
        path = self.tmp / "out/0/tomography_fit.json"
        good = path.read_text()
        for key, shift in (("r", 0.03), ("eta", 0.03)):
            path.write_text(good)
            self._edit_json(path, lambda d: d.update(
                {key: d[key] + shift if key == "r" else [d[key][0] + shift, d[key][1]]}))
            self.assertRejects(op, result)

    def test_tomography_fit_stopped_at_start(self) -> None:
        """A self-consistent fit that never left fit_source's start point."""
        op = wl.tomography(3, self.tmp)[0]
        result = op.run()
        path = self.tmp / "out/0/tomography_fit.json"
        dark, pump = (json.loads((self.tmp / "in/0/config.json").read_text())
                      ["experiment"]["detector"].values())
        counts = tuple(_read_counts(self.tmp / f"in/0/{name}.csv") for name in ("trans", "refl"))
        start = (0.3, 0.5, 0.5)
        residual = max(wl._fit_objective(counts, start, dark, pump))
        self._edit_json(path, lambda d: d.update(r=start[0], eta=list(start[1:]),
                                                 residual_tvd=residual))
        self.assertRejects(op, result, wl.StoppedShort)

    def test_spectra_perturbed_probability(self) -> None:
        ops = wl.spectra(3, self.tmp)
        for op in (ops[-1], ops[0]):  # a three-mode and a two-mode target
            result = op.run()
            op.check(result)
            idx = ops.index(op)
            table = self.tmp / f"out/{idx}/ideal/ideal_table.csv"
            good = table.read_text()
            lines = good.splitlines()
            head, rest = lines[1].rsplit(",", 1)
            lines[1] = f"{head},{float(rest) + 1e-5!r}"
            table.write_text("\n".join(lines) + "\n")
            self.assertRejects(op, result)
            table.write_text(good)
            op.check(result)
        report = self.tmp / "out/0/sim/simulate_report.json"
        self._edit_json(report, lambda d: d.update(fidelity=d["fidelity"] + 1e-6))
        self.assertRejects(op, result)


class SeedsAndCounting(BenchTestCase):
    def test_same_seed_same_inputs(self) -> None:
        for name, build in wl.WORKLOADS.items():
            build(11, self.tmp / f"{name}-a")
            build(11, self.tmp / f"{name}-b")
            build(12, self.tmp / f"{name}-c")
            a = _files(self.tmp / f"{name}-a/in")
            b = _files(self.tmp / f"{name}-b/in")
            c = _files(self.tmp / f"{name}-c/in")
            self.assertTrue(a)
            self.assertEqual(a, b, name)
            if name != "spectra":  # fixed pools, see workloads.design
                self.assertEqual(a, c, name)
            else:
                self.assertNotEqual(a, c, name)

    def test_failing_operation_is_counted(self) -> None:
        def boom():
            raise ValueError("invalid literal")

        op = wl.Op("optimize", "raises", boom, lambda r: None, "a named fault")
        rec = bench.execute(op)
        self.assertIn("raised ValueError", rec.failure)
        self.assertFalse(rec.wrong)
        self.assertFalse(rec.timed)
        short = wl.Op("optimize", "short", lambda: 1, lambda r: wl._at_maximum("x", r, 2))
        rec = bench.execute(short)
        self.assertIn("below the independent maximum", rec.failure)
        self.assertFalse(rec.wrong)
        self.assertTrue(rec.timed)
        wrong = wl.Op("optimize", "wrong", lambda: 3, lambda r: wl._at_maximum("x", r, 2))
        rec = bench.execute(wrong)
        self.assertTrue(rec.wrong)


if __name__ == "__main__":
    unittest.main()
