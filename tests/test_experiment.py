import json
import math
import re
from importlib import resources

import numpy as np
import pytest

from vibsim.experiment import (
    DetectorModel,
    ExperimentModel,
    SMSVPair,
    TMSV,
    build_circuit,
    effective_state,
    experiment_section,
    model_fidelity,
    observed_distribution,
    parse_experiment,
    parse_target,
)
from vibsim.fixtures import IDEAL_BS_TRANSMISSION, characterized_model, tropolone_target
from vibsim.gaussian import fidelity, mean_photon, replay, vacuum
from vibsim.metrics import tvd
from vibsim.vibronic import fc_factors

IDEAL_DET = DetectorModel(0.0, 0.0, 1.0)


def ideal_model(detector=IDEAL_DET):
    return ExperimentModel(
        source=SMSVPair(0.72, 0.19),
        bs_transmission=IDEAL_BS_TRANSMISSION,
        detector=detector,
    )


class TestBuildCircuit:
    def test_ideal_model_reaches_target(self):
        state = effective_state(ideal_model())
        target = tropolone_target().state()
        assert np.max(np.abs(state.cov - target.cov)) < 1e-12
        assert np.max(np.abs(state.mean - target.mean)) < 1e-12

    def test_tmsv_on_balanced_splitter(self):
        model = ExperimentModel(source=TMSV(0.6), bs_transmission=0.5, detector=IDEAL_DET)
        state = effective_state(model)
        pair = effective_state(
            ExperimentModel(source=SMSVPair(0.6, 0.6), bs_transmission=1.0, detector=IDEAL_DET)
        )
        assert np.max(np.abs(state.cov - pair.cov)) < 1e-12

    def test_loss_scales_photons(self):
        lossless = effective_state(ideal_model())
        model = ideal_model().with_values(loss_pre=(0.4, 0.4))
        lossy = effective_state(model)
        for mode in range(2):
            total = mean_photon(lossless, 0) + mean_photon(lossless, 1)
            total_lossy = mean_photon(lossy, 0) + mean_photon(lossy, 1)
        assert total_lossy == pytest.approx(0.4 * total, abs=1e-12)

    def test_balanced_pre_equals_post_loss(self):
        pre = effective_state(ideal_model().with_values(loss_pre=(0.55, 0.55)))
        post = effective_state(ideal_model().with_values(loss_post=(0.55, 0.55)))
        assert np.max(np.abs(pre.cov - post.cov)) < 1e-12

    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            ExperimentModel(source=TMSV(0.5), bs_transmission=1.2)
        with pytest.raises(ValueError):
            ExperimentModel(source=SMSVPair(-0.1, 0.2), bs_transmission=0.5)
        with pytest.raises(ValueError, match="at most 350"):  # sinh(r)**2 overflows from 355.6
            TMSV(np.array([0.2, 356.0]))
        with pytest.raises(ValueError, match="at most 350"):
            SMSVPair(0.1, 1e3)
        with pytest.raises(ValueError):
            DetectorModel(dark_p1=1.5)
        with pytest.raises(ValueError):  # no geometric law has P(>= 1 count) = 1
            DetectorModel(dark_p1=1.0)


class TestModelFidelity:
    def test_ideal_optics_noisy_detectors(self):
        f = model_fidelity(ideal_model(DetectorModel()), tropolone_target())
        assert f == pytest.approx(0.9958, abs=1e-9)

    def test_perfect_everything(self):
        f = model_fidelity(ideal_model(), tropolone_target())
        assert f == pytest.approx(1.0, abs=1e-9)

    def test_fully_distinguishable_worse_than_vacuum(self):
        target = tropolone_target()
        thermal = ideal_model().with_values(distinguishability=1.0)
        f_thermal = model_fidelity(thermal, target)
        f_vac = fidelity(vacuum(2), target.state())
        assert f_thermal < f_vac

    def test_monotone_in_distinguishability(self):
        target = tropolone_target()
        values = [
            model_fidelity(ideal_model().with_values(distinguishability=d), target)
            for d in np.linspace(0.0, 0.9, 10)
        ]
        assert all(b <= a + 1e-9 for a, b in zip(values, values[1:]))

    def test_monotone_in_loss(self):
        target = tropolone_target()
        values = [
            model_fidelity(ideal_model().with_values(loss_pre=(eta, eta)), target)
            for eta in np.linspace(1.0, 0.1, 10)
        ]
        assert all(b <= a + 1e-9 for a, b in zip(values, values[1:]))


class TestObservedDistribution:
    def test_no_imperfections_matches_fc(self):
        observed = observed_distribution(ideal_model(), 18)
        ideal = fc_factors(tropolone_target(), 18)
        assert tvd(observed, ideal) < 1e-9

    def test_dark_counts_on_vacuum_source(self):
        model = ExperimentModel(
            source=SMSVPair(0.0, 0.0), bs_transmission=1.0, detector=DetectorModel()
        )
        table = observed_distribution(model, 6)
        p_single = table.probability((1, 0)) + table.probability((0, 1))
        assert p_single == pytest.approx(2 * 0.002, abs=2e-4)

    def test_with_values_addressing(self):
        model = ExperimentModel(source=TMSV(0.4), bs_transmission=0.5)
        assert model.with_values(r=0.7).source.r == 0.7
        assert model.with_values(bs_transmission=0.3).bs_transmission == 0.3
        with pytest.raises(ValueError):
            model.with_values(r1=0.2)
        pair = ExperimentModel(source=SMSVPair(0.3, 0.2), bs_transmission=0.5)
        assert (pair.with_values(r2=0.1, bs_transmission=0.4)
                == ExperimentModel(SMSVPair(0.3, 0.1), 0.4))
        with pytest.raises(ValueError):
            pair.with_values(r=0.2)


#: a complete section of each target and source kind
COMPLETE_TARGETS = [
    {"kind": "optical", "squeeze": [-0.7, 0.2]},
    {"kind": "transition", "duschinsky": [[1.0, 0.0], [0.0, 1.0]],
     "ground_freqs_cm1": [100.0, 200.0], "excited_freqs_cm1": [120.0, 180.0]},
]
COMPLETE_SOURCES = [{"kind": "tmsv", "r": 0.1}, {"kind": "smsv_pair", "r1": 0.7, "r2": 0.2}]

#: each complete section with one required field dropped, and the error it gives
MISSING_REQUIRED = [
    *(({k: v for k, v in target.items() if k != name},
       f"missing field(s) in the {target['kind']} target: {name}")
      for target in COMPLETE_TARGETS for name in target if name != "kind"),
    *(({"source": {k: v for k, v in source.items() if k != name}, "bs_transmission": 0.5},
       f"missing field(s) in the {source['kind']} source: {name}")
      for source in COMPLETE_SOURCES for name in source if name != "kind"),
]


class TestConfigSection:
    @pytest.mark.parametrize("source", [TMSV(0.41), SMSVPair(0.72, 0.19)], ids=["tmsv", "smsv"])
    def test_section_and_parser_are_inverses(self, source):
        model = ExperimentModel(source, 0.37, loss_pre=(0.6, 0.8), loss_post=(0.9, 1.0),
                                distinguishability=0.04, detector=DetectorModel(0.003, 0.0, 0.99))
        section = experiment_section(model)
        assert parse_experiment(section) == model
        assert experiment_section(parse_experiment(section)) == section
        assert json.loads(json.dumps(section)) == section

    def test_characterized_model_matches_its_json(self):
        data = json.loads(
            resources.files("vibsim.fixtures").joinpath("characterized_experiment.json").read_text()
        )
        section = experiment_section(characterized_model())
        assert section == {k: data[k] for k in section}
        assert characterized_model() == ExperimentModel(
            TMSV(0.5), 0.5, (0.4, 0.4), (1.0, 1.0), 0.06, DetectorModel(0.002, 0.001, 0.9958)
        )

    @pytest.mark.parametrize("section, message", [
        ({"source": {"kind": "laser"}, "bs_transmission": 0.5}, "unknown source kind"),
        ({"source": {"kind": "tmsv", "r": 0.1, "x": 1}, "bs_transmission": 0.5}, "unknown field"),
        ({"source": {"kind": "tmsv", "r": 0.1}}, "missing field"),
        ({"source": {"kind": "tmsv", "r": 0.1}, "bs_transmission": 0.5, "detector": []},
         "must be an object"),
        *MISSING_REQUIRED,
    ])
    def test_parser_rejects(self, section, message):
        # a target section names its kind; an experiment section does not
        parse = parse_target if "kind" in section else parse_experiment
        with pytest.raises(ValueError, match=re.escape(message)):
            parse(section)
