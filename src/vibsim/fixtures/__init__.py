"""Bundled reference scenario: the tropolone target, the characterized
experiment that estimated it, and the reference Franck-Condon tables used
by the golden tests."""

from __future__ import annotations

import json
import math
from importlib import resources

from ..experiment import ExperimentModel, ParameterUncertainty, parse_experiment
from ..gaussian import BeamSplitter
from ..tables import FCTable
from ..vibronic import OpticalTarget

__all__ = [
    "tropolone_target",
    "tropolone_excited_freqs",
    "characterized_model",
    "parameter_uncertainty",
    "reference_table",
    "IDEAL_BS_TRANSMISSION",
]


def _load(name: str) -> dict:
    with resources.files(__package__).joinpath(name).open("r") as fh:
        return json.load(fh)


_TROPOLONE = _load("tropolone.json")
_EXPERIMENT = _load("characterized_experiment.json")
_TABLES = _load("reference_tables.json")

#: intensity transmission of the ideal tropolone beam splitter
IDEAL_BS_TRANSMISSION = float(math.cos(_TROPOLONE["bs_angle"]) ** 2)


def tropolone_target() -> OpticalTarget:
    """Ideal two-mode target of the tropolone scenario."""
    return OpticalTarget(
        squeeze=tuple(_TROPOLONE["squeeze"]),
        interferometer=(BeamSplitter(0, 1, _TROPOLONE["bs_angle"]),),
        displacement=tuple(complex(d) for d in _TROPOLONE["displacement"]),
    )


def tropolone_excited_freqs() -> tuple[float, float]:
    return tuple(_TROPOLONE["excited_freqs_cm1"])


def characterized_model() -> ExperimentModel:
    """Characterized experiment model (imperfections fixed, controllables at
    their configured starting values)."""
    # the file holds an experiment section beside three fields of its own
    own = ("version", "description", "uncertainties")
    return parse_experiment({k: v for k, v in _EXPERIMENT.items() if k not in own})


def parameter_uncertainty() -> ParameterUncertainty:
    return ParameterUncertainty(**_EXPERIMENT["uncertainties"])


def reference_table(column: str) -> FCTable:
    """One column of the reference tables as a probability table."""
    outcomes = [tuple(o) for o in _TABLES["outcomes"]]
    return FCTable({o: float(v) for o, v in zip(outcomes, _TABLES[column])})
