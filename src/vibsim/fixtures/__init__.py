"""Bundled reference scenario: the tropolone target, the characterized
experiment that estimated it, and the reference Franck-Condon tables used
by the golden tests."""

from __future__ import annotations

import copy
import json
import math
from importlib import resources

from ..experiment import ExperimentModel, ParameterUncertainty, parse_experiment, parse_target
from ..tables import FCTable
from ..vibronic import OpticalTarget

__all__ = [
    "tropolone_section",
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


def tropolone_section() -> dict:
    """The tropolone scenario as a fresh ``optical`` target config section."""
    # the file holds the section's fields beside two of its own
    fields = {k: v for k, v in _TROPOLONE.items() if k not in ("version", "description")}
    return {"kind": "optical", **copy.deepcopy(fields)}


def tropolone_target() -> OpticalTarget:
    """Ideal two-mode target of the tropolone scenario."""
    return parse_target(tropolone_section())[0]


def tropolone_excited_freqs() -> tuple[float, float]:
    return parse_target(tropolone_section())[1]


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
