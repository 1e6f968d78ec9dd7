"""Imperfect-experiment model: source, mode mismatch, losses, beam
splitter, detector noise.

The model mirrors the physical setup: a squeezed-light source feeds two
arms, partially distinguishable modes are represented by thermal admixture
on virtual beam splitters right after the source, arm losses sit before
and/or after the interference beam splitter, and detector noise enters as
a classical convolution of the measured counts (plus a constant fidelity
factor for the noise modes the detectors are sensitive to).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

from . import fock
from .gaussian import (
    BeamSplitter,
    Element,
    GaussianCircuit,
    GaussianState,
    Loss,
    Squeeze,
    ThermalMix,
    TwoModeSqueeze,
    fidelity,
    replay,
)
from .tables import FCTable
from .vibronic import OpticalTarget

__all__ = [
    "SMSVPair",
    "TMSV",
    "DetectorModel",
    "ParameterUncertainty",
    "ExperimentModel",
    "build_circuit",
    "effective_state",
    "model_fidelity",
    "observed_distribution",
]


@dataclass(frozen=True)
class SMSVPair:
    """Two independent single-mode squeezers with opposite squeezing axes
    (the configuration a two-mode squeezer converts into on a balanced beam
    splitter): mode 0 carries ``Squeeze(-r1)``, mode 1 ``Squeeze(+r2)``."""

    r1: float
    r2: float

    def __post_init__(self) -> None:
        if not (0.0 <= self.r1 < math.inf and 0.0 <= self.r2 < math.inf):
            raise ValueError("squeezing magnitudes must be finite and >= 0")

    def elements(self) -> list[Element]:
        return [Squeeze(0, -self.r1), Squeeze(1, self.r2)]

    def mode_photons(self) -> tuple[float, float]:
        return (math.sinh(self.r1) ** 2, math.sinh(self.r2) ** 2)


@dataclass(frozen=True)
class TMSV:
    """Two-mode squeezed vacuum of parameter ``r``."""

    r: float

    def __post_init__(self) -> None:
        if not 0.0 <= self.r < math.inf:
            raise ValueError("squeezing magnitude must be finite and >= 0")

    def elements(self) -> list[Element]:
        return [TwoModeSqueeze(0, 1, self.r)]

    def mode_photons(self) -> tuple[float, float]:
        n = math.sinh(self.r) ** 2
        return (n, n)


@dataclass(frozen=True)
class DetectorModel:
    """Noise model of the photon-number-resolving detectors.

    ``dark_p1``: probability of registering at least one spurious count on
    a vacuum input.  ``pump_p2``: probability of a spurious two-photon
    event from leaked pump light.  ``noise_fidelity_factor`` multiplies the
    optical fidelity to account for the detector noise modes.
    """

    dark_p1: float = 0.002
    pump_p2: float = 0.001
    noise_fidelity_factor: float = 0.9958

    def __post_init__(self) -> None:
        for name in ("dark_p1", "pump_p2"):
            v = getattr(self, name)
            if not 0.0 <= v <= 1.0:
                raise ValueError(f"{name} must lie in [0, 1]")
        if not 0.0 < self.noise_fidelity_factor <= 1.0:
            raise ValueError("noise_fidelity_factor must lie in (0, 1]")

    def computed_noise_fidelity(self, num_detectors: int = 2) -> float:
        """Noise-mode fidelity recomputed from first principles: per
        detector, sqrt of the joint no-noise probability of the dark mode
        (thermal) and the pump-leak mode (weak coherent)."""
        p0_dark = 1.0 - self.dark_p1
        # weak coherent state with single-photon component pump_p2
        n_pump = self.pump_p2
        for _ in range(20):  # solve n*exp(-n) = pump_p2
            n_pump = self.pump_p2 * math.exp(n_pump)
        p0_pump = math.exp(-n_pump)
        per_detector = math.sqrt(p0_dark * p0_pump)
        return per_detector**num_detectors

    def ideal(self) -> "DetectorModel":
        return DetectorModel(0.0, 0.0, 1.0)


@dataclass(frozen=True)
class ParameterUncertainty:
    """Absolute one-sigma uncertainties of the characterized parameters."""

    sigma_loss: float = 0.02
    sigma_r: float = 0.01
    sigma_delta: float = 0.02
    sigma_t: float = 0.01

    def __post_init__(self) -> None:
        for name in ("sigma_loss", "sigma_r", "sigma_delta", "sigma_t"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be >= 0")


@dataclass(frozen=True)
class ExperimentModel:
    """Controllable and uncontrollable parameters of the setup.

    ``bs_transmission`` is the intensity transmission of the interference
    beam splitter; ``loss_pre``/``loss_post`` are per-arm intensity
    transmissions before/after it; ``distinguishability`` is the fraction
    of non-interfering light in each arm.
    """

    source: SMSVPair | TMSV
    bs_transmission: float
    loss_pre: tuple[float, float] = (1.0, 1.0)
    loss_post: tuple[float, float] = (1.0, 1.0)
    distinguishability: float = 0.0
    detector: DetectorModel = field(default_factory=DetectorModel)

    def __post_init__(self) -> None:
        object.__setattr__(self, "loss_pre", tuple(float(x) for x in self.loss_pre))
        object.__setattr__(self, "loss_post", tuple(float(x) for x in self.loss_post))
        if len(self.loss_pre) != 2 or len(self.loss_post) != 2:
            raise ValueError("loss_pre and loss_post need one entry per arm")
        for v in (*self.loss_pre, *self.loss_post, self.bs_transmission, self.distinguishability):
            if not 0.0 <= v <= 1.0:
                raise ValueError("transmissions and probabilities must lie in [0, 1]")

    def with_values(self, **updates) -> "ExperimentModel":
        """Copy with replaced fields; ``r``, ``r1``, ``r2`` address the
        source and ``t_bs`` the beam-splitter transmission."""
        model = self
        if "r" in updates:
            if not isinstance(model.source, TMSV):
                raise ValueError("'r' addresses a TMSV source")
            model = replace(model, source=TMSV(updates.pop("r")))
        if "r1" in updates or "r2" in updates:
            if not isinstance(model.source, SMSVPair):
                raise ValueError("'r1'/'r2' address an SMSV pair source")
            src = SMSVPair(
                updates.pop("r1", model.source.r1), updates.pop("r2", model.source.r2)
            )
            model = replace(model, source=src)
        if "t_bs" in updates:
            model = replace(model, bs_transmission=updates.pop("t_bs"))
        if updates:
            model = replace(model, **updates)
        return model


def build_circuit(model: ExperimentModel) -> GaussianCircuit:
    """Gaussian circuit of the optical part of the model (detector noise is
    applied downstream, not here)."""
    elements: list[Element] = list(model.source.elements())
    delta = model.distinguishability
    if delta > 0.0:
        for mode, nbar in enumerate(model.source.mode_photons()):
            elements.append(ThermalMix(mode, delta, nbar))
    for mode, eta in enumerate(model.loss_pre):
        if eta < 1.0:
            elements.append(Loss(mode, eta))
    theta = math.acos(math.sqrt(model.bs_transmission))
    if theta != 0.0:
        elements.append(BeamSplitter(0, 1, theta))
    for mode, eta in enumerate(model.loss_post):
        if eta < 1.0:
            elements.append(Loss(mode, eta))
    return GaussianCircuit(2, elements)


def effective_state(model: ExperimentModel) -> GaussianState:
    return replay(build_circuit(model))


def model_fidelity(model: ExperimentModel, target: OpticalTarget) -> float:
    """Fidelity of the modelled state to the target, including the detector
    noise-mode factor."""
    optical = fidelity(effective_state(model), target.state())
    return optical * model.detector.noise_fidelity_factor


def observed_distribution(model: ExperimentModel, cutoff: int, **replay_kwargs) -> FCTable:
    """Photon-number statistics the detectors would record."""
    rho = fock.replay_fock(build_circuit(model), cutoff, **replay_kwargs)
    return fock.attach_detector_noise(rho, model.detector)
