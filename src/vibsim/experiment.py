"""Imperfect-experiment model: source, mode mismatch, losses, beam
splitter, detector noise.

The model mirrors the physical setup: a squeezed-light source feeds two
arms, partially distinguishable modes are represented by thermal admixture
on virtual beam splitters right after the source, arm losses sit before
and/or after the interference beam splitter, and detector noise enters as
a classical convolution of the measured counts (plus a constant fidelity
factor for the noise modes the detectors are sensitive to).  Models that
differ in a few values are evaluated as one stack (:func:`model_fidelities`).
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field, fields, replace

import numpy as np

from . import fock
from .gaussian import (
    BeamSplitter,
    Element,
    GaussianCircuit,
    GaussianState,
    Loss,
    MAX_SQUEEZING,
    Squeeze,
    ThermalMix,
    TwoModeSqueeze,
    _anywhere,
    _each,
    replay,
    stacked_fidelity,
)
from .tables import FCTable
from .vibronic import OpticalTarget, VibronicTransition, doktorov_decompose

__all__ = [
    "SMSVPair",
    "TMSV",
    "SOURCE_KINDS",
    "DetectorModel",
    "ParameterUncertainty",
    "ExperimentModel",
    "build_circuit",
    "effective_state",
    "model_fidelity",
    "model_fidelities",
    "observed_distribution",
    "check_keys",
    "parse_target",
    "parse_experiment",
    "experiment_section",
]


def _finite_within(hi: float, *values) -> bool:
    """Whether every number, or every entry of every column, is finite and
    lies in [0, hi]; NaN propagates through the extremes, and fails."""
    v = np.concatenate([np.ravel(x) for x in values])
    top = v.max()
    return bool(v.min() >= 0.0 and top <= hi and top < math.inf)


@dataclass(frozen=True)
class SMSVPair:
    """Two independent single-mode squeezers with opposite squeezing axes
    (the configuration a two-mode squeezer converts into on a balanced beam
    splitter): mode 0 carries ``Squeeze(-r1)``, mode 1 ``Squeeze(+r2)``.
    Like :class:`TMSV`, it may hold columns (see :func:`model_fidelities`)."""

    r1: float
    r2: float

    def __post_init__(self) -> None:
        if not _finite_within(MAX_SQUEEZING, self.r1, self.r2):
            raise ValueError(
                f"squeezing magnitudes must be finite, >= 0 and at most {MAX_SQUEEZING:g}")

    def elements(self) -> list[Element]:
        return [Squeeze(0, -self.r1), Squeeze(1, self.r2)]

    def mode_photons(self) -> tuple[float, float]:
        return tuple(_each(lambda r: math.sinh(r) ** 2, r) for r in (self.r1, self.r2))


@dataclass(frozen=True)
class TMSV:
    """Two-mode squeezed vacuum of parameter ``r``."""

    r: float

    def __post_init__(self) -> None:
        if not _finite_within(MAX_SQUEEZING, self.r):
            raise ValueError(
                f"squeezing magnitude must be finite, >= 0 and at most {MAX_SQUEEZING:g}")

    def elements(self) -> list[Element]:
        return [TwoModeSqueeze(0, 1, self.r)]

    def mode_photons(self) -> tuple[float, float]:
        n = _each(lambda r: math.sinh(r) ** 2, self.r)
        return (n, n)


#: config ``kind`` of each source class.  A class's dataclass fields are
#: its parameter names, in the order the Monte Carlo draws them.
SOURCE_KINDS = {"tmsv": TMSV, "smsv_pair": SMSVPair}
#: every source parameter name, of whichever kind
_SOURCE_PARAMETERS = {f.name for cls in SOURCE_KINDS.values() for f in fields(cls)}


@dataclass(frozen=True)
class DetectorModel:
    """Noise model of the photon-number-resolving detectors.

    ``dark_p1``: probability, below 1, of registering at least one spurious
    count on a vacuum input.  ``pump_p2``: probability of a spurious two-photon
    event from leaked pump light.  ``noise_fidelity_factor`` multiplies the
    optical fidelity to account for the detector noise modes.
    """

    dark_p1: float = 0.002
    pump_p2: float = 0.001
    noise_fidelity_factor: float = 0.9958

    def __post_init__(self) -> None:
        # no geometric count law has P(>= 1) = 1
        if not 0.0 <= self.dark_p1 < 1.0:
            raise ValueError("dark_p1 must lie in [0, 1)")
        if not 0.0 <= self.pump_p2 <= 1.0:
            raise ValueError("pump_p2 must lie in [0, 1]")
        if not 0.0 < self.noise_fidelity_factor <= 1.0:
            raise ValueError("noise_fidelity_factor must lie in (0, 1]")

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
        for f in fields(self):
            value = getattr(self, f.name)
            if not 0.0 <= value < math.inf:
                raise ValueError(f"{f.name} must be finite and >= 0")
            # an integer beyond the float range fails here, not in a draw
            object.__setattr__(self, f.name, float(value))


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
        _check_unit(*self.loss_pre, *self.loss_post, self.bs_transmission, self.distinguishability)

    def with_values(self, **updates) -> "ExperimentModel":
        """Copy with replaced fields; the source's field names (its
        parameters) address the source."""
        own = {f.name: updates.pop(f.name) for f in fields(self.source) if f.name in updates}
        stray = _SOURCE_PARAMETERS.intersection(updates)
        if stray:
            raise ValueError(
                f"not a parameter of a {type(self.source).__name__} source: "
                + ", ".join(sorted(stray))
            )
        if own:
            updates["source"] = replace(self.source, **own)
        return replace(self, **updates) if updates else self


def _check_unit(*values) -> None:
    if not _finite_within(1.0, *values):
        raise ValueError("transmissions and probabilities must lie in [0, 1]")


def _mixing_angle(t: float) -> float:
    return math.acos(math.sqrt(t))


def _elements(source, delta, loss_pre, theta, loss_post) -> list[Element]:
    """Optical elements of a model, or of a stack of models: then ``source``
    and the values are columns.  An optional element (the thermal admixture,
    each arm's loss, the beam splitter) is kept when any model needs it; a
    model at its no-op value (δ = 0, η = 1, θ = 0) passes through it with the
    same bits, bar the sign of a zero entry."""
    elements: list[Element] = list(source.elements())
    if _anywhere(delta > 0.0):
        elements += [ThermalMix(m, delta, nbar) for m, nbar in enumerate(source.mode_photons())]
    elements += [Loss(m, eta) for m, eta in enumerate(loss_pre) if _anywhere(eta < 1.0)]
    if _anywhere(theta != 0.0):
        elements.append(BeamSplitter(0, 1, theta))
    elements += [Loss(m, eta) for m, eta in enumerate(loss_post) if _anywhere(eta < 1.0)]
    return elements


def build_circuit(model: ExperimentModel) -> GaussianCircuit:
    """Gaussian circuit of the optical part of the model (detector noise is
    applied downstream, not here); an element at its no-op value is left out."""
    return GaussianCircuit(2, _elements(model.source, model.distinguishability, model.loss_pre,
                                        _mixing_angle(model.bs_transmission), model.loss_post))


def effective_state(model: ExperimentModel) -> GaussianState:
    return replay(build_circuit(model))


def model_fidelity(model: ExperimentModel, target: OpticalTarget) -> float:
    """Fidelity of the modelled state to the target, including the detector
    noise-mode factor: :func:`model_fidelities` of the model alone."""
    return float(model_fidelities(model, target)[0])


def model_fidelities(template: ExperimentModel, target: OpticalTarget, **columns) -> np.ndarray:
    """:func:`model_fidelity`, bit for bit, of each model the template gives
    with one row of ``columns`` in place of its values.  Columns are named
    as :meth:`ExperimentModel.with_values` names fields, with one value per
    model (two for ``loss_pre`` and ``loss_post``).  No model is built: each
    column's range is checked once, the source is rebuilt with its columns
    as fields, and a value that no column replaces stays the template's one
    value, checked when the template was built.  All models are replayed as
    one stack (see :func:`_elements`)."""
    count = len(next(iter(columns.values()))) if columns else 1

    def column(name: str, shape=()) -> np.ndarray:
        out = np.empty((count, *shape))
        out[...] = columns.pop(name)
        return out.T  # a loss column as one row per arm

    source = template.source
    own = {f.name: column(f.name) for f in fields(source) if f.name in columns}
    source = replace(source, **own) if own else source  # which checks the source's columns
    t, delta, loss_pre, loss_post = (
        column(k, (2,) if k.startswith("loss") else ()) if k in columns else getattr(template, k)
        for k in ("bs_transmission", "distinguishability", "loss_pre", "loss_post"))
    if columns:
        raise ValueError(f"not a parameter of the model: {', '.join(sorted(columns))}")
    given = [v for v in (t, delta, loss_pre, loss_post) if isinstance(v, np.ndarray)]
    if given:
        _check_unit(*given)
    elements = _elements(source, delta, loss_pre, _each(_mixing_angle, t), loss_post)
    fidelities = stacked_fidelity(elements, count, target.state())
    return fidelities * template.detector.noise_fidelity_factor


def observed_distribution(model: ExperimentModel, cutoff: int) -> FCTable:
    """Photon-number statistics the detectors would record: :func:`fock.replay_fock`'s
    counts, bit for bit, from its density's number-balanced sector held alone (c^3 entries)."""
    rho = fock._photon_counts(build_circuit(model), cutoff)
    return fock.attach_detector_noise(rho, model.detector)


def check_keys(obj: dict, where: str, required: set[str], optional: set[str]) -> None:
    """Reject a config section that is not an object, or whose fields are
    unknown or missing."""
    if not isinstance(obj, dict):
        raise ValueError(f"{where} must be an object")
    unknown = set(obj) - required - optional
    if unknown:
        raise ValueError(f"unknown field(s) in {where}: {', '.join(sorted(unknown))}")
    missing = required - set(obj)
    if missing:
        raise ValueError(f"missing field(s) in {where}: {', '.join(sorted(missing))}")


#: largest magnitude of a target's beam-splitter angle and of each part of its
#: displacement, the couplings of its ladder-operator generators.  A displacement
#: of 1e6 holds 1e12 photons on average, past any cutoff that memory holds, and
#: float64 still resolves an angle of 1e6 to 1e-10; 1e308 overflowed the Fock
#: generators (a coupling times up to the cutoff) and the fidelity's quadratic
#: form in the displacement
MAX_COUPLING = 1e6

#: the required and the optional fields of each target kind besides its ``kind``
_TARGET_FIELDS = {
    "optical": ({"squeeze"}, {"bs_angle", "displacement", "excited_freqs_cm1"}),
    "transition": ({"duschinsky", "ground_freqs_cm1", "excited_freqs_cm1"}, {"displacement"}),
}


def parse_target(obj: dict) -> tuple[OpticalTarget, tuple[float, ...] | None]:
    """Target of a ``target`` config section, and its excited-state
    frequencies if the section gives them."""
    check_keys(obj, "target", {"kind"}, set().union(*(r | o for r, o in _TARGET_FIELDS.values())))
    kind = obj["kind"]
    if not isinstance(kind, str) or kind not in _TARGET_FIELDS:
        raise ValueError(f"unknown target kind {kind!r}")
    required, optional = _TARGET_FIELDS[kind]
    check_keys(obj, f"the {kind} target", {"kind"} | required, optional)
    if kind == "optical":
        # OpticalTarget checks each value, through the circuit it builds
        squeeze = tuple(float(r) for r in obj["squeeze"])
        interferometer = ()
        if "bs_angle" in obj:
            if len(squeeze) != 2:
                raise ValueError("bs_angle applies to two-mode targets only")
            interferometer = (BeamSplitter(0, 1, float(obj["bs_angle"])),)
        pairs = obj.get("displacement", [])
        if any(not isinstance(d, (list, tuple)) or len(d) != 2 for d in pairs):
            raise ValueError("target displacement entries must be [re, im] pairs")
        disp = tuple(complex(d[0], d[1]) for d in pairs)
        freqs = tuple(float(f) for f in obj.get("excited_freqs_cm1") or ())
        if not all(math.isfinite(f) for f in freqs):
            raise ValueError("target excited_freqs_cm1 must be finite")
        if freqs and len(freqs) != len(squeeze):
            raise ValueError("excited_freqs_cm1 needs one frequency per mode")
        target = OpticalTarget(squeeze, interferometer, disp)
        _check_couplings(obj)
        return target, freqs or None
    disp = obj.get("displacement")
    transition = VibronicTransition(
        duschinsky=np.array(obj["duschinsky"], dtype=float),
        ground_freqs=np.array(obj["ground_freqs_cm1"], dtype=float),
        excited_freqs=np.array(obj["excited_freqs_cm1"], dtype=float),
        displacement=np.array(disp, dtype=float) if disp else None,
    )
    _check_couplings(obj)
    return doktorov_decompose(transition), tuple(transition.excited_freqs.tolist())


def _check_couplings(obj: dict) -> None:
    """Refuse a target section's ``bs_angle`` or ``displacement`` value beyond
    MAX_COUPLING in magnitude; the target, built first, refuses non-finite ones."""
    for name in ("bs_angle", "displacement"):
        if np.any(np.abs(np.asarray(obj.get(name, []), dtype=float)) > MAX_COUPLING):
            raise ValueError(f"target {name} {obj[name]} lies beyond ±{MAX_COUPLING:g}")


def parse_experiment(obj: dict) -> ExperimentModel:
    """Model of an ``experiment`` config section; the inverse of
    :func:`experiment_section`."""
    check_keys(obj, "experiment", {"source", "bs_transmission"}, {
        "loss_pre", "loss_post", "distinguishability", "detector",
    })
    src = obj["source"]
    check_keys(src, "experiment.source", {"kind"}, _SOURCE_PARAMETERS)
    kind = src["kind"]
    if not isinstance(kind, str) or kind not in SOURCE_KINDS:
        raise ValueError(f"unknown source kind {kind!r}")
    cls = SOURCE_KINDS[kind]
    check_keys(src, f"the {kind} source", {"kind"} | {f.name for f in fields(cls)}, set())
    det_obj = obj.get("detector", {})
    check_keys(det_obj, "experiment.detector", set(), {f.name for f in fields(DetectorModel)})
    return ExperimentModel(
        source=cls(**{f.name: float(src[f.name]) for f in fields(cls)}),
        bs_transmission=float(obj["bs_transmission"]),
        loss_pre=tuple(obj.get("loss_pre", (1.0, 1.0))),
        loss_post=tuple(obj.get("loss_post", (1.0, 1.0))),
        distinguishability=float(obj.get("distinguishability", 0.0)),
        detector=DetectorModel(**det_obj),
    )


def experiment_section(model: ExperimentModel) -> dict:
    """``experiment`` config section of a model; the inverse of
    :func:`parse_experiment`."""
    kind = next(k for k, cls in SOURCE_KINDS.items() if type(model.source) is cls)
    return {
        "source": {"kind": kind, **asdict(model.source)},
        "bs_transmission": model.bs_transmission,
        "loss_pre": list(model.loss_pre),
        "loss_post": list(model.loss_post),
        "distinguishability": model.distinguishability,
        "detector": asdict(model.detector),
    }
