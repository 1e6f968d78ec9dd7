"""Shared tabular data types: photon-number probability tables and count
histograms."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator, Mapping

__all__ = ["FCTable", "CountHistogram", "sink_outcome", "is_sink"]

Outcome = tuple[int, ...]


def sink_outcome(num_modes: int) -> Outcome:
    """Reserved outcome pooling all mass outside a table's listed support."""
    return (-1,) * num_modes


def is_sink(outcome: Outcome) -> bool:
    return any(m < 0 for m in outcome)


@dataclass(frozen=True)
class FCTable:
    """Map from photon-number outcome to probability.

    ``entries`` holds the listed support, whose mass must stay below
    1 + 1e-6.  The tail is derived from the entries: ``tail_mass`` is the
    probability they leave unlisted, ``max(0, 1 - sum(entries))``.
    """

    entries: dict[Outcome, float]

    def __post_init__(self) -> None:
        object.__setattr__(self, "entries", dict(self.entries))
        total = sum(self.entries.values())
        if not total < 1 + 1e-6:
            raise ValueError(f"table mass {total} is not a probability")

    @property
    def tail_mass(self) -> float:
        return max(0.0, 1.0 - sum(self.entries.values()))

    @property
    def num_modes(self) -> int:
        return len(next(iter(self.entries)))

    def probability(self, outcome: Outcome) -> float:
        return self.entries.get(tuple(outcome), 0.0)

    def items(self) -> Iterator[tuple[Outcome, float]]:
        return iter(sorted(self.entries.items()))

    def with_sink(self) -> "FCTable":
        """Fold the unlisted remainder into an explicit sink outcome."""
        entries = dict(self.entries)
        residual = self.tail_mass
        if residual > 0.0:
            key = sink_outcome(self.num_modes)
            entries[key] = entries.get(key, 0.0) + residual
        return FCTable(entries)


@dataclass(frozen=True)
class CountHistogram:
    """Observed photon-number counts for one detector setting."""

    counts: dict[Outcome, int]
    total_shots: int
    metadata: Mapping[str, object] = field(default_factory=dict)

    def __post_init__(self) -> None:
        object.__setattr__(self, "counts", dict(self.counts))
        object.__setattr__(self, "metadata", dict(self.metadata))
        if self.total_shots <= 0:
            raise ValueError("total_shots must be positive")
        if sum(self.counts.values()) != self.total_shots:
            raise ValueError("counts do not sum to total_shots")
        if any(c < 0 for c in self.counts.values()):
            raise ValueError("negative count")

    @property
    def num_modes(self) -> int:
        return len(next(iter(self.counts)))

    def frequencies(self) -> FCTable:
        """Relative frequencies as a probability table."""
        return FCTable({k: c / self.total_shots for k, c in self.counts.items() if c})
