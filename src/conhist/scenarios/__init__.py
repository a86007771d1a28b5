"""Built-in scenario registry."""

from __future__ import annotations

from typing import Callable, Sequence

from ..histories import Family
from .base import Expectation, ExpectationResult, Scenario, pick
from .epr import build_epr
from .hardy import build_hardy
from .spin_half import build_spin_half
from .wavepacket import build_wavepacket

BUILDERS: dict[str, Callable[[], Scenario]] = {
    "spin-half": build_spin_half,
    "wavepacket": build_wavepacket,
    "epr": build_epr,
    "hardy": build_hardy,
}


def build(name: str, families: Sequence[str] | None = None) -> Scenario | dict[str, Family]:
    """The scenario ``name``, or only its ``families``, by name: wavepacket builds
    just those, and the models that build in a few ms build whole and select."""
    try:
        builder = BUILDERS[name]
    except KeyError:
        raise KeyError(
            f"unknown scenario {name!r}; available: {sorted(BUILDERS)}"
        ) from None
    if families is None:
        return builder()
    if builder is build_wavepacket:
        return builder(families=families)
    return pick(builder().families, families)


__all__ = [
    "BUILDERS",
    "Expectation",
    "ExpectationResult",
    "Scenario",
    "build",
    "build_epr",
    "build_hardy",
    "build_spin_half",
    "build_wavepacket",
]
