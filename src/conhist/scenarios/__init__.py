"""Built-in scenario registry."""

from __future__ import annotations

from typing import Callable

from .base import Expectation, ExpectationResult, Scenario
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


def build(name: str) -> Scenario:
    try:
        builder = BUILDERS[name]
    except KeyError:
        raise KeyError(
            f"unknown scenario {name!r}; available: {sorted(BUILDERS)}"
        ) from None
    return builder()


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
