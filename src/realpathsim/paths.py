"""The path ensemble every model in the package builds.

``PathEnsemble`` is a finite indexed family of paths carrying unit-modulus
amplitudes: float64 when every amplitude is real, complex128 otherwise.
Indices run 1..N in the order given, the convention used throughout for
toy ensembles.

Units are natural (hbar = c = 1); the amplitude convention is
A(P) = exp(-i S(P)).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import EmptyEnsemble, NonUnitAmplitude

UNIT_MODULUS_ATOL = 1e-12

# amplitudes checked at once, through one reused buffer sized to stay in cache
_UNIT_BLOCK = 1 << 15


def _require_unit_modulus(amps: np.ndarray, atol: float):
    """Raise NonUnitAmplitude at the first A with ||A| - 1| > atol or NaN.

    Checked _UNIT_BLOCK amplitudes at a time, through one reused buffer.
    """
    buf = np.empty(min(amps.size, _UNIT_BLOCK))
    for lo in range(0, amps.size, _UNIT_BLOCK):
        block = amps[lo : lo + _UNIT_BLOCK]
        dev = np.abs(block, out=buf[: block.size])
        dev -= 1.0
        np.abs(dev, out=dev)
        if not dev.max() <= atol:  # a NaN fails too
            i = lo + int(np.argmin(dev <= atol))
            raise NonUnitAmplitude(i + 1, complex(amps[i]))


@dataclass(frozen=True)
class PathEnsemble:
    """Finite set of paths with unit-modulus amplitudes, indexed 1..N.

    Real input is kept as float64, so a real ensemble never takes complex
    arithmetic; anything else is cast to complex128.
    """

    amplitudes: np.ndarray
    endpoint_tag: str = "B"

    def __post_init__(self):
        amps = np.asarray(self.amplitudes)
        amps = amps.astype(np.float64 if np.isrealobj(amps) else np.complex128, copy=False)
        if amps.ndim != 1 or amps.size == 0:
            raise EmptyEnsemble("ensemble needs a non-empty 1-d amplitude list")
        _require_unit_modulus(amps, UNIT_MODULUS_ATOL)
        object.__setattr__(self, "amplitudes", amps)

    @property
    def n_paths(self) -> int:
        return int(self.amplitudes.size)
