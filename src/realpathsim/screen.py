"""Interferometry with a screen: composite particle x screen ensembles.

The full history of one detection runs from emission (t=0) to well after
impact (t=T_f): a particle path to endpoint B_j in product with a
pre-impact screen path, followed in sequence by a post-absorption screen
path whose constant-phase block sits at an impact anchor M''_j:

    (particle path  x  screen path)  then  post-absorption screen path.

Component families are indexed ensembles: each endpoint j has its own
multi-beam particle family (disjoint index spaces across endpoints, so
the cross-endpoint particle distance defaults to infinity), the
pre-impact screen family is one shared single-block pattern, and the
post-absorption family is a shared index space whose block position
depends on the impact endpoint.  The block width K'' is one constant
for all endpoints; letting it vary would let post-impact screen
dynamics retroactively shift detection probabilities.

The composite distance is the max of component step distances, so the
smeared amplitude and volume of every composite path come from the
engine's separable banded kernel (``engine.banded_smeared``) over the
three components.  This evaluates the whole composite ensemble in
O(total paths) without materializing any composite path objects; the
tests check it against the dense engine on the materialized ensemble.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .engine import banded_smeared, weighted_probabilities
from .errors import ModelTooLarge, SpecViolation
from .toymodels import M1Spec, M3Spec, build_m1, build_m3


@dataclass(frozen=True)
class ScreenSpec:
    """Parameters of the screen model.

    ``endpoints`` maps each impact point B_j to its particle-path family
    (an M3Spec); ``screen_before`` is the shared pre-impact screen family
    (M1Spec); the post-absorption family has ``n_after`` paths with a
    constant block of width ``k_after``+1 anchored at ``anchors[j]``.
    """

    D: int
    endpoints: tuple  # of M3Spec
    screen_before: M1Spec
    n_after: int
    k_after: int
    anchors: tuple

    def __post_init__(self):
        object.__setattr__(self, "endpoints", tuple(self.endpoints))
        object.__setattr__(self, "anchors", tuple(int(a) for a in self.anchors))
        if len(self.endpoints) < 1:
            raise SpecViolation("need at least one endpoint")
        if len(self.anchors) != len(self.endpoints):
            raise SpecViolation("one impact anchor per endpoint required")
        if self.D < 1:
            raise SpecViolation("D must be a positive integer")
        # each anchor block must be a valid single-region pattern;
        # this enforces the parity conditions per endpoint
        for a in self.anchors:
            M1Spec(N=self.n_after, M=a, K=self.k_after)

    @property
    def n_endpoints(self) -> int:
        return len(self.endpoints)

    def total_paths(self) -> int:
        n_before = self.screen_before.N
        return sum(e.N * n_before * self.n_after for e in self.endpoints)

    def validate_separations(self):
        """Ordering chain keeping impact records mutually d-distant."""
        D, K = self.D, self.k_after
        gap = 2 * D + 1
        if not gap < self.anchors[0]:
            raise SpecViolation("need 2D+1 < first impact anchor")
        for a, b in zip(self.anchors, self.anchors[1:]):
            if not b > a + K + gap:
                raise SpecViolation(
                    f"impact anchors {a}, {b} closer than K''+2D+1"
                )
        if not self.anchors[-1] + K + gap < self.n_after:
            raise SpecViolation("last impact anchor too close to the end")

    @classmethod
    def from_dict(cls, data: dict) -> "ScreenSpec":
        endpoints = tuple(
            M3Spec(
                N=int(e["N"]),
                regions=tuple((int(M), int(K), float(th)) for M, K, th in e["regions"]),
            )
            for e in data["endpoints"]
        )
        sb = data["screen_before"]
        sa = data["screen_after"]
        return cls(
            D=int(data["D"]),
            endpoints=endpoints,
            screen_before=M1Spec(N=int(sb["N"]), M=int(sb["M"]), K=int(sb["K"])),
            n_after=int(sa["N"]),
            k_after=int(sa["K"]),
            anchors=tuple(int(a) for a in sa["anchors"]),
        )


MAX_COMPOSITE_PATHS = 10**6


def _components(spec: ScreenSpec, j: int) -> list[np.ndarray]:
    """Particle, pre-impact screen and post-absorption amplitudes of endpoint j."""
    return [
        build_m3(spec.endpoints[j]).amplitudes,
        build_m1(spec.screen_before).amplitudes,
        build_m1(M1Spec(N=spec.n_after, M=spec.anchors[j], K=spec.k_after)).amplitudes,
    ]


@dataclass
class ScreenResult:
    """Per-endpoint unnormalized masses, probabilities and quantum values."""

    totals: dict
    quantum: dict
    probabilities: dict = field(init=False)

    def __post_init__(self):
        z = sum(self.totals.values())
        self.probabilities = {
            j: (t / z if z > 0 else 0.0) for j, t in self.totals.items()
        }

    def ratio_rows(self) -> list[dict]:
        """All ordered endpoint pairs with direct and quantum ratios.

        A zero direct denominator is flagged (degenerate) rather than
        raised; the ratio is reported as inf.
        """
        qz = sum(self.quantum.values()) or 1.0
        tz = sum(self.totals.values()) or 1.0
        rows = []
        for j in self.totals:
            for k in self.totals:
                if j == k:
                    continue
                degenerate = self.totals[k] == 0.0
                direct = math.inf if degenerate else self.totals[j] / self.totals[k]
                quantum = (
                    math.inf if self.quantum[k] == 0.0 else self.quantum[j] / self.quantum[k]
                )
                if math.isinf(quantum) or quantum == 0.0 or math.isinf(direct):
                    rel = math.nan
                else:
                    rel = abs(direct - quantum) / quantum
                rows.append(
                    {
                        "j": j,
                        "k": k,
                        "direct_ratio": direct,
                        "quantum_ratio": quantum,
                        "rel_err": rel,
                        "degenerate": degenerate,
                        "direct_prob_j": self.totals[j] / tz,
                        "quantum_prob_j": self.quantum[j] / qz,
                    }
                )
        return rows


def evaluate_screen_model(spec: ScreenSpec) -> ScreenResult:
    """Endpoint detection masses from the factorized composite evaluation."""
    if spec.total_paths() > MAX_COMPOSITE_PATHS:
        raise ModelTooLarge(
            f"{spec.total_paths()} composite paths exceed {MAX_COMPOSITE_PATHS}"
        )
    spec.validate_separations()

    totals: dict = {}
    quantum: dict = {}
    for j, pspec in enumerate(spec.endpoints):
        smeared, denom = banded_smeared(_components(spec, j), spec.D)
        totals[j] = float(np.sum(weighted_probabilities(smeared, denom)))
        quantum[j] = abs(pspec.beam_sum) ** 2
    return ScreenResult(totals=totals, quantum=quantum)
