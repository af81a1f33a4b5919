"""Toy interferometry ensembles M1, M2, M3 and their regime formulas.

All three models share one amplitude grammar over indices 1..N: runs of
alternating +1/-1 outside one or more "beam" regions, and a constant
phase exp(-i theta_k) on the K_k+1 adjacent paths of region k.  Parity
conditions (first region start odd, odd inter-region gaps measured from
the previous region end, even tail) make every alternating run start
with -1 after a region and end with -1 before one, which is what drives
the pairwise cancellations.

The closed-form functions return the unnormalized per-path probability
(the probability without the overall constant C) predicted for the step
distance with half-width D:

* zero zones, a plateau, quadratic ramps, and 1/4 (i + D - 1/2)^-1
  boundary artefacts for M1 -- these are exact wherever their strict
  index ranges apply;
* the two-beam interference / no-interference plateau values for M2 --
  exact up to an alternating-tail residue of at most 1 in amplitude.

Indices the strict inequalities omit are reported as "uncovered";
direct evaluation is ground truth there.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import PreconditionViolation, SpecViolation
from .paths import PathEnsemble

_SCALE_FACTOR = 10  # strict reading of "much less than": 10*x <= y


def _require(cond: bool, message: str):
    if not cond:
        raise SpecViolation(message)


@dataclass(frozen=True)
class M1Spec:
    """Single constant-phase region: K+1 paths of amplitude +1 at M..M+K."""

    N: int
    M: int
    K: int

    def __post_init__(self):
        _require(self.M % 2 == 1, f"M={self.M} must be odd")
        _require(
            (self.N - self.M - self.K) % 2 == 0,
            f"N-M-K={self.N - self.M - self.K} must be even",
        )
        _require(1 < self.M, f"need 1 < M, got M={self.M}")
        _require(self.K >= 1, f"need M < M+K, got K={self.K}")
        _require(self.M + self.K < self.N, "need M+K < N")

    def as_m3(self) -> "M3Spec":
        return M3Spec(N=self.N, regions=((self.M, self.K, 0.0),))

    def validate_scale(self):
        """Opt-in smallness conditions K <= M/2 and K <= N/10.

        Kept out of construction: the canonical desk example (N=24, M=9,
        K=3) is meant to build even though 10*K > N.
        """
        _require(2 * self.K <= self.M, f"K={self.K} not small against M={self.M}")
        _require(_SCALE_FACTOR * self.K <= self.N, f"K={self.K} not small against N={self.N}")


@dataclass(frozen=True)
class M2Spec:
    """Two constant-phase regions with phases theta0, theta1."""

    N: int
    M0: int
    K0: int
    M1: int
    K1: int
    theta0: float = 0.0
    theta1: float = 0.0

    def __post_init__(self):
        _require(self.M0 % 2 == 1, f"M0={self.M0} must be odd")
        _require(
            (self.M1 - self.M0 - self.K0) % 2 == 1,
            f"M1-M0-K0={self.M1 - self.M0 - self.K0} must be odd",
        )
        _require(
            (self.N - self.M1 - self.K1) % 2 == 0,
            f"N-M1-K1={self.N - self.M1 - self.K1} must be even",
        )
        _require(1 < self.M0, "need 1 < M0")
        _require(self.K0 >= 1 and self.K1 >= 1, "regions need K >= 1")
        _require(self.M0 + self.K0 < self.M1, "regions must be ordered and disjoint")
        _require(self.M1 + self.K1 < self.N, "need M1+K1 < N")

    def as_m3(self) -> "M3Spec":
        return M3Spec(
            N=self.N,
            regions=(
                (self.M0, self.K0, self.theta0),
                (self.M1, self.K1, self.theta1),
            ),
        )


@dataclass(frozen=True)
class M3Spec:
    """n constant-phase regions (M_k, K_k, theta_k), the multi-beam model."""

    N: int
    regions: tuple

    def __post_init__(self):
        regions = tuple((int(M), int(K), float(th)) for M, K, th in self.regions)
        object.__setattr__(self, "regions", regions)
        _require(len(regions) >= 1, "need at least one region")
        M0 = regions[0][0]
        _require(M0 % 2 == 1, f"M0={M0} must be odd")
        _require(1 < M0, "need 1 < M0")
        prev_end = None
        for k, (M, K, _TH) in enumerate(regions):
            _require(K >= 1, f"region {k} needs K >= 1")
            if prev_end is not None:
                _require(M > prev_end, f"region {k} overlaps region {k-1}")
                # M_k - M_{k-1} - K_{k-1} odd, i.e. an even-length
                # alternating run between consecutive regions
                _require(
                    (M - prev_end) % 2 == 1,
                    f"M{k}-M{k-1}-K{k-1} must be odd",
                )
            prev_end = M + K
        _require(prev_end < self.N, "last region must end before N")
        _require(
            (self.N - prev_end) % 2 == 0,
            f"N-M-K tail = {self.N - prev_end} must be even",
        )

    def as_m3(self) -> "M3Spec":
        return self

    @property
    def beam_sum(self) -> complex:
        """Total quasiclassical amplitude sum_k (K_k + 1) exp(-i theta_k)."""
        return complex(
            sum((K + 1) * np.exp(-1j * th) for _M, K, th in self.regions)
        )

    @property
    def block_range(self) -> tuple[int, int]:
        """(first, last) index of the union of beam regions."""
        return self.regions[0][0], self.regions[-1][0] + self.regions[-1][1]


def _alternating(out: np.ndarray, start_sign: float):
    """Fill ``out`` with start_sign, -start_sign, start_sign, ..."""
    out[::2] = start_sign
    out[1::2] = -start_sign


def build_m3(spec: M3Spec) -> PathEnsemble:
    """Amplitudes per the multi-region pattern; regions get exp(-i theta).

    The run before the first region starts at +1 (the (-1)^(i-1) rule);
    every run after a region starts at -1 (the (-1)^(i-M-K) rule).  The
    parity conditions make each run end at -1 before a region and at +1
    at index N.
    """
    amps = np.empty(spec.N, dtype=np.complex128)
    pos = 1  # next index to fill, 1-based
    for M, K, th in spec.regions:
        _alternating(amps[pos - 1 : M - 1], 1.0 if pos == 1 else -1.0)
        amps[M - 1 : M + K] = np.exp(-1j * th)
        pos = M + K + 1
    _alternating(amps[pos - 1 :], -1.0)
    return PathEnsemble(amps)


def build_m1(spec: M1Spec) -> PathEnsemble:
    return build_m3(spec.as_m3())


def build_m2(spec: M2Spec) -> PathEnsemble:
    return build_m3(spec.as_m3())


@dataclass(frozen=True)
class ClosedFormValue:
    """Predicted unnormalized probability at one index, or a gap marker.

    status is one of "covered", "boundary", "uncovered"; value is None
    exactly when status == "uncovered".
    """

    status: str
    value: float | None = None
    zone: str | None = None


_UNCOVERED = ClosedFormValue("uncovered")


def m1_closed_form(i: int, spec: M1Spec, D: int, strict: bool = False) -> ClosedFormValue:
    """Piecewise regime prediction for M1 with the step distance.

    Exact (not asymptotic) wherever a strict range applies, which needs
    M > 2D+1 and N-M-K > 2D+1.  ``strict=True`` additionally insists on
    D being small against N (10D <= N), the physically interesting
    regime; the formulas do not need it.
    """
    N, M, K = spec.N, spec.M, spec.K
    if not (M > 2 * D + 1):
        raise PreconditionViolation(f"need M > 2D+1, got M={M}, D={D}")
    if not (N - M - K > 2 * D + 1):
        raise PreconditionViolation(f"need N-M-K > 2D+1, got {N - M - K}, D={D}")
    if strict and not (_SCALE_FACTOR * D <= N):
        raise PreconditionViolation(f"strict mode: need 10D <= N, got D={D}, N={N}")
    if not (1 <= i <= N):
        raise PreconditionViolation(f"index {i} outside 1..{N}")

    inv2D = 1.0 / (2.0 * D)
    # boundary artefacts from the clipped window at either end
    if 1 <= i <= D:
        return ClosedFormValue("boundary", 0.25 / (i + D - 0.5), "boundary_left")
    if N + 1 - D <= i <= N:
        return ClosedFormValue("boundary", 0.25 / ((N + 1 - i) + D - 0.5), "boundary_right")

    if 2 * D > K:
        if D + 1 < i < M - D or M + K + D < i < N - (D + 1):
            return ClosedFormValue("covered", 0.0, "zero")
        if M + K - D < i < M + D:
            return ClosedFormValue("covered", inv2D * K**2, "plateau")
        if M < i + D < M + K:
            return ClosedFormValue("covered", inv2D * (i + D - M) ** 2, "ramp_up")
        if M < i - D < M + K:
            return ClosedFormValue("covered", inv2D * (M + K - i + D) ** 2, "ramp_down")
    else:
        if D + 1 <= i < M - D or M + K + D < i <= N - (D + 1):
            return ClosedFormValue("covered", 0.0, "zero")
        if M + D < i < M + K - D:
            return ClosedFormValue("covered", 2.0 * D, "plateau")
        if i - D < M < i + D:
            return ClosedFormValue("covered", inv2D * (i + D - M) ** 2, "ramp_up")
        if i - D < M + K < i + D:
            return ClosedFormValue("covered", inv2D * (M + K - i + D) ** 2, "ramp_down")
    return _UNCOVERED


def m2_case_premises(spec: M2Spec, D: int, case: str, strict: bool = False):
    """Raise PreconditionViolation unless the stated M2 case applies."""
    N, M0, K0, M1, K1 = spec.N, spec.M0, spec.K0, spec.M1, spec.K1
    if case not in ("i", "ii"):
        raise PreconditionViolation(f"case must be 'i' or 'ii', got {case!r}")
    if not (M0 > 2 * D + 1):
        raise PreconditionViolation(f"need M0 > 2D+1, got M0={M0}, D={D}")
    if not (N - M1 - K1 > 2 * D + 1):
        raise PreconditionViolation(f"need N-M1-K1 > 2D+1, got {N - M1 - K1}, D={D}")
    if case == "i":
        if not (2 * D > M1 + K1 - M0):
            raise PreconditionViolation(
                "case (i) needs the window to span both beams: 2D > M1+K1-M0"
            )
        if strict and not (
            _SCALE_FACTOR * max(K0, K1) <= D
            and _SCALE_FACTOR * (M1 + K1 - M0) <= D
        ):
            raise PreconditionViolation(
                "strict mode: case (i) needs D >> K0, K1 and D >> M1+K1-M0"
            )
    else:
        if not (2 * D + 1 < M1 - M0 - K0):
            raise PreconditionViolation(
                "case (ii) needs d-distant beams: 2D+1 < M1-M0-K0"
            )
        if strict and not (_SCALE_FACTOR * max(K0, K1) <= D):
            raise PreconditionViolation("strict mode: case (ii) needs D >> K0, K1")


def m2_closed_form(
    i: int, spec: M2Spec, D: int, case: str, strict: bool = False
) -> ClosedFormValue:
    """Two-beam regime prediction (unnormalized, tolerance ~1 in amplitude).

    Case (i), beams d-close: one interference plateau
    |(K0+1)e^{-i th0} + (K1+1)e^{-i th1}|^2 / 2D where the window spans
    both beams.  Case (ii), beams d-distant: an interference-free plateau
    (K_b+1)^2 / 2D around each beam b.
    """
    m2_case_premises(spec, D, case, strict)
    N, M0, K0, M1, K1 = spec.N, spec.M0, spec.K0, spec.M1, spec.K1
    if not (1 <= i <= N):
        raise PreconditionViolation(f"index {i} outside 1..{N}")
    if i - D < 1 or i + D > N:
        return _UNCOVERED  # clipped windows are boundary artefacts
    inv2D = 1.0 / (2.0 * D)
    if case == "i":
        if i - D < M0 and i + D > M1 + K1:
            both = (K0 + 1) * np.exp(-1j * spec.theta0) + (K1 + 1) * np.exp(
                -1j * spec.theta1
            )
            return ClosedFormValue("covered", inv2D * abs(both) ** 2, "interference")
        return _UNCOVERED
    if i - D < M0 and i + D > M0 + K0:
        return ClosedFormValue("covered", inv2D * (K0 + 1) ** 2, "beam0")
    if i - D < M1 and i + D > M1 + K1:
        return ClosedFormValue("covered", inv2D * (K1 + 1) ** 2, "beam1")
    return _UNCOVERED


def m2_tolerance(spec: M2Spec) -> float:
    """Relative tolerance 3/(min K + 1) for closed-form comparisons."""
    return 3.0 / (min(spec.K0, spec.K1) + 1)


def amplitude_total(ensemble: PathEnsemble) -> complex:
    return complex(np.sum(ensemble.amplitudes))


def parse_model_spec(data: dict):
    """Model spec from its JSON dict form, e.g. {"model":"M1","N":24,...}."""
    kind = data.get("model")
    if kind == "M1":
        return M1Spec(N=int(data["N"]), M=int(data["M"]), K=int(data["K"]))
    if kind == "M2":
        return M2Spec(
            N=int(data["N"]),
            M0=int(data["M0"]),
            K0=int(data["K0"]),
            M1=int(data["M1"]),
            K1=int(data["K1"]),
            theta0=float(data.get("theta0", 0.0)),
            theta1=float(data.get("theta1", 0.0)),
        )
    if kind == "M3":
        return M3Spec(
            N=int(data["N"]),
            regions=tuple(
                (int(M), int(K), float(th)) for M, K, th in data["regions"]
            ),
        )
    raise SpecViolation(f"unknown model kind {kind!r}")


def build_model(spec) -> PathEnsemble:
    if not isinstance(spec, (M1Spec, M2Spec, M3Spec)):
        raise SpecViolation(f"cannot build ensemble from {type(spec).__name__}")
    return build_m3(spec.as_m3())
