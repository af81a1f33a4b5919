"""Toy interferometry ensembles M1, M2, M3 and their regime formulas.

All three models share one amplitude grammar over indices 1..N: runs of
alternating +1/-1 outside one or more "beam" regions, and a constant
phase exp(-i theta_k) on the K_k+1 adjacent paths of region k.  Parity
conditions (first region start odd, odd inter-region gaps measured from
the previous region end, even tail) make every alternating run start
with -1 after a region and end with -1 before one, which is what drives
the pairwise cancellations.

The closed-form functions return, as arrays over i = 1..N, each index's
status and the unnormalized probability (the probability without the
overall constant C) predicted for the step distance with half-width D:

* zero zones, a plateau, quadratic ramps, and 1/4 (i + D - 1/2)^-1
  boundary artefacts for M1 -- these are exact wherever their strict
  index ranges apply;
* the two-beam interference / no-interference plateau values for M2 --
  exact up to an alternating-tail residue of at most 1 in amplitude.

Indices the strict inequalities omit are reported as "uncovered";
direct evaluation is ground truth there.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass

import numpy as np

from .engine import (
    CompactPrefix,
    CompactRows,
    check_probabilities,
    index_smeared,
    index_tiles,
    kernel_windows,
    norm_constant,
    visibility,
    weighted_probabilities,
)
from .errors import NonUnitAmplitude, PreconditionViolation, SpecViolation, integer, real
from .paths import UNIT_MODULUS_ATOL, PathEnsemble


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
        self.as_m3()  # M3Spec states the rules

    def as_m3(self) -> "M3Spec":
        return M3Spec(N=self.N, regions=((self.M, self.K, 0.0),))


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
        self.as_m3()  # M3Spec states the rules

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
        regions = tuple((integer(M, "a region start"), integer(K, "a region width"),
                         real(th, "a region phase")) for M, K, th in self.regions)
        object.__setattr__(self, "regions", regions)
        _require(len(regions) >= 1, "need at least one region")
        M0 = regions[0][0]
        _require(M0 % 2 == 1, f"the first region's start M={M0} must be odd")
        _require(1 < M0, f"the first region's start M={M0} must exceed 1")
        prev_end = None
        for k, (M, K, th) in enumerate(regions):
            _require(K >= 1, f"region {k} needs K >= 1, got K={K}")
            # exp(-i theta) of a non-finite phase is NaN
            _require(math.isfinite(th), f"region {k}'s phase must be finite, not {th!r}")
            if prev_end is not None:
                _require(M > prev_end, f"region {k} at M={M} overlaps region {k-1}")
                # M_k - M_{k-1} - K_{k-1} odd, i.e. an even-length
                # alternating run between consecutive regions
                _require((M - prev_end) % 2 == 1, f"M{k}-M{k-1}-K{k-1}={M - prev_end} must be odd")
            prev_end = M + K
        _require(prev_end < self.N, f"the last region ends at {prev_end}, not before N={self.N}")
        _require((self.N - prev_end) % 2 == 0, f"N-M-K tail = {self.N - prev_end} must be even")

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


class RunGrammar:
    """The amplitudes of an M3 spec as its alternating runs and regions.

    The run before the first region starts at +1 (the (-1)^(i-1) rule);
    every run after a region starts at -1 (the (-1)^(i-M-K) rule).  The
    parity conditions make each run end at -1 before a region and at +1
    at index N.  Region k holds ``values[k]``; every amplitude is of
    ``dtype``.  ``amplitudes(a, b)`` places any slice, so nothing needs
    the N amplitudes at once: build_m3 takes them all, a CompactPrefix
    the few around each region (``spans``).
    """

    def __init__(self, spec: M3Spec, values, dtype):
        self.spec, self.values, self.dtype = spec, tuple(values), dtype
        self.ends = [M + K for M, K, _th in spec.regions]  # each region's last index

    @property
    def spans(self) -> list[tuple[int, int]]:
        """The regions as 0-based [M-1, M+K): within a run the amplitudes repeat with period 2."""
        return [(M - 1, M + K) for M, K, _th in self.spec.regions]

    def amplitudes(self, a: int, b: int) -> np.ndarray:
        """The amplitudes of indices a+1..b (0-based a..b-1), as a new array."""
        regions, ends = self.spec.regions, self.ends
        out = np.empty(b - a, dtype=self.dtype)
        k = bisect.bisect_left(ends, a + 1)  # index a+1 is in run k or region k
        pos = a + 1  # next index to fill, 1-based
        while pos <= b:
            run_start = ends[k - 1] + 1 if k else 1
            run_end = regions[k][0] - 1 if k < len(regions) else self.spec.N
            if pos <= run_end:
                sign = 1.0 if k == 0 else -1.0  # at run_start
                sign = sign if (pos - run_start) % 2 == 0 else -sign  # at pos
                hi = min(run_end, b)
                out[pos - 1 - a : hi - a : 2] = sign
                out[pos - a : hi - a : 2] = -sign
                pos = hi + 1
            if pos <= b and k < len(regions):
                hi = min(ends[k], b)
                out[pos - 1 - a : hi - a] = self.values[k]
                pos = hi + 1
            k += 1
        return out


def build_grammar(spec) -> RunGrammar:
    """The run grammar of a toy spec, each region's amplitude checked for unit modulus.

    Regions get exp(-i theta), float64 when every phase is 0 (-0.0
    too), complex128 otherwise: exp(-i pi) is not real in floating
    point.  A value off the unit circle raises NonUnitAmplitude at its
    region's first index, as PathEnsemble would over the N amplitudes;
    the runs' +1 and -1 are exact.
    """
    m3 = spec.as_m3()
    real = not any(th for _M, _K, th in m3.regions)
    values = [1.0 if real else np.exp(-1j * th) for _M, _K, th in m3.regions]
    for (M, _K, _th), value in zip(m3.regions, values):
        if not abs(abs(value) - 1.0) <= UNIT_MODULUS_ATOL:  # a NaN fails too
            raise NonUnitAmplitude(M, complex(value))
    return RunGrammar(m3, values, np.float64 if real else np.complex128)


def build_m3(spec: M3Spec) -> PathEnsemble:
    """The N amplitudes of the run grammar; regions get exp(-i theta)."""
    return PathEnsemble(build_grammar(spec).amplitudes(0, spec.N))


def build_m1(spec: M1Spec) -> PathEnsemble:
    return build_m3(spec.as_m3())


def build_m2(spec: M2Spec) -> PathEnsemble:
    return build_m3(spec.as_m3())


def _zones(zones) -> tuple[np.ndarray, np.ndarray]:
    """(status, value) over the indices of the masks of (mask, status, value) zones.

    The first zone whose mask holds at an index sets it, as the first
    matching branch of a piecewise formula would; an index no zone holds
    is "uncovered", with value NaN.  status is an object array of those
    names: 8 bytes a row, where a fixed-width string array takes 36.
    """
    masks, statuses, values = zip(*zones)
    names = np.array([*statuses, "uncovered"], dtype=object)
    status = names[np.select(masks, range(len(masks)), default=len(masks))]
    return status, np.select(masks, values, default=np.nan)


def m1_closed_form(spec: M1Spec, D: int) -> tuple[np.ndarray, np.ndarray]:
    """Piecewise regime prediction for M1 with the step distance.

    Returns (status, value) over i = 1..N: status is "covered",
    "boundary" or "uncovered", and value is NaN exactly where uncovered.
    Exact (not asymptotic) wherever a strict range applies, which needs
    M > 2D+1 and N-M-K > 2D+1.  Each value is integer arithmetic in i,
    then one float operation.
    """
    N, M, K = spec.N, spec.M, spec.K
    if not (M > 2 * D + 1):
        raise PreconditionViolation(f"need M > 2D+1, got M={M}, D={D}")
    if not (N - M - K > 2 * D + 1):
        raise PreconditionViolation(f"need N-M-K > 2D+1, got {N - M - K}, D={D}")

    i = np.arange(1, N + 1)
    inv2D = 1.0 / (2.0 * D)
    # boundary artefacts from the clipped window at either end
    zones = [
        (i <= D, "boundary", 0.25 / (i + D - 0.5)),
        (N + 1 - D <= i, "boundary", 0.25 / ((N + 1 - i) + D - 0.5)),
    ]
    if 2 * D > K:
        zones += [
            ((D + 1 < i) & (i < M - D) | (M + K + D < i) & (i < N - (D + 1)), "covered", 0.0),
            ((M + K - D < i) & (i < M + D), "covered", inv2D * K**2),
            ((M < i + D) & (i + D < M + K), "covered", inv2D * (i + D - M) ** 2),
            ((M < i - D) & (i - D < M + K), "covered", inv2D * (M + K - i + D) ** 2),
        ]
    else:
        zones += [
            ((D + 1 <= i) & (i < M - D) | (M + K + D < i) & (i <= N - (D + 1)), "covered", 0.0),
            ((M + D < i) & (i < M + K - D), "covered", 2.0 * D),
            ((i - D < M) & (M < i + D), "covered", inv2D * (i + D - M) ** 2),
            ((i - D < M + K) & (M + K < i + D), "covered", inv2D * (M + K - i + D) ** 2),
        ]
    return _zones(zones)


def m2_case_premises(spec: M2Spec, D: int, case: str):
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
    else:
        if not (2 * D + 1 < M1 - M0 - K0):
            raise PreconditionViolation(
                "case (ii) needs d-distant beams: 2D+1 < M1-M0-K0"
            )


def m2_closed_form(spec: M2Spec, D: int, case: str) -> tuple[np.ndarray, np.ndarray]:
    """Two-beam regime prediction (unnormalized, tolerance ~1 in amplitude).

    Returns (status, value) over i = 1..N as m1_closed_form does, with
    no "boundary" rows.  Case (i), beams d-close: one interference
    plateau |(K0+1)e^{-i th0} + (K1+1)e^{-i th1}|^2 / 2D where the window
    spans both beams.  Case (ii), beams d-distant: an interference-free
    plateau (K_b+1)^2 / 2D around each beam b.
    """
    m2_case_premises(spec, D, case)
    N, M0, K0, M1, K1 = spec.N, spec.M0, spec.K0, spec.M1, spec.K1
    i = np.arange(1, N + 1)
    inv2D = 1.0 / (2.0 * D)
    # the premises keep every covered zone clear of the clipped windows
    zones = []
    if case == "i":
        both = (K0 + 1) * np.exp(-1j * spec.theta0) + (K1 + 1) * np.exp(-1j * spec.theta1)
        zones.append(((i - D < M0) & (i + D > M1 + K1), "covered", inv2D * abs(both) ** 2))
    else:
        zones += [
            ((i - D < M0) & (i + D > M0 + K0), "covered", inv2D * (K0 + 1) ** 2),
            ((i - D < M1) & (i + D > M1 + K1), "covered", inv2D * (K1 + 1) ** 2),
        ]
    return _zones(zones)


def build_model(spec) -> PathEnsemble:
    if not isinstance(spec, (M1Spec, M2Spec, M3Spec)):
        raise SpecViolation(f"cannot build ensemble from {type(spec).__name__}")
    return build_m3(spec.as_m3())


def beam_sweep(spec, dspecs):
    """cell(dspec) of the toy sweep, for any index distance of ``dspecs``.

    cell returns (visibility, block mass, probabilities, norm constant),
    the cell shape lattice.two_arm_sweep shares, on the beam block
    widened by D: the visibility of the unnormalized masses at the
    spec's own phases and with the last region's turned by pi, and the
    share there of the probabilities ``run`` gives, which it returns as
    CompactRows.  Every distance is admitted (kernel_windows) before the
    one build of the run grammar, whose CompactPrefix (the explicit
    windows around each region and the 2-periodic stretches between
    them, never N entries) and its rows(R) serve every cell: at the own
    phases, a banded pass over the rows near a beam or an edge, each
    range reading the prefix window it needs, into one buffer per range,
    with the stretches between ranges left to CompactRows, whose one
    walk of numpy's pairwise tree (sum) gives C with np.sum's bits over
    all N rows, and whose total checks the scaled rows; then one over
    the block rows from the flipped grammar's own CompactPrefix, also
    built once.
    Cells only read what they share.
    """
    m3 = spec.as_m3()
    first, last = m3.block_range
    windows = {dspec: kernel_windows(dspec, m3.N) for dspec in dspecs}

    def block(dspec):  # 0-based rows lo..hi-1
        return max(1, first - dspec.D) - 1, min(m3.N, last + dspec.D)

    grammar = build_grammar(spec)
    prefix = CompactPrefix(m3.N, grammar.amplitudes, grammar.spans)
    th = m3.regions[-1][2]
    flip = RunGrammar(m3, (*grammar.values[:-1], np.exp(-1j * (th + np.pi))),
                      np.complex128)  # exp(-i(th + pi)) is not real
    flipped = CompactPrefix(m3.N, flip.amplitudes, flip.spans)

    def cell(dspec):
        R = windows[dspec].radii[-1]
        ranges = []
        for lo, hi in prefix.rows(R):
            values = np.empty(hi - lo)
            for tile, smeared, denom in index_tiles(prefix.window(lo, hi, R), windows[dspec], lo, hi):
                weighted_probabilities(smeared, denom, out=values[tile.start - lo : tile.stop - lo])
            ranges.append((lo, values))
        unnorm = CompactRows(m3.N, ranges)
        lo, hi = block(dspec)
        minus = index_smeared(flipped.window(lo, hi, R), windows[dspec], lo, hi)
        block_rows = unnorm.take(lo, hi)
        p_minus, p_plus = float(np.sum(weighted_probabilities(*minus))), float(np.sum(block_rows))
        C = norm_constant(unnorm.sum())
        for values in unnorm.values:  # the stretches repeat these, so scale too
            values *= C
        check_probabilities(unnorm)
        block_rows *= C
        return visibility(p_plus, p_minus), float(np.sum(block_rows)), unnorm, C

    return cell
