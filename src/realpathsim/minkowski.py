"""Lorentz-invariant path distances and causal classification.

Paths are polylines of events in Minkowski space with coordinates
(x, t) or (x, y, z, t); the metric convention is spacelike-positive,

    interval(u) = |u_space|^2 - u_t^2,   c = 1.

Distances implemented:

* d1: the maximum of interval(p - q) over all point pairs, one point on
  each path.  For polylines this restricts per segment pair to a
  quadratic in two box parameters, which is maximized exactly in closed
  form (corners, concave edge vertices, negative-definite interior
  critical point), so the result is not sample-limited.
* d2 ("plain"): integral along causal P of the proper time element times
  max_q interval(p - q); zero whenever P is everywhere null.  Along one
  P segment the integrand is the upper envelope of finitely many
  quadratics in the segment parameter (endpoint and stationary-point
  branches per Q segment), so the lambda integral is evaluated exactly:
  split at every pairwise crossing and validity endpoint, then integrate
  the active quadratic per piece in closed form.
* d2 "prime": the same sum restricted to the causal segments of P, which
  extends the definition to non-causal (but not anti-causal) P.
* d2 "symmetrized": (d2'(P,Q) + d2'(Q,P)) / 2.

Classification: a path is causal when every segment vector is future-
causal (interval <= 0, dt >= 0); anti-causal when some later point lies
in the causal past of an earlier one -- detected exactly by minimizing
the segment-pair interval quadratic over the dt <= 0 region of the
parameter box; non-causal otherwise.

The d2 integrand is kept signed: the max over Q can be negative when a
P point is timelike to all of Q.
"""

from __future__ import annotations

import json
import math
import warnings
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import (
    AntiCausalArgument,
    EndpointMismatch,
    NonCausalPlainArgument,
)

_ATOL = 1e-12


class CausalClass(Enum):
    CAUSAL = "causal"
    NON_CAUSAL = "non_causal"
    ANTI_CAUSAL = "anti_causal"


@dataclass(frozen=True)
class MinkowskiPath:
    """Polyline of events (x..., t); the list order is the parameter."""

    events: np.ndarray

    def __post_init__(self):
        ev = np.asarray(self.events, dtype=float)
        if ev.ndim != 2 or ev.shape[0] < 2 or ev.shape[1] < 2:
            raise ValueError("need an (n >= 2, dim >= 2) event array")
        if not np.isfinite(ev).all():  # json.loads reads NaN and Infinity
            raise ValueError("every event coordinate must be finite")
        object.__setattr__(self, "events", ev)

    @property
    def n_segments(self) -> int:
        return self.events.shape[0] - 1

    @property
    def segments(self) -> np.ndarray:
        return np.diff(self.events, axis=0)

    @property
    def start(self) -> np.ndarray:
        return self.events[0]

    @property
    def end(self) -> np.ndarray:
        return self.events[-1]

    @classmethod
    def from_json(cls, text: str) -> "MinkowskiPath":
        return cls(np.asarray(json.loads(text)["events"], dtype=float))


def interval(u, v=None) -> float:
    """Squared Minkowski separation of u - v, spacelike positive."""
    u = np.asarray(u, dtype=float)
    diff = u if v is None else u - np.asarray(v, dtype=float)
    return float(np.sum(diff[:-1] ** 2) - diff[-1] ** 2)


def _eta(u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Bilinear Minkowski form, broadcasting over leading axes."""
    return np.sum(u[..., :-1] * v[..., :-1], axis=-1) - u[..., -1] * v[..., -1]


def _segment_causal(vec: np.ndarray) -> bool:
    return _eta(vec, vec) <= _ATOL and vec[-1] >= -_ATOL


def _segment_anti_causal(vec: np.ndarray) -> bool:
    return _eta(vec, vec) <= _ATOL and vec[-1] < -_ATOL


def proper_time(vec: np.ndarray) -> float:
    """Proper time of a causal segment vector (0 for null).

    Segments within the classification tolerance of null count as null,
    so a lightlike leg assembled from rounded coordinates accrues no
    proper time (sqrt would otherwise amplify 1-ulp interval noise to
    ~1e-8).
    """
    minus_eta = -_eta(vec, vec)
    if minus_eta <= _ATOL:
        return 0.0
    return math.sqrt(minus_eta)


def lorentz_boost(rapidity: float, direction=None, dim: int = 2) -> np.ndarray:
    """Boost matrix acting on (x..., t) row vectors via events @ B.T.

    ``direction`` is the spatial boost axis (unnormalized ok); defaults
    to the x axis.  Orthochronous, so causal structure is preserved.
    """
    if direction is None:
        direction = np.zeros(dim - 1)
        direction[0] = 1.0
    n = np.asarray(direction, dtype=float)
    n = n / np.linalg.norm(n)
    d = n.size + 1
    ch, sh = math.cosh(rapidity), math.sinh(rapidity)
    B = np.eye(d)
    B[:-1, :-1] += (ch - 1.0) * np.outer(n, n)
    B[:-1, -1] = -sh * n
    B[-1, :-1] = -sh * n
    B[-1, -1] = ch
    return B


def boost_path(path: MinkowskiPath, rapidity: float, direction=None) -> MinkowskiPath:
    B = lorentz_boost(rapidity, direction, dim=path.events.shape[1])
    return MinkowskiPath(path.events @ B.T)


# -- classification -----------------------------------------------------------

def _clip_box_by_halfplane(a: float, b: float, c: float) -> list[tuple[float, float]]:
    """Vertices of {(s,t) in [0,1]^2 : a*s + b*t + c <= 0}, CCW order."""
    poly = [(0.0, 0.0), (1.0, 0.0), (1.0, 1.0), (0.0, 1.0)]
    out: list[tuple[float, float]] = []
    for k in range(len(poly)):
        p, q = poly[k], poly[(k + 1) % len(poly)]
        fp = a * p[0] + b * p[1] + c
        fq = a * q[0] + b * q[1] + c
        if fp <= 0:
            out.append(p)
        if (fp < 0 < fq) or (fq < 0 < fp):
            lam = fp / (fp - fq)
            out.append((p[0] + lam * (q[0] - p[0]), p[1] + lam * (q[1] - p[1])))
    return out


class _PairQuadratic:
    """interval(q(t) - p(s)) for p on segment (a, a+e), q on (c, c+f)."""

    def __init__(self, a, e, c, f):
        self.w0 = c - a
        self.e = e
        self.f = f
        self.Ae = float(_eta(e, e))
        self.Af = float(_eta(f, f))
        self.G = float(_eta(e, f))
        self.Be = float(_eta(self.w0, e))
        self.Bf = float(_eta(self.w0, f))
        self.C = float(_eta(self.w0, self.w0))

    def value(self, s: float, t: float) -> float:
        return (
            self.C
            + 2.0 * t * self.Bf
            - 2.0 * s * self.Be
            + t * t * self.Af
            + s * s * self.Ae
            - 2.0 * s * t * self.G
        )

    def dt_value(self, s: float, t: float) -> float:
        """Time component of q(t) - p(s)."""
        return float(self.w0[-1] + t * self.f[-1] - s * self.e[-1])

    def _edge_candidates(self, vertices) -> list[tuple[float, float]]:
        """Interior stationary points of the quadratic on polygon edges."""
        pts: list[tuple[float, float]] = []
        m = len(vertices)
        for k in range(m):
            (s0, t0), (s1, t1) = vertices[k], vertices[(k + 1) % m]
            ds, dt = s1 - s0, t1 - t0
            # F(alpha) along the edge: quadratic with second derivative 2*aa
            aa = self.Ae * ds * ds + self.Af * dt * dt - 2.0 * self.G * ds * dt
            bb = (
                -2.0 * self.Be * ds
                + 2.0 * self.Bf * dt
                + 2.0 * self.Ae * s0 * ds
                + 2.0 * self.Af * t0 * dt
                - 2.0 * self.G * (s0 * dt + t0 * ds)
            )
            if abs(aa) > _ATOL:
                alpha = -bb / (2.0 * aa)
                if 0.0 < alpha < 1.0:
                    pts.append((s0 + alpha * ds, t0 + alpha * dt))
        return pts

    def _interior_candidate(self) -> tuple[float, float] | None:
        det = self.Ae * self.Af - self.G * self.G
        if abs(det) < _ATOL:
            return None
        s = (self.Be * self.Af - self.Bf * self.G) / det
        t = (self.Be * self.G - self.Bf * self.Ae) / det
        if 0.0 < s < 1.0 and 0.0 < t < 1.0:
            return (s, t)
        return None

    def max_on_box(self) -> float:
        box = [(0.0, 0.0), (1.0, 0.0), (1.0, 1.0), (0.0, 1.0)]
        cands = list(box) + self._edge_candidates(box)
        inner = self._interior_candidate()
        if inner is not None:
            cands.append(inner)
        vals = [self.value(s, t) for s, t in cands]
        return max(vals)

    def min_on_past_region(self) -> tuple[float, float]:
        """(min interval, dt at that minimizer) over the dt <= 0 region.

        Region: box cut by dt_value(s, t) <= 0, which is affine in (s, t).
        Returns (inf, inf) when the region is empty.
        """
        a = -self.e[-1]
        b = self.f[-1]
        c = self.w0[-1]
        poly = _clip_box_by_halfplane(a, b, c)
        if len(poly) < 1:
            return math.inf, math.inf
        cands = list(poly) + self._edge_candidates(poly)
        inner = self._interior_candidate()
        if inner is not None:
            s, t = inner
            if a * s + b * t + c <= 0.0:
                cands.append(inner)
        best, best_dt = math.inf, math.inf
        for s, t in cands:
            v = self.value(s, t)
            if v < best - _ATOL or (
                v < best + _ATOL and self.dt_value(s, t) < best_dt
            ):
                best, best_dt = v, self.dt_value(s, t)
        return best, best_dt


def _pair_quadratics(P: MinkowskiPath, Q: MinkowskiPath):
    ep, eq = P.events, Q.events
    for i in range(P.n_segments):
        for j in range(Q.n_segments):
            yield _PairQuadratic(
                ep[i], ep[i + 1] - ep[i], eq[j], eq[j + 1] - eq[j]
            )


def classify(path: MinkowskiPath) -> CausalClass:
    """causal / non_causal / anti_causal for a polyline.

    Anti-causal wins over non-causal when both apply; detection covers
    interior points, not just vertices (two spacelike segments can hide
    a timelike-past point pair between them).
    """
    segs = path.segments
    if all(_segment_causal(v) for v in segs):
        return CausalClass.CAUSAL
    # any segment heading into the past cone settles it
    if any(_segment_anti_causal(v) for v in segs):
        return CausalClass.ANTI_CAUSAL
    ev = path.events
    n = path.n_segments
    for i in range(n):
        for j in range(i + 1, n):
            quad = _PairQuadratic(
                ev[i], ev[i + 1] - ev[i], ev[j], ev[j + 1] - ev[j]
            )
            fmin, dt_at = quad.min_on_past_region()
            if fmin < -_ATOL:
                return CausalClass.ANTI_CAUSAL
            if fmin <= _ATOL and dt_at < -_ATOL:
                return CausalClass.ANTI_CAUSAL
    return CausalClass.NON_CAUSAL


# -- distances ----------------------------------------------------------------

def _check_shared_endpoints(P: MinkowskiPath, Q: MinkowskiPath):
    if P.events.shape[1] != Q.events.shape[1]:
        raise EndpointMismatch("paths live in different dimensions")
    if (
        np.max(np.abs(P.start - Q.start)) > 1e-9
        or np.max(np.abs(P.end - Q.end)) > 1e-9
    ):
        raise EndpointMismatch("paths do not share endpoints A, B")


def _warn_outside_slab(P: MinkowskiPath, Q: MinkowskiPath):
    """Warn (not reject) when events leave the t-slab spanned by A and B."""
    t0 = min(P.start[-1], P.end[-1])
    t1 = max(P.start[-1], P.end[-1])
    for name, path in (("P", P), ("Q", Q)):
        t = path.events[:, -1]
        if np.any(t < t0 - 1e-9) or np.any(t > t1 + 1e-9):
            warnings.warn(
                f"path {name} leaves the slab between the endpoint "
                "hyperplanes; distances remain defined but the model "
                "premises assume containment",
                stacklevel=3,
            )


def d1(P: MinkowskiPath, Q: MinkowskiPath) -> float:
    """Maximum spacelike separation over all point pairs (exact).

    Requires shared endpoints and neither argument anti-causal.  Equal
    causal arguments give exactly 0; a non-causal path has d1(Q, Q) > 0
    since it contains a spacelike point pair.

    The shared endpoints contribute an exact zero candidate, so the true
    maximum is never negative; a positive result below float noise of
    the coordinate scale can only be roundoff from a stationary-point
    candidate whose true value is <= 0, and is therefore snapped to 0.
    """
    _check_shared_endpoints(P, Q)
    for path in (P, Q):
        if classify(path) is CausalClass.ANTI_CAUSAL:
            raise AntiCausalArgument("d1 is not defined for anti-causal paths")
    _warn_outside_slab(P, Q)
    best = max(q.max_on_box() for q in _pair_quadratics(P, Q))
    scale = 1.0 + max(
        float(np.max(np.sum(P.events**2, axis=1))),
        float(np.max(np.sum(Q.events**2, axis=1))),
    )
    if 0.0 < best < 1e-13 * scale:
        return 0.0
    return max(best, 0.0)


class _Branch:
    """One candidate quadratic A u^2 + B u + C, valid on [lo, hi]."""

    __slots__ = ("A", "B", "C", "lo", "hi")

    def __init__(self, A, B, C, lo=0.0, hi=1.0):
        self.A, self.B, self.C = float(A), float(B), float(C)
        self.lo, self.hi = float(lo), float(hi)

    def value(self, u: float) -> float:
        return (self.A * u + self.B) * u + self.C

    def integral(self, u0: float, u1: float) -> float:
        return (
            self.A * (u1**3 - u0**3) / 3.0
            + self.B * (u1**2 - u0**2) / 2.0
            + self.C * (u1 - u0)
        )


def _envelope_branches(a: np.ndarray, e: np.ndarray, Q: MinkowskiPath):
    """Candidate quadratics whose upper envelope is max_q interval(p(u) - q).

    For the point p(u) = a + u e against a Q segment (c, c+f), the
    interval is quadratic in (u, t); its max over t in [0,1] is one of
    the endpoint quadratics (always valid) or the interior stationary
    value (a quadratic in u, valid where 0 < t*(u) < 1, only when the
    t-direction is concave, i.e. f is timelike).
    """
    branches: list[_Branch] = []
    Aee = float(_eta(e, e))
    eq = Q.events
    for j in range(Q.n_segments):
        c, f = eq[j], eq[j + 1] - eq[j]
        for endpoint in (c, c + f):
            U = a - endpoint
            branches.append(_Branch(Aee, 2.0 * float(_eta(U, e)), float(_eta(U, U))))
        Aff = float(_eta(f, f))
        if Aff < -_ATOL:
            U = a - c
            BUf = float(_eta(U, f))
            G = float(_eta(e, f))
            A = Aee - G * G / Aff
            B = 2.0 * float(_eta(U, e)) - 2.0 * BUf * G / Aff
            C = float(_eta(U, U)) - BUf * BUf / Aff
            window = _t_star_window(BUf, G, Aff)
            if window is not None:
                lo, hi = max(0.0, window[0]), min(1.0, window[1])
                if lo < hi:
                    branches.append(_Branch(A, B, C, lo, hi))
    return branches


def _t_star_window(BUf: float, G: float, Aff: float):
    """u-interval where the stationary t*(u) = (BUf + u G)/Aff is in (0,1).

    With Aff < 0 that is equivalent to Aff < BUf + u G < 0.
    """
    if abs(G) <= _ATOL:
        return (-math.inf, math.inf) if (Aff < BUf < 0.0) else None
    a0 = (Aff - BUf) / G
    a1 = -BUf / G
    return (a0, a1) if G > 0 else (a1, a0)


def _integrate_envelope(branches: list[_Branch]) -> float:
    """Exact integral over [0,1] of the upper envelope of the branches.

    Every pairwise crossing and every validity endpoint is a breakpoint,
    so within each sub-interval one branch dominates and integrates in
    closed form; the result is exact up to roundoff and needs no
    sampling refinement.
    """
    cuts = {0.0, 1.0}
    for b in branches:
        if 0.0 < b.lo < 1.0:
            cuts.add(b.lo)
        if 0.0 < b.hi < 1.0:
            cuts.add(b.hi)
    n = len(branches)
    for i in range(n):
        bi = branches[i]
        for j in range(i + 1, n):
            bj = branches[j]
            da, db, dc = bi.A - bj.A, bi.B - bj.B, bi.C - bj.C
            if abs(da) > _ATOL:
                disc = db * db - 4.0 * da * dc
                if disc > 0.0:
                    r = math.sqrt(disc)
                    for root in ((-db - r) / (2 * da), (-db + r) / (2 * da)):
                        if 0.0 < root < 1.0:
                            cuts.add(root)
            elif abs(db) > _ATOL:
                root = -dc / db
                if 0.0 < root < 1.0:
                    cuts.add(root)
    grid = sorted(cuts)
    total = 0.0
    for u0, u1 in zip(grid, grid[1:]):
        um = 0.5 * (u0 + u1)
        active = None
        best = -math.inf
        for b in branches:
            if b.lo <= um <= b.hi:
                v = b.value(um)
                if v > best:
                    best, active = v, b
        total += active.integral(u0, u1)
    return total


def _segment_integral(a: np.ndarray, e: np.ndarray, Q: MinkowskiPath) -> float:
    """integral_0^1 max_q interval(a + u e - q) du, exact."""
    return _integrate_envelope(_envelope_branches(a, e, Q))


def d2(P: MinkowskiPath, Q: MinkowskiPath, variant: str = "plain") -> float:
    """Proper-time-weighted maximal separation along P.

    plain: P must be causal, Q not anti-causal; sums over all P segments.
    prime: restricts to the causal segments of P (P, Q not anti-causal).
    symmetrized: (prime(P,Q) + prime(Q,P)) / 2, symmetric by construction.

    The integrand max_q interval(p - q) is signed; it can be negative
    when a P point is timelike-separated from all of Q.  An everywhere
    null P gives exactly 0 (no proper time accrues).
    """
    if variant not in ("plain", "prime", "symmetrized"):
        raise ValueError(f"unknown d2 variant {variant!r}")
    _check_shared_endpoints(P, Q)
    if variant == "symmetrized":
        return 0.5 * (d2(P, Q, "prime") + d2(Q, P, "prime"))
    cls_p = classify(P)
    if cls_p is CausalClass.ANTI_CAUSAL:
        raise AntiCausalArgument("d2 is not defined for anti-causal P")
    if variant == "plain" and cls_p is not CausalClass.CAUSAL:
        raise NonCausalPlainArgument("plain d2 needs a causal first argument")
    if classify(Q) is CausalClass.ANTI_CAUSAL:
        raise AntiCausalArgument("d2 is not defined for anti-causal Q")
    _warn_outside_slab(P, Q)
    total = 0.0
    ev = P.events
    for i in range(P.n_segments):
        vec = ev[i + 1] - ev[i]
        if variant == "prime" and not _segment_causal(vec):
            continue
        dtau = proper_time(vec)
        if dtau == 0.0:
            continue
        total += dtau * _segment_integral(ev[i], vec, Q)
    return total
