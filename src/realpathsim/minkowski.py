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
from collections import namedtuple
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
    return (u[..., :-1] * v[..., :-1]).sum(axis=-1) - u[..., -1] * v[..., -1]


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


# -- segment-pair quadratics --------------------------------------------------

# interval(q(t) - p(s)) = C + 2 t Bf - 2 s Be + t^2 Af + s^2 Ae - 2 s t G for
# p(s) = a + s e on a P segment and q(t) = c + t f on a Q segment, w0 = c - a,
# with Ae = eta(e, e), Af = eta(f, f), G = eta(e, f), Be = eta(w0, e),
# Bf = eta(w0, f), C = eta(w0, w0); et, ft and wt are the time components of
# e, f and w0.  The functions below read the fields elementwise: every pair's
# arrays, one pair's floats, or fields given a trailing axis of points.
_Quadratics = namedtuple("_Quadratics", "Ae Af G Be Bf C et ft wt")


def _quadratics(p_events: np.ndarray, q_events: np.ndarray) -> _Quadratics:
    """The quadratic of every segment pair, indexed [P segment, Q segment]."""
    w0 = q_events[None, :-1] - p_events[:-1, None]
    e = np.diff(p_events, axis=0)[:, None].repeat(w0.shape[1], axis=1)
    f = np.diff(q_events, axis=0)[None].repeat(w0.shape[0], axis=0)
    # Ae, Af, G, Be, Bf and C in one pass
    u, v = np.array([e, f, e, w0, w0, w0]), np.array([e, f, f, e, f, w0])
    return _Quadratics(*_eta(u, v), e[..., -1], f[..., -1], w0[..., -1])


def _value(q: _Quadratics, s, t):
    return (
        q.C
        + 2.0 * t * q.Bf
        - 2.0 * s * q.Be
        + t * t * q.Af
        + s * s * q.Ae
        - 2.0 * s * t * q.G
    )


def _edge_point(q: _Quadratics, s0, t0, s1, t1):
    """(s, t, found) of the quadratic's stationary point on the edge from
    (s0, t0) to (s1, t1), found when it is strictly inside."""
    ds, dt = s1 - s0, t1 - t0
    # F(alpha) along the edge: quadratic with second derivative 2*aa
    aa = q.Ae * ds * ds + q.Af * dt * dt - 2.0 * q.G * ds * dt
    bb = (
        -2.0 * q.Be * ds
        + 2.0 * q.Bf * dt
        + 2.0 * q.Ae * s0 * ds
        + 2.0 * q.Af * t0 * dt
        - 2.0 * q.G * (s0 * dt + t0 * ds)
    )
    # a flat edge divides by about 1, not by 0, and is not found
    alpha = -bb / (2.0 * aa + (abs(aa) <= _ATOL))
    found = (abs(aa) > _ATOL) & (0.0 < alpha) & (alpha < 1.0)
    return s0 + alpha * ds, t0 + alpha * dt, found


def _interior_point(q: _Quadratics):
    """(s, t, found) of the critical point, found inside the open box."""
    det = q.Ae * q.Af - q.G * q.G
    # a singular quadratic divides by about 1, not by 0, and is not found
    s = (q.Be * q.Af - q.Bf * q.G) / (det + (abs(det) < _ATOL))
    t = (q.Be * q.G - q.Bf * q.Ae) / (det + (abs(det) < _ATOL))
    found = (abs(det) >= _ATOL) & (0.0 < s) & (s < 1.0) & (0.0 < t) & (t < 1.0)
    return s, t, found


# the corners of the box [0, 1]^2 counter-clockwise, the first again at the end
_BOX_S = np.array([0.0, 1.0, 1.0, 0.0, 0.0])
_BOX_T = np.array([0.0, 0.0, 1.0, 1.0, 0.0])


# -- classification -----------------------------------------------------------

def _clip_box_by_halfplane(a: float, b: float, c: float) -> list[tuple[float, float]]:
    """Vertices of {(s,t) in [0,1]^2 : a*s + b*t + c <= 0}, CCW order."""
    box = list(zip(_BOX_S.tolist(), _BOX_T.tolist()))
    out: list[tuple[float, float]] = []
    for p, q in zip(box, box[1:]):
        fp = a * p[0] + b * p[1] + c
        fq = a * q[0] + b * q[1] + c
        if fp <= 0:
            out.append(p)
        if (fp < 0 < fq) or (fq < 0 < fp):
            lam = fp / (fp - fq)
            out.append((p[0] + lam * (q[0] - p[0]), p[1] + lam * (q[1] - p[1])))
    return out


def _min_on_past_region(q: _Quadratics) -> tuple[float, float]:
    """(min interval, dt at that minimizer) over the dt <= 0 region.

    ``q`` holds one pair's floats; the region must not be empty.  A
    candidate within _ATOL of the least value so far replaces it when its
    dt is smaller, so the order stays: vertices, edge points, interior.
    """
    a, b, c = -q.et, q.ft, q.wt
    poly = _clip_box_by_halfplane(a, b, c)
    edges = [_edge_point(q, *v0, *v1) for v0, v1 in zip(poly, poly[1:] + poly[:1])]
    cands = poly + [(s, t) for s, t, found in edges if found]
    s, t, found = _interior_point(q)
    if found and a * s + b * t + c <= 0.0:
        cands.append((s, t))
    best, best_dt = math.inf, math.inf
    for s, t in cands:
        v, dt = _value(q, s, t), q.wt + t * q.ft - s * q.et
        if v < best - _ATOL or (v < best + _ATOL and dt < best_dt):
            best, best_dt = v, dt
    return best, best_dt


def classify(path: MinkowskiPath) -> CausalClass:
    """causal / non_causal / anti_causal for a polyline.

    Anti-causal wins over non-causal when both apply; detection covers
    interior points, not just vertices (two spacelike segments can hide
    a timelike-past point pair between them).
    """
    segs = path.segments
    in_cone = _eta(segs, segs) <= _ATOL
    if (in_cone & (segs[:, -1] >= -_ATOL)).all():
        return CausalClass.CAUSAL
    # any segment heading into the past cone settles it
    if (in_cone & (segs[:, -1] < -_ATOL)).any():
        return CausalClass.ANTI_CAUSAL
    q = _quadratics(path.events, path.events)
    # the past region of pair (i, j) is empty when every box corner has dt > 0
    a, b, c = -q.et[..., None], q.ft[..., None], q.wt[..., None]
    reach = np.triu(np.any(a * _BOX_S + b * _BOX_T + c <= 0.0, axis=-1), 1)
    for fields in np.array(q)[:, reach].T.tolist():
        fmin, dt_at = _min_on_past_region(_Quadratics(*fields))
        if fmin < -_ATOL or (fmin <= _ATOL and dt_at < -_ATOL):
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
    # every pair's box against a trailing axis of candidate points
    q = _Quadratics(*(x[..., None] for x in _quadratics(P.events, Q.events)))
    corners = _BOX_S[:-1], _BOX_T[:-1]
    best = float(np.max(_value(q, *corners)))
    for s, t, found in (_edge_point(q, *corners, _BOX_S[1:], _BOX_T[1:]), _interior_point(q)):
        best = max(best, float(np.max(_value(q, s, t), where=found, initial=-math.inf)))
    scale = 1.0 + max(
        float(np.max(np.sum(P.events**2, axis=1))),
        float(np.max(np.sum(Q.events**2, axis=1))),
    )
    if 0.0 < best < 1e-13 * scale:
        return 0.0
    return max(best, 0.0)


def _envelope_branches(P: MinkowskiPath, Q: MinkowskiPath):
    """Quadratics in u whose upper envelope is max_q interval(p(u) - q).

    For the point p(u) = a + u e on P segment i against Q segment j,
    (c, c+f), the interval is quadratic in (u, t); its max over t in
    [0,1] is one of the endpoint quadratics (k = 0 at q = c, k = 1 at
    q = c + f, valid on [0, 1]) or the interior stationary value (k = 2,
    valid where 0 < t*(u) < 1, only when the t-direction is concave,
    i.e. f is timelike).  Returns (A, B, C, lo, hi) of the branches
    A u^2 + B u + C valid on [lo, hi], as [:, i, j, k], and [i, j, k]
    true where a branch exists.
    """
    q = _quadratics(P.events, Q.events)
    # U = a - c = -w0 makes eta(U, e) = -Be, eta(U, f) = -Bf, eta(U, U) = C
    Ue, Uf = -q.Be, -q.Bf
    U1 = P.events[:-1, None] - (Q.events[:-1] + np.diff(Q.events, axis=0))
    e = np.diff(P.events, axis=0)[:, None]
    flat = abs(q.G) <= _ATOL
    with np.errstate(all="ignore"):
        A = q.Ae - q.G * q.G / q.Af
        B = 2.0 * Ue - 2.0 * Uf * q.G / q.Af
        C = q.C - Uf * Uf / q.Af
        # t*(u) = (Uf + u G)/Af is in (0,1) where Af < Uf + u G < 0: between
        # the u where Uf + u G is Af and where it is 0, in the order of G's sign
        lo, hi = np.sort([(q.Af - Uf) / q.G, -Uf / q.G], axis=0)
    lo = np.where(flat, 0.0, np.maximum(0.0, lo))
    hi = np.where(flat, 1.0, np.minimum(1.0, hi))
    stationary = (q.Af < -_ATOL) & (lo < hi) & (~flat | ((q.Af < Uf) & (Uf < 0.0)))
    zero, one = np.zeros_like(A), np.ones_like(A)
    branches = [
        [q.Ae, q.Ae, A],
        [2.0 * Ue, 2.0 * _eta(U1, e), B],
        [q.C, _eta(U1, U1), C],
        [zero, zero, lo],
        [one, one, hi],
    ]
    # k last, so that a segment's branches run in the order j, then k
    exists = np.stack([one > 0, one > 0, stationary], axis=-1)
    return np.array(branches).transpose(0, 2, 3, 1), exists


def _integrate_envelope(A, B, C, lo, hi) -> float:
    """Exact integral over [0,1] of the upper envelope of the branches.

    Every pairwise crossing and every validity endpoint is a breakpoint,
    so within each piece one branch (the first, where they tie) is
    active and integrates in closed form; the pieces add up in order.
    """
    # every ordered pair: swapping a pair negates da, db, dc exactly,
    # which gives the same roots
    da, db, dc = A[:, None] - A, B[:, None] - B, C[:, None] - C
    disc = db * db - 4.0 * da * dc
    flat = abs(da) <= _ATOL
    two, one = ~flat & (disc > 0.0), flat & (abs(db) > _ATOL)
    r = np.sqrt(disc[two])
    roots = [(-db[two] - r) / (2 * da[two]), (-db[two] + r) / (2 * da[two]), -dc[one] / db[one]]
    cuts = np.concatenate([lo, hi, *roots])
    grid = np.unique(np.concatenate([[0.0, 1.0], cuts[(0.0 < cuts) & (cuts < 1.0)]]))
    um = (0.5 * (grid[:-1] + grid[1:]))[:, None]
    valid = (lo <= um) & (um <= hi)
    active = np.argmax(np.where(valid, (A * um + B) * um + C, -math.inf), axis=1)
    # Python's float power, whose last bit numpy's power does not always match
    u, u2, u3 = np.array([(x, x**2, x**3) for x in grid.tolist()]).T
    pieces = (
        A[active] * (u3[1:] - u3[:-1]) / 3.0
        + B[active] * (u2[1:] - u2[:-1]) / 2.0
        + C[active] * (u[1:] - u[:-1])
    )
    return float(np.cumsum(pieces)[-1])


def _d2_sum(P: MinkowskiPath, Q: MinkowskiPath) -> float:
    """Sum over P segments of proper time times the envelope integral.

    P is not anti-causal, so each of its segments is future-causal or
    spacelike, and a spacelike one has no proper time: the sum over every
    segment is the sum over the causal ones, as prime takes it.
    """
    branches, exists = _envelope_branches(P, Q)
    total = 0.0
    for i, dtau in enumerate(map(proper_time, P.segments)):
        if dtau != 0.0:
            total += dtau * _integrate_envelope(*branches[:, i, exists[i]])
    return total


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
    cls_p = classify(P)
    if cls_p is CausalClass.ANTI_CAUSAL:
        raise AntiCausalArgument("d2 is not defined for anti-causal P")
    if variant == "plain" and cls_p is not CausalClass.CAUSAL:
        raise NonCausalPlainArgument("plain d2 needs a causal first argument")
    if classify(Q) is CausalClass.ANTI_CAUSAL:
        raise AntiCausalArgument("d2 is not defined for anti-causal Q")
    _warn_outside_slab(P, Q)
    if variant == "symmetrized":
        return 0.5 * (_d2_sum(P, Q) + _d2_sum(Q, P))
    return _d2_sum(P, Q)
