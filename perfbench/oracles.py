"""One oracle per workload, independent of the route being timed.

Each oracle reads the files an operation wrote and returns
``(share, problem)``: ``share`` is the largest error seen divided by its
tolerance (so it is at most 1 on a pass), and ``problem`` is None or
says what failed.  run.py calls them while the workload process waits.

Tolerances.  ``TOL`` = 1e-9 is relative to the scale of each quantity:
the kernel mass for smeared sums and denominators, the largest
probability for probabilities, 1 for visibilities and block masses.  The
banded prefix-sum route drifts by about 2e-11 relative at N=1e6 with
random phases, 50 times below it; a wrong window or distance moves
values by 1e-3 relative or more, a million times above it.
"""

from __future__ import annotations

import math
import warnings

import numpy as np

TOL = 1e-9
GRID_SAMPLES = 32        # points per segment in the dense-grid d1 bound
GRID_TOL = 1e-2          # how far below d1 that bound may stay
QUAD_POINTS = 512        # midpoints per P segment in the d2 quadrature
QUAD_TOL = 1e-5          # quadrature error allowed on d2, relative to max(1, |d2|)
ORACLE_SAMPLES = 64      # lattice_run rows recomputed per operation
MINKOWSKI_SAMPLES = 4    # ordered pairs given the grid and boost checks


def _verdict(errors: dict[str, float], problems: list[str]) -> tuple[float, str | None]:
    share = max(errors.values(), default=0.0)
    bad = [f"{k} at {v:.3g}x tolerance" for k, v in errors.items() if not v <= 1.0]
    problems = problems + bad
    return share, ("; ".join(problems) if problems else None)


def _max_share(actual, expected, scale) -> float:
    return float(np.max(np.abs(np.asarray(actual) - np.asarray(expected)) / (TOL * scale)))


def read_distribution(path: str) -> tuple[float, np.ndarray]:
    """(norm_constant, rows of index, prob, smeared_re, smeared_im, denom)."""
    with open(path) as fh:
        head = fh.readline()
        if not head.startswith("# norm_constant = "):
            raise ValueError(f"{path}: no norm_constant line")
        rows = np.loadtxt(fh, delimiter=",", skiprows=1, ndmin=2)
    return float(head.split("=")[1]), rows


def read_sweep(path: str, param: str) -> np.ndarray:
    """Rows of value, visibility, block_mass, norm_constant."""
    names = np.loadtxt(path, delimiter=",", skiprows=1, usecols=0, dtype=str, ndmin=1)
    if not np.all(names == param):
        raise ValueError(f"{path}: param column is not {param!r}")
    return np.loadtxt(path, delimiter=",", skiprows=1, usecols=(1, 2, 3, 4), ndmin=2)


# -- toy ensembles -----------------------------------------------------------------

def toy_amplitudes(N: int, regions) -> np.ndarray:
    """+1/-1 runs with exp(-i theta) on each region (M, K, theta).

    The run before the first region starts at +1 at index 1; the run
    after each region starts at -1.
    """
    i = np.arange(1, N + 1)
    amps = np.where(i % 2 == 1, 1.0, -1.0).astype(complex)
    for M, K, theta in regions:
        amps[M - 1 : M + K] = np.exp(-1j * theta)
        after = i[M + K :]
        amps[M + K :] = np.where((after - M - K) % 2 == 1, -1.0, 1.0)
    return amps


def window_kernel(D: int) -> np.ndarray:
    """exp(-d) of the step distance: 1 inside the window, 1/2 at |i-j| = D."""
    kernel = np.ones(2 * D + 1)
    kernel[[0, -1]] = 0.5
    return kernel


class M1RunOracle:
    """Every row recomputed by np.convolve with the window kernel."""

    def __init__(self, inputs: dict):
        model, D = inputs["spec"]["model"], inputs["spec"]["distance"]["D"]
        amps = toy_amplitudes(model["N"], [(model["M"], model["K"], 0.0)])
        kernel = window_kernel(D)
        self.smeared = np.convolve(amps, kernel, mode="same")
        self.denom = np.convolve(np.ones(model["N"]), kernel, mode="same")
        unnorm = np.abs(self.smeared) ** 2 / self.denom
        self.norm = 1.0 / unnorm.sum()
        self.probs = unnorm * self.norm
        self.scale = kernel.sum()

    def check(self, outputs):
        norm, rows = read_distribution(outputs[0])
        n = self.probs.size
        if rows.shape != (n, 5) or not np.array_equal(rows[:, 0], np.arange(1, n + 1)):
            return math.inf, f"expected rows 1..{n}, got shape {rows.shape}"
        return _verdict({
            "prob": _max_share(rows[:, 1], self.probs, self.probs.max()),
            "smeared": _max_share(rows[:, 2] + 1j * rows[:, 3], self.smeared, self.scale),
            "denom": _max_share(rows[:, 4], self.denom, self.scale),
            "norm_constant": _max_share(norm, self.norm, self.norm),
        }, [])


class M2SweepOracle:
    """Each cell recomputed with the window kernel applied by FFT.

    Direct np.convolve at D=5120 over 1e6 rows is 1e10 operations per
    cell, so the same kernel is applied in Fourier space; the FFT's
    rounding (about 1e-13 of the sums here) sits far below TOL.  The
    reference depends only on the spec, so it is computed once.
    """

    def __init__(self, inputs: dict):
        spec = inputs["spec"]
        m = spec["model"]
        N = m["N"]
        regions = [(m["M0"], m["K0"], m.get("theta0", 0.0)),
                   (m["M1"], m["K1"], m.get("theta1", 0.0))]
        flipped = regions[:1] + [(m["M1"], m["K1"], regions[1][2] + math.pi)]
        values = spec["sweep"]["values"]
        nfft = 1 << (N + 2 * max(values)).bit_length()
        spectra = [np.fft.fft(toy_amplitudes(N, regions), nfft),
                   np.fft.fft(toy_amplitudes(N, flipped), nfft)]
        i = np.arange(N)
        rows = []
        for D in values:
            kernel = np.fft.fft(window_kernel(D), nfft)
            s_plus, s_minus = (np.fft.ifft(f * kernel)[D : D + N] for f in spectra)
            # kernel mass inside [1, N]: the clipped window, less 1/2 per end that lies inside
            denom = (np.minimum(i + D, N - 1) - np.maximum(i - D, 0) + 1
                     - 0.5 * (i - D >= 0) - 0.5 * (i + D <= N - 1))
            u_plus = np.abs(s_plus) ** 2 / denom
            u_minus = np.abs(s_minus) ** 2 / denom
            lo, hi = max(1, m["M0"] - D), min(N, m["M1"] + m["K1"] + D)
            p_plus, p_minus = u_plus[lo - 1 : hi].sum(), u_minus[lo - 1 : hi].sum()
            vis = abs(p_plus - p_minus) / (p_plus + p_minus) if p_plus + p_minus > 0 else 0.0
            norm = 1.0 / u_plus.sum()
            rows.append((D, vis, p_plus * norm, norm))
        self.expected = np.array(rows)

    def check(self, outputs):
        return check_sweep(read_sweep(outputs[0], "D"), self.expected, [])


def check_sweep(got: np.ndarray, expected: np.ndarray, problems: list[str]):
    if got.shape != expected.shape or not np.array_equal(got[:, 0], expected[:, 0]):
        return math.inf, f"sweep values {got[:, 0].tolist()} != {expected[:, 0].tolist()}"
    return _verdict({
        "visibility": _max_share(got[:, 1], expected[:, 1], 1.0),
        "block_mass": _max_share(got[:, 2], expected[:, 2], 1.0),
        "norm_constant": _max_share(got[:, 3], expected[:, 3], expected[:, 3]),
    }, problems)


# -- lattice -----------------------------------------------------------------------

def lattice_sites(T: int, X: int, h: int, start: int, end: int) -> np.ndarray:
    """All site sequences, grown one step at a time (breadth first)."""
    sites = np.array([[start]])
    hops = np.arange(-h, h + 1)
    for k in range(T):
        nxt = (sites[:, -1:] + hops).ravel()
        prev = np.repeat(sites, hops.size, axis=0)
        keep = (np.abs(nxt) <= X) & (np.abs(end - nxt) <= h * (T - k - 1))
        sites = np.column_stack([prev[keep], nxt[keep]])
    return sites


def corridor(sites: np.ndarray, margin: int = 1) -> np.ndarray:
    inner = sites[:, 1:-1]
    return ((inner >= margin).all(axis=1) | (inner <= -margin).all(axis=1)).astype(float)


def actions(sites: np.ndarray, mass: float) -> np.ndarray:
    return 0.5 * mass * (np.diff(sites, axis=1) ** 2).sum(axis=1)


def max_sep(rows: np.ndarray, sites: np.ndarray) -> np.ndarray:
    """max over t of |x_i(t) - x_j(t)|, one time step at a time."""
    out = np.zeros((rows.shape[0], sites.shape[0]))
    for t in range(sites.shape[1]):
        np.maximum(out, np.abs(rows[:, t, None] - sites[None, :, t]), out=out)
    return out


class LatticeRunOracle:
    """Paths vs the transfer matrix; sampled rows recomputed in numpy.

    Every row must satisfy prob = C w |smeared|^2 / denom with the file's
    C, and the probabilities must sum to 1.  A seeded sample of rows gets
    its max-separation row, smeared sum and denominator recomputed.
    """

    def __init__(self, inputs: dict):
        from realpathsim.lattice import LatticeSpec, transfer_amplitude

        s = inputs["spec"]
        self.spec = s
        lat = dict(steps=s["steps"], extent=s["extent"], start=s["start"], end=s["end"], hop=s["hop"])
        self.total_amp = transfer_amplitude(LatticeSpec(**lat))
        self.count = round(transfer_amplitude(LatticeSpec(**lat, mass=0.0)).real)
        self.rng = np.random.default_rng(inputs["seed"])

    def check(self, outputs):
        s = self.spec
        norm, rows = read_distribution(outputs[0])
        sites = np.loadtxt(outputs[1], delimiter=",", skiprows=1, dtype=np.int64, ndmin=2)[:, 1:]
        n = sites.shape[0]
        problems = []
        if n != self.count or rows.shape != (n, 5):
            return math.inf, f"{n} paths, {rows.shape[0]} rows; transfer matrix counts {self.count}"
        steps = np.abs(np.diff(sites, axis=1))
        if (sites.shape[1] != s["steps"] + 1 or np.any(sites[:, 0] != s["start"])
                or np.any(sites[:, -1] != s["end"]) or np.any(np.abs(sites) > s["extent"])
                or np.any(steps > s["hop"]) or np.unique(sites, axis=0).shape[0] != n):
            problems.append("paths file holds an inadmissible or repeated path")
        amps = np.exp(-1j * actions(sites, 1.0))
        w = corridor(sites)
        probs, smeared, denom = rows[:, 1], rows[:, 2] + 1j * rows[:, 3], rows[:, 4]
        unnorm = w * np.abs(smeared) ** 2 / denom
        pick = self.rng.choice(n, size=min(ORACLE_SAMPLES, n), replace=False)
        E = np.exp(-max_sep(sites[pick], sites))
        ref_smeared, ref_denom = E @ amps, E.sum(axis=1)
        ref_probs = norm * w[pick] * np.abs(ref_smeared) ** 2 / ref_denom
        return _verdict({
            "transfer_amplitude": _max_share(amps.sum(), self.total_amp, n),
            "prob_sum": _max_share(probs.sum(), 1.0, 1.0),
            "prob_formula": _max_share(probs, norm * unnorm, probs.max()),
            "norm_constant": _max_share(1.0 / unnorm.sum(), norm, norm),
            "sampled_smeared": _max_share(smeared[pick], ref_smeared, ref_denom),
            "sampled_denom": _max_share(denom[pick], ref_denom, ref_denom),
            "sampled_prob": _max_share(probs[pick], ref_probs, probs.max()),
        }, problems)


class LatticeSweepOracle:
    """Each cell recomputed densely in numpy; visibility non-increasing."""

    def __init__(self, inputs: dict):
        spec = inputs["spec"]
        m = spec["model"]
        sites = lattice_sites(m["steps"], m["extent"], m["hop"], m["start"], m["end"])
        d = max_sep(sites, sites)
        S = actions(sites, m.get("mass", 1.0))
        w = corridor(sites)
        upper = (sites[:, sites.shape[1] // 2] >= 1).astype(float)
        plain = np.exp(-1j * S)
        rows = []
        for scale in spec["sweep"]["values"]:
            E = np.exp(-d * scale)
            denom = E.sum(axis=1)
            p_plus, p_minus = (
                np.sum(w * np.abs(E @ np.exp(-1j * (S + phase * upper))) ** 2 / denom)
                for phase in (0.0, math.pi)
            )
            vis = abs(p_plus - p_minus) / (p_plus + p_minus) if p_plus + p_minus else 0.0
            unnorm = np.abs(E @ plain) ** 2 / denom
            norm = 1.0 / unnorm.sum()
            rows.append((scale, vis, norm * unnorm[w > 0].sum(), norm))
        self.expected = np.array(rows, dtype=float)

    def check(self, outputs):
        got = read_sweep(outputs[0], "distance_scale")
        problems = []
        if np.any(np.diff(got[:, 1]) > TOL):
            problems.append(f"visibility rises with distance_scale: {got[:, 1].tolist()}")
        return check_sweep(got, self.expected, problems)


# -- Minkowski ---------------------------------------------------------------------

def _interval(diff: np.ndarray) -> np.ndarray:
    return np.sum(diff[..., :-1] ** 2, axis=-1) - diff[..., -1] ** 2


def dense_interval_max(P: np.ndarray, Q: np.ndarray, samples: int = GRID_SAMPLES) -> float:
    """Largest interval over point pairs on a grid: a lower bound for d1."""
    def points(ev):
        u = np.linspace(0.0, 1.0, samples + 1)[:, None, None]
        return (ev[:-1] + u * np.diff(ev, axis=0)).reshape(-1, ev.shape[1])

    return float(np.max(_interval(points(Q)[None, :, :] - points(P)[:, None, :])))


def max_interval_to(points: np.ndarray, Q: np.ndarray) -> np.ndarray:
    """max over q on polyline Q of interval(p - q), for each point p.

    On a Q segment (c, c + t f) the interval is a quadratic in t; its max
    over [0, 1] is at an end or, for timelike f, at the stationary t.
    """
    c, f = Q[:-1], np.diff(Q, axis=0)
    U = points[:, None, :] - c[None, :, :]
    uu, ff = _interval(U), _interval(f)[None, :]
    uf = np.sum(U[..., :-1] * f[..., :-1], axis=-1) - U[..., -1] * f[..., -1]
    best = np.maximum(uu, uu - 2.0 * uf + ff)
    with np.errstate(divide="ignore", invalid="ignore"):
        t = uf / ff
        inner = np.where((ff < 0.0) & (t > 0.0) & (t < 1.0), uu - uf * t, -np.inf)
    return np.max(np.maximum(best, inner), axis=1)


def d2_prime_quadrature(P: np.ndarray, Q: np.ndarray, points: int = QUAD_POINTS) -> float:
    """Sum over the future-causal P segments of proper time times the
    midpoint-rule mean of max_q interval(p - q) along the segment."""
    u = (np.arange(points) + 0.5) / points
    total = 0.0
    for a, e in zip(P[:-1], np.diff(P, axis=0)):
        tau2 = -float(_interval(e))
        if tau2 <= 0.0 or e[-1] < 0.0:
            continue
        total += math.sqrt(tau2) * float(np.mean(max_interval_to(a + u[:, None] * e, Q)))
    return total


def boost(events: np.ndarray, rapidity: float) -> np.ndarray:
    """1+1D boost of (x, t) events."""
    ch, sh = math.cosh(rapidity), math.sinh(rapidity)
    x, t = events[:, 0], events[:, 1]
    return np.column_stack([ch * x - sh * t, ch * t - sh * x])


class MinkowskiOracle:
    """Self-distances, d1 symmetry, the dense-grid bound on d1, d2 by
    quadrature, and boost invariance of both."""

    def __init__(self, inputs: dict):
        self.events = [np.asarray(e) for e in inputs["events"]]
        self.causal = np.asarray(inputs["causal"])
        self.rng = np.random.default_rng(inputs["seed"])

    def check(self, outputs):
        from realpathsim.minkowski import MinkowskiPath, d1, d2

        n = len(self.events)
        result = np.load(outputs[0])
        if result.shape != (2, n, n) or not np.all(np.isfinite(result)):
            return math.inf, f"expected two finite {n}x{n} matrices, got {result.shape}"
        D1, D2 = result
        diag = np.diag(D1)
        problems = []
        if np.any(diag[self.causal] != 0.0) or np.any(diag[~self.causal] <= 0.0):
            problems.append(f"d1(P,P) is not 0 on causal and > 0 on non-causal paths: {diag.tolist()}")
        if np.any(D1 < 0.0):
            problems.append("negative d1")
        errors = {
            "d1_symmetry": _max_share(D1, D1.T, np.maximum(1.0, np.abs(D1))),
        }
        grid_gap, quad_d2, boost_d1, boost_d2 = 0.0, 0.0, 0.0, 0.0
        for _ in range(MINKOWSKI_SAMPLES):
            i, j = self.rng.choice(n, size=2, replace=False)
            P, Q = self.events[i], self.events[j]
            grid = dense_interval_max(P, Q)
            if grid > D1[i, j] + TOL:
                problems.append(f"grid bound {grid} exceeds d1 {D1[i, j]} on pair ({i},{j})")
            grid_gap = max(grid_gap, (D1[i, j] - grid) / (GRID_TOL * max(1.0, D1[i, j])))
            quad = 0.5 * (d2_prime_quadrature(P, Q) + d2_prime_quadrature(Q, P))
            quad_d2 = max(quad_d2, abs(D2[i, j] - quad) / (QUAD_TOL * max(1.0, abs(D2[i, j]))))
            rap = self.rng.uniform(-1.0, 1.0)
            bP, bQ = MinkowskiPath(boost(P, rap)), MinkowskiPath(boost(Q, rap))
            with warnings.catch_warnings():
                # a boost tilts the endpoint slab, which d1 and d2 warn about
                warnings.simplefilter("ignore")
                bd1, bd2 = d1(bP, bQ), d2(bP, bQ, "symmetrized")
            boost_d1 = max(boost_d1, _max_share(bd1, D1[i, j], max(1.0, abs(D1[i, j]))))
            boost_d2 = max(boost_d2, _max_share(bd2, D2[i, j], max(1.0, abs(D2[i, j]))))
        errors.update(grid_gap=grid_gap, d2_quadrature=quad_d2, boost_d1=boost_d1, boost_d2=boost_d2)
        return _verdict(errors, problems)


ORACLES = {
    "m1_run": M1RunOracle,
    "m2_sweep": M2SweepOracle,
    "lattice_run": LatticeRunOracle,
    "lattice_sweep": LatticeSweepOracle,
    "minkowski_pairs": MinkowskiOracle,
}


def corrupt(name: str, outputs: list[str]):
    """Move one output value by 1e-6 (relative where it exceeds 1), in place."""
    path = outputs[0]
    if name == "minkowski_pairs":
        result = np.load(path)
        result[0, 0, 1] += 1e-6 * max(abs(result[0, 0, 1]), 1.0)
        with open(path, "wb") as fh:
            np.save(fh, result)
        return
    with open(path) as fh:
        lines = fh.read().split("\n")
    if name in ("m1_run", "lattice_run"):
        _, rows = read_distribution(path)
        line, column = 2 + int(np.argmax(rows[:, 1])), 1      # the largest prob
    else:
        line, column = 1, 2                                   # first visibility
    fields = lines[line].split(",")
    value = float(fields[column])
    fields[column] = f"{value + 1e-6 * max(abs(value), 1.0):.17g}"
    lines[line] = ",".join(fields)
    with open(path, "w") as fh:
        fh.write("\n".join(lines))
