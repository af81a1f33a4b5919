"""Acceptance suite: one test per criterion, one printed verdict line each.

Run with `pytest -s tests/test_acceptance.py` to see the verdict lines.
Every tolerance is pinned here, not configurable.
"""

import math
import time
import warnings

import numpy as np

from realpathsim.distances import DistanceSpec, grid_distance_matrix
from realpathsim.engine import (
    block_distance_matrix,
    final_state_probabilities,
    path_probabilities,
    unnormalized_probabilities,
)
from realpathsim.lattice import LatticeSpec, lattice_ensemble, transfer_amplitude, two_arm_visibility
from realpathsim.minkowski import (
    CausalClass,
    MinkowskiPath,
    boost_path,
    classify,
    d1,
    d2,
)
from realpathsim.paths import make_indexed_ensemble
from realpathsim.screen import ScreenSpec, evaluate_screen_model
from realpathsim.toymodels import (
    M1Spec,
    M2Spec,
    M3Spec,
    build_m1,
    build_m2,
    m1_closed_form,
    m2_closed_form,
)

from oracles import brute_force_probabilities, step_distance


def _verdict(number: int, ok: bool, detail: str):
    print(f"[criterion {number}] {'PASS' if ok else 'FAIL'}: {detail}")
    assert ok, f"criterion {number} failed: {detail}"


# -- 1. M1 exact regime reproduction ------------------------------------------

def _m1_acceptance_grid():
    specs = []
    for K in (1, 3, 5, 9):            # 2D > K
        for D in (5, 9, 16):
            M = 2 * D + 3
            specs.append((M1Spec(N=M + K + 2 * D + 4, M=M, K=K), D))
    for K in (12, 20, 40):            # 2D <= K
        for D in (2, 4, 6):
            M = 2 * D + 3
            specs.append((M1Spec(N=M + K + 2 * D + 4, M=M, K=K), D))
    specs.append((M1Spec(N=2000, M=601, K=9), 150))    # 2D > K at full size
    specs.append((M1Spec(N=2000, M=401, K=199), 50))   # 2D <= K at full size
    return specs


def test_criterion_1_m1_exact_regimes():
    t0 = time.perf_counter()
    grid = _m1_acceptance_grid()
    cases = {True: 0, False: 0}
    worst = 0.0
    for spec, D in grid:
        cases[2 * D > spec.K] += 1
        direct, _, _ = unnormalized_probabilities(
            build_m1(spec), DistanceSpec("step", D=D)
        )
        closed = np.full(spec.N, np.nan)
        for i in range(1, spec.N + 1):
            cf = m1_closed_form(i, spec, D)
            if cf.status != "uncovered":
                closed[i - 1] = cf.value
        mask = ~np.isnan(closed)
        assert mask.sum() > spec.N // 2
        d_norm = direct[mask] / direct[mask].sum()
        c_norm = closed[mask] / closed[mask].sum()
        worst = max(worst, float(np.max(np.abs(d_norm - c_norm))))
    elapsed = time.perf_counter() - t0
    ok = (
        len(grid) >= 20
        and cases[True] >= 5
        and cases[False] >= 5
        and worst <= 1e-12
        and elapsed < 10.0
    )
    _verdict(
        1,
        ok,
        f"{len(grid)} M1 specs ({cases[True]} with 2D>K, {cases[False]} with "
        f"2D<=K), max normalized deviation {worst:.2e} <= 1e-12, "
        f"runtime {elapsed:.2f}s < 10s",
    )


# -- 2. M2 interference vs decoherence ----------------------------------------

def _beam_mass(spec: M2Spec, D: int) -> float:
    unnorm, _, _ = unnormalized_probabilities(
        build_m2(spec), DistanceSpec("step", D=D)
    )
    lo = max(1, spec.M0 - D)
    hi = min(spec.N, spec.M1 + spec.K1 + D)
    return float(np.sum(unnorm[lo - 1 : hi]))


def test_criterion_2_m2_interference_vs_decoherence():
    t0 = time.perf_counter()
    tol = 3.0 / 20.0
    thetas = (0.0, math.pi / 2, math.pi)

    # case (i): beams d-close, exact premises in strict mode
    D_i = 410
    case_i = [
        M2Spec(N=1688, M0=823, K0=19, M1=845, K1=19, theta0=0.0, theta1=th)
        for th in thetas
    ]
    worst_i = 0.0
    floor = 20**2 / (2 * D_i)
    for spec in case_i:
        direct, _, _ = unnormalized_probabilities(
            build_m2(spec), DistanceSpec("step", D=D_i)
        )
        covered = 0
        for i in range(1, spec.N + 1):
            cf = m2_closed_form(i, spec, D_i, "i", strict=True)
            if cf.status != "covered":
                continue
            covered += 1
            rel = abs(direct[i - 1] - cf.value) / max(cf.value, floor)
            worst_i = max(worst_i, rel)
        assert covered > 100
    masses_i = [_beam_mass(spec, D_i) for spec in case_i]
    vis_i = (max(masses_i) - min(masses_i)) / (max(masses_i) + min(masses_i))

    # case (ii): beams d-distant
    D_ii = 190
    case_ii = [
        M2Spec(N=1186, M0=383, K0=19, M1=785, K1=19, theta0=0.0, theta1=th)
        for th in thetas
    ]
    worst_ii = 0.0
    floor_ii = 20**2 / (2 * D_ii)
    for spec in case_ii:
        direct, _, _ = unnormalized_probabilities(
            build_m2(spec), DistanceSpec("step", D=D_ii)
        )
        for i in range(1, spec.N + 1):
            cf = m2_closed_form(i, spec, D_ii, "ii", strict=True)
            if cf.status != "covered":
                continue
            rel = abs(direct[i - 1] - cf.value) / max(cf.value, floor_ii)
            worst_ii = max(worst_ii, rel)
    masses_ii = [_beam_mass(spec, D_ii) for spec in case_ii]
    vis_ii = (max(masses_ii) - min(masses_ii)) / (max(masses_ii) + min(masses_ii))

    elapsed = time.perf_counter() - t0
    ok = (
        worst_i <= tol
        and worst_ii <= tol
        and vis_i >= 0.95
        and vis_ii <= 0.1
        and elapsed < 10.0
    )
    _verdict(
        2,
        ok,
        f"case (i) max rel err {worst_i:.3f} and case (ii) {worst_ii:.3f} "
        f"<= 3/(K+1) = {tol:.3f}; visibility {vis_i:.3f} >= 0.95 (close) vs "
        f"{vis_ii:.3f} <= 0.1 (distant); runtime {elapsed:.2f}s < 10s",
    )


# -- 3. screen-model quantum ratios -------------------------------------------

def test_criterion_3_screen_quantum_ratios():
    t0 = time.perf_counter()
    tol = 3.0 / 9.0  # min beam strength 9
    eps = (
        M3Spec(N=61, regions=((27, 8, 0.0),)),
        M3Spec(N=69, regions=((27, 16, 0.0),)),
    )
    ratios = {}
    for k_after, n_after, anchors in ((8, 95, (27, 61)), (16, 121, (27, 69))):
        spec = ScreenSpec(
            D=12, endpoints=eps, screen_before=M1Spec(N=61, M=27, K=8),
            n_after=n_after, k_after=k_after, anchors=anchors,
        )
        assert spec.total_paths() <= 10**6
        res = evaluate_screen_model(spec)
        ratios[k_after] = res.totals[1] / res.totals[0]
    quantum = (17**2) / (9**2)
    err = abs(ratios[8] - quantum) / quantum
    drift = abs(ratios[16] - ratios[8]) / ratios[8]
    elapsed = time.perf_counter() - t0
    ok = err <= tol and drift <= tol and elapsed < 60.0
    _verdict(
        3,
        ok,
        f"detection ratio {ratios[8]:.3f} vs quantum {quantum:.3f} "
        f"(rel err {err:.3f} <= {tol:.3f}); K'' doubling drift {drift:.4f} "
        f"<= {tol:.3f}; runtime {elapsed:.2f}s < 60s",
    )


# -- 4. limit properties -------------------------------------------------------

def test_criterion_4_limit_properties():
    rng = np.random.default_rng(41)
    n = 40
    amps = np.exp(1j * rng.uniform(0, 2 * np.pi, n))
    ens = make_indexed_ensemble(amps)

    uniform = path_probabilities(ens, np.zeros((n, n)))
    err_uniform = float(np.max(np.abs(uniform.probs - 1.0 / n)))

    groups = [
        make_indexed_ensemble(np.exp(1j * rng.uniform(0, 2 * np.pi, 9)), "B1"),
        make_indexed_ensemble(np.exp(1j * rng.uniform(0, 2 * np.pi, 14)), "B2"),
    ]
    dmat = block_distance_matrix(
        [9, 14], [np.zeros((9, 9)), np.zeros((14, 14))], across=math.inf
    )
    by_endpoint, _ = final_state_probabilities(groups, dmat)
    q = [abs(np.sum(g.amplitudes)) ** 2 for g in groups]
    expected = {"B1": q[0] / sum(q), "B2": q[1] / sum(q)}
    err_ratio = max(abs(by_endpoint[k] - expected[k]) for k in expected)

    inf_mat = np.full((n, n), np.inf)
    np.fill_diagonal(inf_mat, 0.0)
    degenerate = path_probabilities(ens, inf_mat)
    err_degenerate = float(np.max(np.abs(degenerate.probs - 1.0 / n)))

    dmat_r = rng.uniform(0, 2, (n, n))
    plain = path_probabilities(ens, dmat_r)
    weighted = path_probabilities(ens, dmat_r, weights=np.ones(n))
    bit_equal = np.array_equal(plain.probs, weighted.probs) and np.array_equal(
        plain.smeared, weighted.smeared
    )

    ok = (
        err_uniform <= 1e-9
        and err_ratio <= 1e-9
        and err_degenerate <= 1e-9
        and bit_equal
    )
    _verdict(
        4,
        ok,
        f"d=0 uniform (err {err_uniform:.1e}) and quantum final-state ratios "
        f"(err {err_ratio:.1e}) <= 1e-9; off-diagonal-inf uniform "
        f"(err {err_degenerate:.1e}); w=1 reduces bit-for-bit: {bit_equal}",
    )


# -- 5. brute-force oracle equivalence -----------------------------------------

def test_criterion_5_brute_force_equivalence():
    rng = np.random.default_rng(55)
    worst = 0.0
    for _ in range(200):
        n = int(rng.integers(1, 13))
        amps = np.exp(1j * rng.uniform(0, 2 * np.pi, n))
        dmat = rng.uniform(0, 3, (n, n))
        dmat = (dmat + dmat.T) / 2
        np.fill_diagonal(dmat, 0.0)
        engine = path_probabilities(make_indexed_ensemble(amps), dmat)
        oracle = brute_force_probabilities(list(amps), dmat.tolist())
        worst = max(worst, float(np.max(np.abs(engine.probs - np.array(oracle)))))
    ok = worst <= 1e-12
    _verdict(
        5, ok,
        f"200 random ensembles (N <= 12): max |engine - naive loop| "
        f"{worst:.2e} <= 1e-12",
    )


# -- 6. Minkowski invariance suite ---------------------------------------------

def _random_causal(rng, n_mid=3, T=3.0, dim=2):
    while True:
        ts = np.sort(rng.uniform(0.2, T - 0.2, n_mid))
        ts = np.concatenate([[0.0], ts, [T]])
        xs = np.zeros((n_mid + 2, dim - 1))
        for k in range(1, n_mid + 2):
            dt = ts[k] - ts[k - 1]
            step = rng.uniform(-0.9, 0.9, size=dim - 1)
            step /= max(1.0, np.linalg.norm(step) / 0.9)
            xs[k] = xs[k - 1] + step * dt
        path = MinkowskiPath(np.column_stack([xs, ts]))
        if classify(path) is CausalClass.CAUSAL:
            return path


def _random_between(rng, A, B, n_mid=3, spread=1.5):
    dim = A.size
    while True:
        ts = np.sort(rng.uniform(A[-1] + 0.1, B[-1] - 0.1, n_mid))
        mids = np.column_stack(
            [rng.uniform(-spread, spread, size=(n_mid, dim - 1)), ts[:, None]]
        )
        path = MinkowskiPath(np.vstack([A, mids, B]))
        if classify(path) is not CausalClass.ANTI_CAUSAL:
            return path


def _null_path_between(A, B):
    # two-leg lightlike path; exists because B - A is timelike here
    half = 0.5 * ((B[-1] - A[-1]) + (B[0] - A[0]))
    mid = np.array(A, dtype=float)
    mid[0] = A[0] + half
    mid[-1] = A[-1] + half
    return MinkowskiPath(np.vstack([A, mid, B]))


def test_criterion_6_minkowski_invariance():
    rng = np.random.default_rng(66)
    worst_d1 = worst_d2 = 0.0
    labels_ok = True
    non_causal_self = []
    null_vals = []
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        for pair_index in range(100):
            dim = 2 if pair_index < 80 else 4
            P = _random_causal(rng, dim=dim)
            Q = _random_between(rng, P.start, P.end)
            base_d1 = d1(P, Q)
            base_d2 = d2(P, Q)
            base_cls = classify(Q)
            if base_cls is CausalClass.NON_CAUSAL:
                non_causal_self.append(d1(Q, Q))
            if dim == 2:
                null_vals.append(abs(d2(_null_path_between(P.start, P.end), Q)))
            assert d1(P, P) == 0.0
            for _ in range(20):
                rap = rng.uniform(-2.0, 2.0)
                direction = rng.uniform(-1.0, 1.0, size=dim - 1)
                bP = boost_path(P, rap, direction)
                bQ = boost_path(Q, rap, direction)
                labels_ok &= classify(bQ) is base_cls
                labels_ok &= classify(bP) is CausalClass.CAUSAL
                worst_d1 = max(
                    worst_d1, abs(d1(bP, bQ) - base_d1) / max(1.0, abs(base_d1))
                )
                worst_d2 = max(
                    worst_d2, abs(d2(bP, bQ) - base_d2) / max(1.0, abs(base_d2))
                )
    self_pos = all(v > 0 for v in non_causal_self)
    null_zero = all(v == 0.0 for v in null_vals)
    ok = (
        worst_d1 < 1e-9
        and worst_d2 < 1e-9
        and labels_ok
        and len(non_causal_self) > 5
        and self_pos
        and null_zero
    )
    _verdict(
        6,
        ok,
        f"100 pairs x 20 boosts: d1 drift {worst_d1:.1e}, d2 drift "
        f"{worst_d2:.1e} < 1e-9; labels boost-exact: {labels_ok}; "
        f"d1(Q,Q)>0 for all {len(non_causal_self)} non-causal Q: {self_pos}; "
        f"d2(null, .) = 0 on {len(null_vals)} pairs: {null_zero}",
    )


# -- 7. metric-axiom suite ------------------------------------------------------

def test_criterion_7_metric_axioms():
    rng = np.random.default_rng(77)
    n = 100
    ts = np.arange(7, dtype=float)
    xs = np.zeros((n, 7))
    xs[:, 1:-1] = rng.uniform(-4, 4, size=(n, 5))
    triples = rng.integers(0, n, size=(1000, 3))
    sym_ok = True
    tri_ok = True
    for name in ("max_sep", "l1_time_integral", "l2", "velocity_l1"):
        mat = grid_distance_matrix(xs, ts, DistanceSpec(name))
        sym_ok &= bool(np.array_equal(mat, mat.T))
        p, q, r = triples[:, 0], triples[:, 1], triples[:, 2]
        tri_ok &= bool(np.all(mat[p, r] <= mat[p, q] + mat[q, r] + 1e-12))
    i, D = 11, 4
    witness = step_distance(i, i + 2 * D, D) > step_distance(
        i, i + D, D
    ) + step_distance(i + D, i + 2 * D, D)
    ok = sym_ok and tri_ok and witness
    _verdict(
        7,
        ok,
        f"symmetry exact: {sym_ok}; triangle inequality on 1000 triples "
        f"(max_sep/l1/l2/velocity): {tri_ok}; step-distance violation "
        f"witness (i, i+D, i+2D): {witness}",
    )


# -- 8. lattice decoherence monotonicity ----------------------------------------

def test_criterion_8_lattice_decoherence():
    t0 = time.perf_counter()
    spec = LatticeSpec(steps=6, extent=6, start=0, end=0, hop=2)
    ens, sites = lattice_ensemble(spec)
    assert spec.steps <= 8 and sites.shape[0] <= 10**5
    amp_err = abs(complex(np.sum(ens.amplitudes)) - transfer_amplitude(spec))
    scales = (0.0, 1.0, 10.0, 100.0)
    vis = [
        two_arm_visibility(spec, DistanceSpec("max_sep"), distance_scale=s)
        for s in scales
    ]
    monotone = all(a >= b - 1e-12 for a, b in zip(vis, vis[1:]))
    elapsed = time.perf_counter() - t0
    ok = monotone and amp_err <= 1e-10 and elapsed < 60.0
    _verdict(
        8,
        ok,
        f"visibility {[round(v, 4) for v in vis]} non-increasing over scales "
        f"{scales}: {monotone}; transfer-vs-enumeration amplitude error "
        f"{amp_err:.1e} <= 1e-10; {sites.shape[0]} paths, "
        f"runtime {elapsed:.2f}s < 60s",
    )
