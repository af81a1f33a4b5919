"""Probability engine: postulate limits, invariances, oracle agreement."""

import math

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

from realpathsim import engine, screen
from realpathsim.distances import DistanceSpec
from realpathsim.engine import (
    _BAND_TILE,
    CompactPrefix,
    PathDistribution,
    _windows,
    dense_smeared,
    distinct_rows,
    distribution_from_sums,
    final_state_probabilities,
    index_smeared,
    index_tiles,
    kernel_windows,
    path_probabilities,
    prefix_sum,
    smeared_components,
    unnormalized_probabilities,
    weighted_probabilities,
)
from realpathsim.errors import AllZeroProbability
from realpathsim.toymodels import M1Spec, M2Spec, build_m1, build_model

from oracles import (
    block_distance_matrix,
    brute_force_probabilities,
    full_family_rows,
    index_distance_matrix,
    make_indexed_ensemble,
    scanned_rows,
    sliding_window_smeared,
    step_distance_table,
    untiled_banded_smeared,
)


def _random_unit(rng, n):
    return np.exp(1j * rng.uniform(0, 2 * np.pi, size=n))


def _random_dmat(rng, n, hi=3.0):
    m = rng.uniform(0, hi, size=(n, n))
    m = (m + m.T) / 2
    np.fill_diagonal(m, 0.0)
    return m


def test_single_path_probability_one():
    ens = make_indexed_ensemble([1j])
    dist = path_probabilities(ens, np.zeros((1, 1)))
    assert dist.probs[0] == 1.0
    assert dist.denom[0] == 1.0


def test_m1_canonical_values():
    ens = build_m1(M1Spec(N=24, M=9, K=3))
    dist = path_probabilities(ens, DistanceSpec("step", D=3))
    assert dist.probs[4] == 0.0                      # P_5 window cancels
    assert dist.probs[9] / dist.probs[6] == pytest.approx(9.0)
    unnorm = dist.probs / dist.norm_constant
    assert unnorm[0] == pytest.approx(1.0 / 14.0)    # boundary artefact


def test_zero_distance_gives_uniform():
    rng = np.random.default_rng(1)
    ens = make_indexed_ensemble(_random_unit(rng, 37))
    dist = path_probabilities(ens, np.zeros((37, 37)))
    assert np.allclose(dist.probs, 1 / 37, atol=1e-15)


def test_off_diagonal_infinity_gives_uniform():
    # the naive |A|^2 rule reappears as a limit: every path equally likely
    rng = np.random.default_rng(2)
    n = 23
    ens = make_indexed_ensemble(_random_unit(rng, n))
    dmat = np.full((n, n), np.inf)
    np.fill_diagonal(dmat, 0.0)
    dist = path_probabilities(ens, dmat)
    assert np.allclose(dist.probs, 1 / n, atol=1e-15)


def test_global_phase_invariance():
    rng = np.random.default_rng(3)
    n = 31
    amps = _random_unit(rng, n)
    dmat = _random_dmat(rng, n)
    base = path_probabilities(make_indexed_ensemble(amps), dmat)
    phase = np.exp(1j * 1.234)
    shifted = path_probabilities(make_indexed_ensemble(phase * amps), dmat)
    assert np.max(np.abs(base.probs - shifted.probs)) < 1e-12


def test_uniform_weight_is_bit_for_bit_plain():
    rng = np.random.default_rng(4)
    n = 19
    ens = make_indexed_ensemble(_random_unit(rng, n))
    dmat = _random_dmat(rng, n)
    plain = path_probabilities(ens, dmat)
    weighted = distribution_from_sums(*smeared_components(ens, dmat), np.ones(n))
    assert np.array_equal(plain.probs, weighted.probs)


def test_all_zero_probability_raises():
    # amplitudes that cancel everywhere, or weights that are all zero
    with pytest.raises(AllZeroProbability):
        path_probabilities(make_indexed_ensemble([1, -1]), np.zeros((2, 2)))
    sums = smeared_components(make_indexed_ensemble([1, 1]), np.zeros((2, 2)))
    with pytest.raises(AllZeroProbability):
        distribution_from_sums(*sums, np.zeros(2))


def test_denominator_at_least_one_for_zero_diagonal():
    rng = np.random.default_rng(5)
    n = 29
    ens = make_indexed_ensemble(_random_unit(rng, n))
    dist = path_probabilities(ens, _random_dmat(rng, n))
    assert np.all(dist.denom >= 1.0)


def test_banded_equals_dense_exactly():
    rng = np.random.default_rng(6)
    for n, D in ((17, 2), (40, 5), (64, 80)):
        amps = rng.choice([1.0, -1.0], size=n).astype(complex)
        ens = make_indexed_ensemble(amps)
        spec = DistanceSpec("step", D=D)
        banded = path_probabilities(ens, spec)
        dense = path_probabilities(ens, index_distance_matrix(spec, n))
        assert np.array_equal(banded.probs, dense.probs)
        assert np.array_equal(banded.denom, dense.denom)


def test_banded_literal_log_half_matches_dense():
    ens = build_m1(M1Spec(N=24, M=9, K=3))
    spec = DistanceSpec("step", D=3, literal_log_half=True)
    banded = path_probabilities(ens, spec)
    dense = path_probabilities(ens, index_distance_matrix(spec, 24))
    assert np.allclose(banded.probs, dense.probs, atol=1e-14)


def test_callable_distance_rejected():
    ens = make_indexed_ensemble([1, -1, 1, -1, 1])
    with pytest.raises(TypeError):
        path_probabilities(ens, lambda i, j: float(abs(i - j)))


def _step_smeared(amps, D, half):
    """The K=1 banded sums at rim weight ``half``: 1/2, or the literal rim's 2."""
    spec = DistanceSpec("step", D=D, literal_log_half=half == 2.0)
    return index_smeared(prefix_sum(amps, D), kernel_windows(spec, amps.size))


def test_banded_matches_sliding_window_at_scale():
    # the size the banded route runs at, random phases so nothing cancels
    rng = np.random.default_rng(15)
    amps = _random_unit(rng, 10**6)
    smeared, denom = _step_smeared(amps, 50, 0.5)
    ref_smeared, ref_denom = sliding_window_smeared(amps, 50)
    assert np.max(np.abs(smeared - ref_smeared)) <= 1e-12 * np.max(np.abs(smeared))
    assert np.array_equal(denom, ref_denom)


@pytest.mark.parametrize("half", [0.5, 2.0])
@pytest.mark.parametrize("n", [1, 2, 17])
def test_banded_window_counts_at_the_edges(n, half):
    # windows clipped at one end, at both ends, or wider than the ensemble
    rng = np.random.default_rng(n)
    amps = _random_unit(rng, n)
    for D in sorted({d for d in (1, n - 1, n, n + 1, 10**7) if d >= 1}):
        smeared, denom = _step_smeared(amps, D, half)
        ref_smeared, ref_denom = sliding_window_smeared(amps, D, rim=half)
        assert np.array_equal(denom, ref_denom), D
        assert np.max(np.abs(smeared - ref_smeared)) <= 1e-12 * np.max(np.abs(smeared)), D


def _same_bits(got, want):
    return all(g.tobytes() == w.tobytes() and g.shape == w.shape for g, w in zip(got, want))


def _collected_tiles(*args, **kwargs):
    # copies: each tile's buffers are reused by the next
    tiles = [(rows, s.copy(), d.copy()) for rows, s, d in index_tiles(*args, **kwargs)]
    assert all(a[0].stop == b[0].start for a, b in zip(tiles, tiles[1:]))
    return (np.concatenate([s for _, s, _ in tiles]), np.concatenate([d for _, _, d in tiles]))


@pytest.mark.parametrize(
    "n", [1, _BAND_TILE - 1, _BAND_TILE, _BAND_TILE + 1, 3 * _BAND_TILE + 7]
)
def test_tiled_kernel_has_the_untiled_bits(n):
    # tile edges at, around and past the ensemble's end
    amps = _random_unit(np.random.default_rng(n), n)
    for D in (1, 2, 50, n - 1, n, 10**7):
        if D < 1:
            continue
        for half in (0.5, 2.0):
            got = _step_smeared(amps, D, half)
            assert _same_bits(got, untiled_banded_smeared([amps], D, half)), (D, half)


def test_tiled_composite_has_the_untiled_bits():
    # the screen's three families, each on its own: tiled from a row off
    # the tile grid, and as distinct rows from a compact prefix that holds
    # every entry; then the composite mass from those rows against the
    # sum of the untiled K=3 kernel (within 1e-13, stated before measuring)
    rng = np.random.default_rng(3)
    comps = [_random_unit(rng, m) for m in (3 * (_BAND_TILE // 12) + 7, 3, 4)]
    for D in (1, 2, 3, 10**7):
        windows = kernel_windows(DistanceSpec("step", D=D), 1)
        families = []
        for amps in comps:
            lo = amps.size // 3
            got = _collected_tiles(prefix_sum(amps, D), windows, lo, amps.size)
            assert _same_bits(got, [w[lo:] for w in untiled_banded_smeared([amps], D)]), D
            families.append(distinct_rows(_compact(amps, [(0, amps.size)]), windows))
            assert _same_bits(families[-1], full_family_rows(amps, D)), D
        want = float(np.sum(weighted_probabilities(*untiled_banded_smeared(comps, D))))
        assert abs(screen._mass(families, windows.weights) - want) <= 1e-13 * want, D


def _clipped_counts(n, r, lo, hi):
    i = np.arange(lo, hi)
    return (np.minimum(i + r, n - 1) - np.maximum(i - r, 0) + 1).astype(float)


@pytest.mark.parametrize(
    "n, r", [(40, 5), (40, 19), (40, 20), (40, 39), (40, 40), (40, 10**7), (1, 1)]
)
def test_window_counts_are_scalar_only_when_unclipped(n, r):
    # rows at, and one past, the edges lo = r and hi = n - r where the
    # windows stop being clipped; r >= n clips every row
    prefix = prefix_sum(np.ones(n), r)
    k = min(r, n)
    edges = {0, k - 1, k, k + 1, n - k - 1, n - k, n - k + 1, n}
    for lo in sorted(e for e in edges if 0 <= e <= n):
        for hi in sorted(e for e in edges if lo < e <= n):
            sums, counts = _windows(prefix, r, lo, hi)
            want = _clipped_counts(n, r, lo, hi)
            unclipped = k <= lo and hi <= n - k
            assert np.ndim(counts) == (0 if unclipped else 1), (lo, hi)
            assert np.array_equal(np.broadcast_to(counts, want.shape), want), (lo, hi)
            assert np.array_equal(sums, want), (lo, hi)  # unit amplitudes


@pytest.mark.parametrize(
    "lo, hi", [(0, None), (0, 2 * _BAND_TILE + 1), (1, 2 * _BAND_TILE), (777, 2 * _BAND_TILE - 3)]
)
def test_index_tiles_concatenate_to_index_smeared(lo, hi):
    # n = 1 (mod _BAND_TILE): a last tile of one row; rows off the tile
    # grid; both against the untiled kernel's rows
    n = 2 * _BAND_TILE + 1
    amps = _random_unit(np.random.default_rng(lo), n)
    for D, name in ((50, "step"), (7, "exp_index")):
        windows = kernel_windows(DistanceSpec(name, D=D), n)
        prefix = prefix_sum(amps, windows.radii[-1])
        got = _collected_tiles(prefix, windows, lo, hi)
        assert _same_bits(got, index_smeared(prefix, windows, lo, hi)), (D, name)
        if name == "step":
            want = untiled_banded_smeared([amps], D)
            assert _same_bits(got, [w[lo:hi] for w in want]), D


def _compact(amps, spans):
    return CompactPrefix(amps.size, lambda a, b: amps[a:b], spans)


def test_computed_rows_count_a_signed_zero_as_a_break():
    # P(k) = +0.0, but -0.0 from P(1) (np.cumsum's own first entry, not
    # 0.0 + -0.0) to P(20), which == would call equal: P(2) differs from
    # P(0), and P(21) and P(22) from P(19) and P(20).  At R = 3 each break
    # k asks for rows k-2 .. k+5, beside the clipped rows [0, 5) and
    # [35, 40); the breaks do not depend on the spans given
    n = 40
    for negative_zero in (-0.0, complex(0.0, -0.0)):
        amps = np.zeros(n, dtype=type(negative_zero))
        assert _compact(amps, []).rows(3) == [(0, 5), (35, 40)]
        amps[:20] = negative_zero
        for spans in ([(19, 21)], [(0, n)]):
            prefix = _compact(amps, spans)
            assert prefix.breaks.tolist() == [0, 19, 20]
            assert prefix.rows(3) == [(0, 6), (17, 26), (35, 40)]
            assert prefix.rows(3) == scanned_rows(prefix_sum(amps, 5))(3)


def test_computed_rows_without_breaks_are_the_clipped_rows():
    # a 2-periodic prefix: [0, R+2) and [n-R-2, n), one range once they meet
    n = 40
    for amps in (np.resize([1.0, -1.0], n), np.resize([1j, -1j], n)):
        rows = _compact(amps, []).rows
        assert rows(1) == [(0, 3), (37, 40)]
        assert rows(3) == [(0, 5), (35, 40)]
        assert rows(18) == rows(10**7) == [(0, 40)]


def test_compact_prefix_settles_only_past_its_span():
    # the span's last amplitude, 3, cancels the next one: P(12) = P(10),
    # but amplitude 12 does not repeat amplitude 10, and from there the
    # stretch (-3, 1) drifts, so nothing settles
    n = 40
    amps = np.resize([1.0, -3.0], n)
    amps[:10], amps[10] = 0.0, 3.0
    prefix, full = _compact(amps, [(10, 11)]), prefix_sum(amps, n)
    assert prefix.window(0, n, n).sums.tobytes() == full.sums.tobytes()
    assert prefix.rows(2) == scanned_rows(full)(2)


@pytest.mark.parametrize("pair", [(1.0, -0.5), (0.1, -0.3)])
def test_compact_prefix_that_never_settles_is_explicit(pair):
    # 2-periodic amplitudes whose pairs do not cancel: P(k+2) never equals
    # P(k), so every window runs on (doubling past _SETTLE_CHUNK) into the
    # next span and to n, and the compact prefix holds every entry
    n = 3001
    amps = np.resize(np.array(pair), n)
    amps[1500:1503] = 1.0
    prefix = _compact(amps, [(1500, 1503)])
    full = prefix_sum(amps, n)
    assert len(prefix.entries.values) == 1
    assert prefix.window(0, n, n).sums.tobytes() == full.sums.tobytes()
    for R in (1, 40, n):
        assert prefix.rows(R) == scanned_rows(full)(R)


@pytest.mark.parametrize("dtype", [float, complex])
@pytest.mark.parametrize("name, D, literal", [
    ("step", 1, False), ("step", 4, True), ("step", 40, False), ("exp_index", 2, False),
])
def test_rows_between_computed_ranges_repeat_the_row_two_before(dtype, name, D, literal):
    # alternating amplitudes with three beams, phased when complex: every
    # row outside the ranges has the bits of the row two before it in a
    # full banded pass
    n = 3000
    amps = np.resize(np.array([1.0, -1.0], dtype=dtype), n)
    rng = np.random.default_rng(D)
    for start in (400, 1203, 2500):
        amps[start : start + 5] = _random_unit(rng, 5) if dtype is complex else 1.0
    windows = kernel_windows(DistanceSpec(name, D=D, literal_log_half=literal), n)
    smeared, denom = index_smeared(prefix_sum(amps, windows.radii[-1]), windows)
    copied = np.ones(n, dtype=bool)
    spans = [(start, start + 5) for start in (400, 1203, 2500)]
    for lo, hi in _compact(amps, spans).rows(windows.radii[-1]):
        copied[lo:hi] = False
    rows = np.flatnonzero(copied)
    assert rows.size > n // 2
    assert smeared[rows].tobytes() == smeared[rows - 2].tobytes()
    assert denom[rows].tobytes() == denom[rows - 2].tobytes()


def _spread_values(rng, size, spread, signed):
    """Rows of +0.0, -0.0, subnormals and normals across 2**-spread .. 2**spread."""
    values = rng.standard_normal(size) * 2.0 ** rng.integers(-spread, spread + 1, size)
    if not signed:
        np.abs(values, out=values)
    kind = rng.integers(0, 6, size)
    values[kind == 1] = 0.0
    values[kind == 2] = -0.0
    subnormal = kind == 3
    values[subnormal] = rng.integers(-(2**52) if signed else 0, 2**52, subnormal.sum()) * 5e-324
    return values


def _float_bits(x):
    return np.float64(x).tobytes()


def _strided_expansion(n, ranges):
    """Every row of CompactRows(n, ranges), each stretch filled two rows at a time."""
    full = np.empty(n)
    for (lo, values), nxt in zip(ranges, [start for start, _ in ranges[1:]] + [n]):
        hi = lo + values.size
        full[lo:hi] = values
        full[hi:nxt:2], full[hi + 1 : nxt : 2] = full[hi - 2 : hi] if nxt > hi else (0.0, 0.0)
    return full


@st.composite
def _compact_layouts(draw):
    """(n, ranges) of up to 8 ranges, stretches of 0 to 9 rows or long, values from a seed."""
    n = draw(st.one_of(st.integers(1, 2 * 10**5), st.just(1_000_004)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32)))
    spread = draw(st.sampled_from([0, 8, 60, 1000]))
    signed = draw(st.booleans())
    touch_n = draw(st.booleans())  # the last range ends at row n
    ranges, row, count = [], 0, draw(st.integers(1, 8))
    for k in range(count):
        size = min(draw(st.integers(1, 300)), n - row)
        gap = 0 if size < 2 else draw(st.one_of(st.integers(0, 9), st.integers(0, n)))
        last = k == count - 1 or row + size + gap >= n
        if last and (touch_n or size < 2):
            size = n - row
        ranges.append((row, _spread_values(rng, size, spread, signed)))
        if last:  # a stretch, maybe empty, runs on to row n unless the range reaches it
            return n, ranges
        row += size + gap


@settings(max_examples=80, deadline=None)
@given(_compact_layouts())
def test_compact_sum_follows_numpys_pairwise_order(layout):
    # CompactRows.sum walks numpy's pairwise float64 sum by itself: if a
    # numpy release changes that order, this fails before a golden drifts
    n, ranges = layout
    rows = engine.CompactRows(n, ranges)
    full = _strided_expansion(n, ranges)
    assert rows.take(0, n).tobytes() == full.tobytes()
    assert _float_bits(rows.sum()) == _float_bits(np.sum(full))
    for lo, hi in ((0, min(n, 129)), (n // 3, min(n, n // 3 + 7)), (max(0, n - 300), n)):
        assert rows.take(lo, hi).tobytes() == full[lo:hi].tobytes()


@pytest.mark.parametrize("n", [1, 7, 8, 127, 128, 129, 136, 255, 256, 257, 1000, 4099])
def test_compact_sum_over_short_stretches_at_both_parities(n):
    # every stretch length 0 to 9 after a range of either parity of length,
    # between a range at row 0 and one at row n or a stretch to row n;
    # and all rows -0.0, which np.sum gives as +0.0
    rng = np.random.default_rng(n)
    for first in (2, 3):
        for gap in range(10):
            for touch_n in (False, True):
                ranges, row = [], 0
                while row + first + gap < n:
                    ranges.append((row, _spread_values(rng, first, 60, True)))
                    row += first + gap
                ranges.append((row, _spread_values(rng, n - row if touch_n or not ranges else
                                                   min(first, n - row), 60, True)))
                rows = engine.CompactRows(n, ranges)
                full = _strided_expansion(n, ranges)
                assert rows.take(0, n).tobytes() == full.tobytes(), (first, gap)
                assert _float_bits(rows.sum()) == _float_bits(np.sum(full)), (first, gap, touch_n)
                zeros = [(start, np.full(values.size, -0.0)) for start, values in ranges]
                full = _strided_expansion(n, zeros)
                assert _float_bits(engine.CompactRows(n, zeros).sum()) == _float_bits(np.sum(full))


def test_compact_rows_refuse_a_stretch_without_two_rows_before():
    with pytest.raises(ValueError):
        engine.CompactRows(10, [(0, np.ones(1)), (5, np.ones(5))])
    with pytest.raises(ValueError):
        engine.CompactRows(10, [(1, np.ones(9))])


def _verdict(probs):
    """None if check_probabilities accepts probs, else its message and the finite total named."""
    try:
        engine.check_probabilities(probs)
    except ValueError as exc:
        message = str(exc)
    else:
        return None
    named = message.removeprefix("probabilities sum to ").removesuffix(", not 1")
    if named != message and math.isfinite(float(named)):
        return message.replace(named, "{total}"), float(named)
    return message, None


# a stretch of one row after range 0, whose last row (seat 2) repeats 0 times
_ONE_ROW_STRETCH = (6, [(0, np.array([1.0, 2.0, 3.0])), (4, np.array([1.0, 1.0]))])


@settings(max_examples=80, deadline=None)
@given(_compact_layouts(), st.sampled_from(["scaled", "nan", "inf", "negative", "offset"]),
       st.integers(0, 2**31))
@example(_ONE_ROW_STRETCH, "inf", 2)
@example(_ONE_ROW_STRETCH, "nan", 2)
def test_compact_check_decides_as_the_full_rows_do(layout, poison, seat):
    # check_probabilities totals CompactRows by each stretch's repeats,
    # not by np.sum's pairwise tree: on rows scaled to sum to 1, or
    # poisoned in one row of a range, it accepts or refuses as on every
    # row, naming a finite total to within its last bits
    n, ranges = layout
    full = np.abs(_strided_expansion(n, ranges))
    top = full.max()
    assume(top > 0)
    scale = top * np.sum(full / top)
    ranges = [(start, np.abs(values) / scale) for start, values in ranges]
    k, pick = seat % len(ranges), seat // len(ranges)
    values = ranges[k][1]
    # one of the last two rows, which the stretch after them repeats, or any row
    i = values.size - 1 - pick // 2 % min(2, values.size) if pick % 2 else pick // 2 % values.size
    values[i] = {"scaled": values[i], "nan": np.nan, "inf": np.inf, "negative": -1e-3,
                 "offset": values[i] + 1e-6}[poison]
    rows = engine.CompactRows(n, ranges)
    full = rows.take(0, n)
    total = np.sum(full)
    assert not abs(abs(total - 1.0) - engine._SUM_ATOL) <= 1e-12  # clear of the tolerance
    got, want = _verdict(rows), _verdict(full)
    assert (got is None) == (want is None) == (poison == "scaled")
    if want is not None:
        assert got[0] == want[0]
        assert (got[1] is None) == (want[1] is None)
        assert want[1] is None or got[1] == pytest.approx(want[1], rel=1e-12, abs=0)


@pytest.mark.parametrize("n", [1, 2, 15, 33, 63, 65, 513])
def test_dense_bits_do_not_depend_on_tile_rows(monkeypatch, n):
    # tiles of 2, 3, 7, 10, 16, 21, 32 or 64 rows leave a lone last row at
    # some of these n; it joins the tile before it rather than take a
    # 1-row product
    rng = np.random.default_rng(n)
    amps = [_random_unit(rng, n), _random_unit(rng, n)]
    for name in ("exp_index", "step"):
        dmat = index_distance_matrix(DistanceSpec(name, D=3), n)
        runs = []
        for rows in (engine._TILE_ROWS, 2, 3, 7, 10, 16, 21, 32, n + 1):
            monkeypatch.setattr(engine, "_TILE_ROWS", rows)
            smeared, denom = dense_smeared(amps, dmat)
            runs.append((*smeared, denom))
        for run in runs[1:]:
            assert _same_bits(run, runs[0]), name


def test_weighted_probabilities_have_the_expression_bits():
    # computed in place; zero, signed-zero, NaN and infinite volumes included
    rng = np.random.default_rng(8)
    n = 1000
    smeared = rng.normal(size=n) + 1j * rng.normal(size=n)
    denom = rng.uniform(-1, 5, n)
    denom[:5] = [0.0, -0.0, np.nan, np.inf, 1e-300]
    weights = rng.uniform(0, 2, n)
    with np.errstate(all="ignore"):
        want = np.where(denom > 0, np.abs(smeared) ** 2 / denom, 0.0)
        assert weighted_probabilities(smeared, denom).tobytes() == want.tobytes()
        got = weighted_probabilities(smeared, denom, weights)
    assert got.tobytes() == (weights * want).tobytes()


def test_brute_force_agreement_small_sample():
    rng = np.random.default_rng(11)
    for _ in range(50):
        n = int(rng.integers(1, 13))
        amps = _random_unit(rng, n)
        dmat = _random_dmat(rng, n)
        dist = path_probabilities(make_indexed_ensemble(amps), dmat)
        oracle = brute_force_probabilities(list(amps), dmat.tolist())
        assert np.max(np.abs(dist.probs - np.array(oracle))) < 1e-12


def test_brute_force_agreement_step_distance():
    ens = build_m1(M1Spec(N=30, M=11, K=5))
    dist = path_probabilities(ens, DistanceSpec("step", D=4))
    oracle = brute_force_probabilities(
        list(ens.amplitudes), step_distance_table(30, 4)
    )
    assert np.max(np.abs(dist.probs - np.array(oracle))) < 1e-12


def test_brute_force_agreement_exp_index_distance():
    ens = build_m1(M1Spec(N=30, M=11, K=5))
    dist = path_probabilities(ens, DistanceSpec("exp_index", D=4))
    table = [
        [math.exp(abs(i - j) / 4) for j in range(30)] for i in range(30)
    ]
    oracle = brute_force_probabilities(list(ens.amplitudes), table)
    assert np.max(np.abs(dist.probs - np.array(oracle))) < 1e-12


# the banded exp_index route against the dense matrix, set before
# measuring and no looser than the lattice oracle's: sums and
# denominators within 1e-12 of the row's denominator, probabilities
# within 1e-12 of the largest
_DENSE_RTOL = 1e-12


def _toy_amplitudes(n):
    """M1 and M2 amplitudes over n paths, none below 17 paths."""
    if n < 17:
        return []
    M = (n // 2) | 1
    M0 = (n // 4) | 1
    M1 = M0 + 3 + 2 * (n // 16)
    specs = (
        M1Spec(N=n, M=M, K=3 if (n - M) % 2 else 2),
        M2Spec(N=n, M0=M0, K0=2, M1=M1, K1=1 if (n - M1) % 2 else 2, theta1=1.1),
    )
    return [build_model(s).amplitudes for s in specs]


def _dense_reference(kernel, amps):
    """kernel @ amps and the kernel's row sums, each row summed pairwise.

    dense_smeared's matrix-vector product sums each row in order, which
    misses the bound on its own: on M1 and M2 at D = n - 1 the
    alternating amplitudes cancel to smeared sums 1e-3 of the
    denominator, and its probabilities came out 1.6e-12 of the largest
    off at n = 4 097, against 4.7e-14 for numpy's pairwise sums (both
    measured against a long double product).
    """
    rows = range(0, len(kernel), 64)
    smeared = np.concatenate([(kernel[lo : lo + 64] * amps).sum(axis=1) for lo in rows])
    return smeared, kernel.sum(axis=1)


@pytest.mark.parametrize("n", [1, 2, 17, 600, 4097, 16384])
def test_exp_index_banded_matches_dense(n):
    rng = np.random.default_rng(n)
    vectors = [_random_unit(rng, n), *_toy_amplitudes(n)]
    rows = None
    if n > 4097:
        # the whole matrix would take 2 GiB: both ends' rows, where the
        # windows are clipped, and random rows between
        rows = np.unique(np.concatenate(
            [np.arange(256), np.arange(n - 256, n), rng.integers(0, n, 512)]
        ))
    for D in sorted({d for d in (1, 2, 5, 50, n - 1, n, 10**7) if d >= 1}):
        spec = DistanceSpec("exp_index", D=D)
        kernel = np.exp(-index_distance_matrix(spec, n, rows))
        # 16 385 windows a row past D = 2 477 at n = 16 384: the toy
        # vectors take the narrower kernels there, random phases every one
        for amps in vectors[: 1 if rows is not None and D > 50 else None]:
            want_smeared, want_denom = _dense_reference(kernel, amps)
            smeared, denom = smeared_components(make_indexed_ensemble(amps), spec)
            if rows is not None:
                smeared, denom = smeared[rows], denom[rows]
            tol = _DENSE_RTOL * want_denom
            assert np.all(np.abs(denom - want_denom) <= tol), D
            assert np.all(np.abs(smeared - want_smeared) <= tol), D
            probs = np.abs(smeared) ** 2 / denom
            want_probs = np.abs(want_smeared) ** 2 / want_denom
            if rows is None:  # normalized, as a run prints them
                probs /= probs.sum()
                want_probs /= want_probs.sum()
            assert np.max(np.abs(probs - want_probs)) <= _DENSE_RTOL * want_probs.max(), D


def test_exp_index_windows_sum_to_the_kernel():
    # k(g) = sum of the weights of the radii >= g, and exactly 0 past the
    # widest radius, where exp(-exp(g/D)) is 0.0 too
    for n, D in ((1, 1), (17, 2), (600, 5), (600, 600), (4097, 50), (30, 10**7)):
        radii, weights = kernel_windows(DistanceSpec("exp_index", D=D), n)
        assert list(radii) == list(range(len(radii))) and min(weights) >= 0.0
        gaps = np.arange(min(radii[-1] + 50, n))
        want = np.exp(-np.exp(gaps / D))
        got = np.cumsum(weights[::-1])[::-1]
        got = np.concatenate([got, np.zeros(max(0, gaps.size - got.size))])[: gaps.size]
        assert np.all(np.abs(got - want) <= 1e-15 + 1e-13 * want), (n, D)
        assert radii[-1] == n or want[-1] == 0.0, (n, D)


def test_normalization_large_banded():
    spec = M1Spec(N=5000, M=1001, K=11)
    dist = path_probabilities(build_m1(spec), DistanceSpec("step", D=100))
    assert abs(float(np.sum(dist.probs)) - 1.0) < 1e-9
    assert np.all(dist.probs >= 0.0)


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_distribution_properties_hypothesis(data):
    n = data.draw(st.integers(2, 16))
    seed = data.draw(st.integers(0, 2**31 - 1))
    rng = np.random.default_rng(seed)
    amps = _random_unit(rng, n)
    dmat = _random_dmat(rng, n)
    dist = path_probabilities(make_indexed_ensemble(amps), dmat)
    assert np.all(dist.probs >= 0.0)
    assert abs(float(np.sum(dist.probs)) - 1.0) < 1e-9
    assert np.all(dist.denom >= 1.0)


# -- final-state (unconditioned) mode -----------------------------------------

def test_single_endpoint_probability_one():
    ens = make_indexed_ensemble([1, -1, 1], endpoint_tag="B1")
    by_endpoint, _ = final_state_probabilities([ens], np.zeros((3, 3)))
    assert by_endpoint == {"B1": pytest.approx(1.0)}


def test_two_endpoints_quantum_ratio_with_disjoint_groups():
    # coherent within a group, infinitely distant across groups: the
    # endpoint masses reduce to |sum A|^2 each, any group sizes
    rng = np.random.default_rng(12)
    a = make_indexed_ensemble(_random_unit(rng, 8), endpoint_tag="B1")
    b = make_indexed_ensemble(_random_unit(rng, 13), endpoint_tag="B2")
    dmat = block_distance_matrix(
        [8, 13], [np.zeros((8, 8)), np.zeros((13, 13))], across=math.inf
    )
    by_endpoint, union = final_state_probabilities([a, b], dmat)
    qa = abs(np.sum(a.amplitudes)) ** 2
    qb = abs(np.sum(b.amplitudes)) ** 2
    assert by_endpoint["B1"] / by_endpoint["B2"] == pytest.approx(qa / qb, rel=1e-12)
    assert abs(sum(by_endpoint.values()) - 1.0) < 1e-12
    assert union.n_paths == 21


def test_two_endpoints_global_zero_distance_is_size_weighted():
    # with d = 0 across the whole union every path is equally likely,
    # so endpoint masses follow group sizes
    rng = np.random.default_rng(13)
    a = make_indexed_ensemble(_random_unit(rng, 6), endpoint_tag="B1")
    b = make_indexed_ensemble(_random_unit(rng, 18), endpoint_tag="B2")
    by_endpoint, union = final_state_probabilities([a, b], np.zeros((24, 24)))
    assert np.allclose(union.probs, 1 / 24, atol=1e-14)
    assert by_endpoint["B1"] == pytest.approx(6 / 24)
    assert by_endpoint["B2"] == pytest.approx(18 / 24)


def test_final_state_all_zero_raises():
    a = make_indexed_ensemble([1, -1], endpoint_tag="B1")
    with pytest.raises(AllZeroProbability):
        final_state_probabilities([a], np.zeros((2, 2)))


def test_nan_sums_are_refused():
    # NaN compares false both ways: neither the sum-to-1 check nor the
    # above-0 check may pass it
    with pytest.raises(ValueError, match="sum to nan"):
        PathDistribution(np.array([np.nan, 0.5]), 1.0, np.zeros(2, complex), np.ones(2))
    with pytest.raises(AllZeroProbability, match="sum to nan"):
        distribution_from_sums(np.array([np.nan, 1.0], complex), np.ones(2))


def test_unnormalized_route_matches_distribution():
    rng = np.random.default_rng(14)
    n = 9
    ens = make_indexed_ensemble(_random_unit(rng, n))
    dmat = _random_dmat(rng, n)
    unnorm, smeared, denom = unnormalized_probabilities(ens, dmat)
    dist = path_probabilities(ens, dmat)
    assert np.allclose(dist.probs, unnorm / unnorm.sum(), atol=1e-15)
    assert np.array_equal(dist.smeared, smeared)
    assert np.array_equal(dist.denom, denom)
