import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mxsim import formats
from mxsim.formats import (
    E2M1,
    E4M3,
    E8M0,
    E8M3,
    E5M2,
    UE5M3,
    FORMATS,
    FloatFormat,
    ROUNDING_MODES,
    STOCHASTIC,
    TIES_TO_EVEN,
    TOWARD_POSITIVE,
    decode_array,
    encode_array,
    grid,
    round_array,
)

ALL_FORMATS = list(FORMATS.values())


def brute_force_rtn(x: float, fmt) -> float:
    """Independent nearest-with-even-ties oracle over the enumerated grid.

    Exponent-only grids compare relative deviation |x/v - 1|; everything
    else compares absolute distance.  Ties pick the value whose canonical
    code, from the enumeration, has an even low bit.
    """
    g = grid(fmt)
    if abs(x) > fmt.max_finite:
        return math.copysign(fmt.max_finite, x) if fmt.signed else fmt.max_finite
    x = min(max(x, g[0]), g[-1])
    if fmt.exponent_only:
        dist = np.abs(x / g - 1.0)
    else:
        dist = np.abs(g - x)
    best = np.flatnonzero(dist == dist.min())
    if len(best) == 1:
        return float(g[best[0]])
    evens = [i for i in best if fmt._grid.codes[i] % 2 == 0]
    return float(g[evens[0] if evens else best[0]])


def _grid_round(x, fmt, mode=TIES_TO_EVEN, rng=None):
    """Grid-search rounding oracle: locate each input's neighbours on the
    enumerated grid and pick one by the mode's rule, ties by the parity of
    the enumerated codes.  Same contract and same rng draw as
    :func:`round_array`."""
    x = np.asarray(x, dtype=np.float64)
    g = grid(fmt)
    even = (fmt._grid.codes & 1) == 0
    max_fin = g[-1]

    saturated = np.abs(x) > max_fin

    clipped = np.clip(x, g[0], max_fin)
    hi_idx = np.clip(np.searchsorted(g, clipped, side="left"), 0, len(g) - 1)
    on_grid = g[hi_idx] == clipped

    if mode == TOWARD_POSITIVE:
        result = g[hi_idx]
    else:
        lo = g[np.where(on_grid, hi_idx, np.maximum(hi_idx - 1, 0))]
        hi = g[hi_idx]
        span = hi - lo
        with np.errstate(invalid="ignore", divide="ignore"):
            frac = np.where(span > 0, (clipped - lo) / span, 0.0)
        if mode == STOCHASTIC:
            result = np.where(rng.random(x.shape) < frac, hi, lo)
        else:
            if fmt.exponent_only:
                with np.errstate(invalid="ignore", divide="ignore"):
                    boundary = np.where(span > 0, 2.0 * lo * hi / (lo + hi), lo)
            else:
                boundary = lo + 0.5 * span
            tie = (clipped == boundary) & ~on_grid
            pick_hi = (clipped > boundary) | (tie & even[hi_idx])
            result = np.where(pick_hi, hi, lo)

    sat_val = np.sign(x) * max_fin if fmt.signed else np.full_like(x, max_fin)
    return np.where(saturated, sat_val, result)


def _oracle_inputs(fmt, rng):
    """Grid points, absolute and harmonic midpoints, their float64
    neighbours, the saturation region, float64 subnormals and random
    samples spread over the whole exponent range."""
    g = grid(fmt)
    lo, hi = g[:-1], g[1:]
    mids = lo + 0.5 * (hi - lo)
    with np.errstate(divide="ignore", invalid="ignore"):
        harm = 2.0 * lo * hi / (lo + hi)
    harm = harm[np.isfinite(harm)]
    base = np.concatenate([g, mids, harm])
    base = np.concatenate([base, np.nextafter(base, np.inf),
                           np.nextafter(base, -np.inf)])
    m = fmt.max_finite
    edge = np.array([2 * m, -2 * m, m * (1 + 2**-40), -m * (1 + 2**-40), 1e300,
                     -1e300, 0.0, -0.0, 5e-324, -5e-324, 2.2e-308, -1e-310])
    log_lo = math.log2(fmt.min_positive) - 4
    log_hi = math.log2(m) + 2
    mag = np.exp2(rng.uniform(log_lo, log_hi, size=100_000))
    rand = mag * rng.choice([-1.0, 1.0], size=mag.size)
    lin = rng.uniform(-1.25 * m, 1.25 * m, size=100_000)
    x = np.concatenate([base, edge, rand, lin])
    return np.concatenate([x, -x])


def _assert_same_rounding(got, want):
    assert got.dtype == want.dtype
    np.testing.assert_array_equal(got, want)
    assert np.array_equal(np.signbit(got), np.signbit(want))


class TestGridOracle:
    """The arithmetic rounding and encoding paths reproduce grid search."""

    @pytest.mark.parametrize("mode", [TIES_TO_EVEN, TOWARD_POSITIVE])
    @pytest.mark.parametrize("fmt", ALL_FORMATS, ids=lambda f: f.name)
    def test_deterministic_modes(self, fmt, mode):
        x = _oracle_inputs(fmt, np.random.default_rng(5))
        _assert_same_rounding(round_array(x, fmt, mode), _grid_round(x, fmt, mode))

    @pytest.mark.parametrize("fmt", ALL_FORMATS, ids=lambda f: f.name)
    def test_stochastic_stream(self, fmt):
        x = _oracle_inputs(fmt, np.random.default_rng(6))
        got = round_array(x, fmt, STOCHASTIC, np.random.default_rng(99))
        want = _grid_round(x, fmt, STOCHASTIC, np.random.default_rng(99))
        _assert_same_rounding(got, want)

    @pytest.mark.parametrize("mode", formats.ROUNDING_MODES)
    @pytest.mark.parametrize("fmt", ALL_FORMATS, ids=lambda f: f.name)
    def test_kernel_in_place(self, fmt, mode):
        # The unchecked kernel, writing over its own input, gives the
        # oracle's values.
        x = _oracle_inputs(fmt, np.random.default_rng(7))
        want = _grid_round(x, fmt, mode, np.random.default_rng(13))
        got = formats._round(x, fmt, mode, np.random.default_rng(13), out=x)
        assert got is x
        np.testing.assert_array_equal(got, want)
        assert np.array_equal(np.signbit(got), np.signbit(want))

    def test_output_shape_follows_input(self):
        x = np.linspace(-7, 7, 24).reshape(2, 3, 4)
        for mode, rng in ((TIES_TO_EVEN, None), (STOCHASTIC, np.random.default_rng(1))):
            assert round_array(x, E2M1, mode, rng).shape == x.shape

    @pytest.mark.parametrize("fmt", ALL_FORMATS, ids=lambda f: f.name)
    def test_encode_array_matches_grid_codes(self, fmt):
        g = grid(fmt)
        want = fmt._grid.codes
        got = encode_array(g, fmt)
        assert got.dtype == np.uint32
        np.testing.assert_array_equal(got, want)
        np.testing.assert_array_equal(encode_array(g.reshape(-1, 1), fmt),
                                      want.reshape(-1, 1))
        if 0.0 in g:
            assert encode_array(np.array([-0.0]), fmt)[0] == want[g == 0.0][0]

    @pytest.mark.parametrize("fmt", ALL_FORMATS, ids=lambda f: f.name)
    def test_encode_array_rejects_unrepresentable(self, fmt):
        g = grid(fmt)
        m = fmt.max_finite
        pos = g[g > 0]
        bad = [2 * m, -2 * m, np.nan, np.inf, -np.inf,
               np.nextafter(m, np.inf), 0.5 * (pos[0] + pos[1])]
        if fmt.exponent_only:
            bad += [0.0, pos[0] / 2]
        else:
            bad.append(fmt.min_positive / 2)
        if not fmt.signed:
            bad.append(-pos[len(pos) // 2])
        for v in bad:
            with pytest.raises(ValueError):
                encode_array(np.array([1.0 * pos[0], v]), fmt)


class TestGrid:
    def test_e2m1_grid(self):
        expected = [-6, -4, -3, -2, -1.5, -1, -0.5, 0, 0.5, 1, 1.5, 2, 3, 4, 6]
        assert grid(E2M1).tolist() == expected

    def test_e8m0_grid(self):
        g = grid(E8M0)
        assert len(g) == 255
        assert g[0] == 2.0**-127
        assert g[-1] == 2.0**127
        assert 1.0 in g

    def test_ue5m3_max(self):
        assert UE5M3.max_finite == 1.875 * 2**16 == 122880

    def test_e4m3_max_and_min_subnormal(self):
        assert E4M3.max_finite == 448
        assert E4M3.min_positive == 2.0**-9

    def test_e5m2_max(self):
        assert E5M2.max_finite == 57344

    def test_e8m3_is_unsigned_full_range(self):
        g = grid(E8M3)
        assert g[0] == 0.0
        assert g[-1] == 1.875 * 2.0**128

    @pytest.mark.parametrize("fmt", ALL_FORMATS, ids=lambda f: f.name)
    def test_grid_sorted_strictly_increasing(self, fmt):
        g = grid(fmt)
        assert np.all(np.diff(g) > 0)

    @pytest.mark.parametrize("fmt", ALL_FORMATS, ids=lambda f: f.name)
    def test_grid_symmetric_when_signed(self, fmt):
        g = grid(fmt)
        if fmt.signed:
            np.testing.assert_array_equal(g, -g[::-1])
        else:
            assert g[0] >= 0

    @pytest.mark.parametrize("fmt", ALL_FORMATS, ids=lambda f: f.name)
    def test_min_subnormal_formula(self, fmt):
        if not fmt.exponent_only:
            assert fmt.min_positive == 2.0 ** (1 - fmt.bias - fmt.mantissa_bits)

    @pytest.mark.parametrize("fmt", ALL_FORMATS, ids=lambda f: f.name)
    def test_min_positive_subnormal(self, fmt):
        # Subnormal code 1, or the lowest power of two of an exponent-only
        # format, which has no subnormals.
        expected = 2.0 ** (-fmt.bias if fmt.exponent_only
                           else 1 - fmt.bias - fmt.mantissa_bits)
        assert fmt.min_positive == expected

    @pytest.mark.parametrize("bits, field", [
        ((0, 1), "exponent_bits"), ((9, 1), "exponent_bits"),
        ((2, 4), "mantissa_bits"), ((2, -1), "mantissa_bits"),
    ])
    def test_field_widths_checked(self, bits, field):
        with pytest.raises(ValueError, match=f"{field} out of range"):
            FloatFormat("X", *bits, bias=1)


class TestCodec:
    @pytest.mark.parametrize("fmt", ALL_FORMATS, ids=lambda f: f.name)
    def test_round_trip_every_code(self, fmt):
        g = grid(fmt)
        np.testing.assert_array_equal(decode_array(encode_array(g, fmt), fmt), g)
        np.testing.assert_array_equal(decode_array(fmt._grid.codes, fmt), g)

    def test_encode_rejects_unrepresentable(self):
        with pytest.raises(ValueError):
            encode_array(np.array([2.5]), E2M1)

    @pytest.mark.parametrize("codes, fmt", [
        ([-1], E2M1), ([16], E2M1), ([0x7F], E4M3), ([0xFF], E8M0),
    ], ids=["negative", "past-the-table", "E4M3-NaN", "E8M0-NaN"])
    def test_decode_rejects_invalid_codes(self, codes, fmt):
        with pytest.raises(ValueError, match=f"invalid {fmt.name} codes"):
            decode_array(np.array(codes), fmt)

    def test_known_round_trips(self):
        for v, fmt in ((1.5, E2M1), (448.0, E4M3), (2.0**-127, E8M0)):
            assert decode_array(encode_array(np.array([v]), fmt), fmt)[0] == v


class TestRoundTiesToEven:
    def test_tie_goes_to_even_mantissa(self):
        r = round_array(np.array([2.5]), E2M1, TIES_TO_EVEN)
        assert r[0] == 2.0

    def test_saturation(self):
        r = round_array(np.array([7.0, -7.0]), E2M1, TIES_TO_EVEN)
        assert r.tolist() == [6.0, -6.0]

    @pytest.mark.parametrize("fmt", ALL_FORMATS, ids=lambda f: f.name)
    def test_matches_brute_force_oracle(self, fmt):
        rng = np.random.default_rng(0)
        span = min(fmt.max_finite * 1.5, 1e6)
        lo = -span if fmt.signed else 0.0
        xs = rng.uniform(lo, span, size=20_000)
        got = round_array(xs, fmt, TIES_TO_EVEN)
        want = np.array([brute_force_rtn(float(x), fmt) for x in xs])
        assert np.array_equal(got, want)

    def test_e8m0_relative_nearest_boundary(self):
        # Between 1 and 2 the relative-nearest boundary sits at 4/3.
        r = round_array(np.array([4 / 3 - 1e-9, 4 / 3 + 1e-9]), E8M0)
        assert r.tolist() == [1.0, 2.0]

    def test_e8m0_ties_over_the_whole_exponent_range(self):
        # fl(4/3) * 2**k is exactly the relative-nearest boundary between
        # 2**k and 2**(k+1); the tie goes to the even exponent field
        # k + 127 or k + 128.  Below 2**-127 the input clamps to the lowest
        # binade, and above 2**127 it saturates.
        k = np.arange(-127, 127)
        ties = (4 / 3) * np.exp2(k)
        r = round_array(ties, E8M0)
        np.testing.assert_array_equal(r, np.exp2(np.where((k + 127) % 2 == 0, k, k + 1)))
        r = round_array(np.nextafter(ties, 0), E8M0)
        np.testing.assert_array_equal(r, np.exp2(k))
        r = round_array(np.nextafter(ties, np.inf), E8M0)
        np.testing.assert_array_equal(r, np.exp2(k + 1))
        edges = (4 / 3) * np.exp2([-130.0, -128.0, 127.0])
        r = round_array(edges, E8M0)
        assert r.tolist() == [2.0**-127, 2.0**-127, 2.0**127]
        for x in (ties, edges):
            _assert_same_rounding(round_array(x, E8M0), _grid_round(x, E8M0))

    def test_rejects_nonfinite(self):
        with pytest.raises(ValueError):
            round_array(np.array([np.nan]), E2M1)
        with pytest.raises(ValueError):
            round_array(np.array([np.inf]), E2M1)

    def test_rejects_unknown_mode(self):
        with pytest.raises(ValueError, match="unknown rounding mode"):
            round_array(np.array([1.0]), E2M1, "TiesToOdd")

    @pytest.mark.parametrize("mode", formats.ROUNDING_MODES)
    def test_input_unchanged(self, mode):
        x = np.random.default_rng(4).normal(scale=4.0, size=(8, 32))
        x[0, :4] = [-0.0, 1e9, -1e9, 5e-324]
        before = x.tobytes()
        round_array(x, E2M1, mode, np.random.default_rng(0))
        assert x.tobytes() == before


class TestRoundTowardPositive:
    def test_next_value_up(self):
        assert round_array(np.array([2.1]), E2M1, TOWARD_POSITIVE)[0] == 3.0

    def test_on_grid_is_identity(self):
        for v in grid(E2M1):
            assert round_array(np.array([v]), E2M1, TOWARD_POSITIVE)[0] == v

    @given(st.floats(-8, 8), st.floats(-8, 8))
    def test_monotone(self, x, y):
        if x > y:
            x, y = y, x
        rx, ry = round_array(np.array([x, y]), E2M1, TOWARD_POSITIVE)
        assert rx <= ry


class TestRoundStochastic:
    def test_requires_rng(self):
        with pytest.raises(ValueError):
            round_array(np.array([2.5]), E2M1, STOCHASTIC)

    def test_midpoint_splits_evenly(self):
        rng = np.random.default_rng(7)
        r = round_array(np.full(40_000, 2.5), E2M1, STOCHASTIC, rng)
        frac_up = np.mean(r == 3.0)
        assert set(np.unique(r)) <= {2.0, 3.0}
        assert abs(frac_up - 0.5) < 0.02

    @pytest.mark.parametrize("fmt", ALL_FORMATS, ids=lambda f: f.name)
    def test_unbiased(self, fmt):
        rng = np.random.default_rng(11)
        g = grid(fmt)
        mid = len(g) // 2
        a, b = g[mid], g[mid + 1]
        x = a + 0.37 * (b - a)
        n = 100_000
        r = round_array(np.full(n, x), fmt, STOCHASTIC, rng)
        se = (b - a) / math.sqrt(n)
        assert abs(r.mean() - x) < 4 * se

    def test_exact_grid_value_never_moves(self):
        rng = np.random.default_rng(3)
        r = round_array(np.full(1000, 1.5), E2M1, STOCHASTIC, rng)
        assert np.all(r == 1.5)


@settings(max_examples=200)
@given(st.floats(-10, 10))
def test_rtn_result_is_on_grid(x):
    (r,) = round_array(np.array([x]), E2M1, TIES_TO_EVEN)
    assert r in grid(E2M1)


@pytest.mark.parametrize("mode", ROUNDING_MODES)
@pytest.mark.parametrize("fmt", ALL_FORMATS, ids=lambda f: f.name)
def test_zero_dimensional_input_rounds_as_one_element(fmt, mode):
    for x in (1.3, -2.7, 0.0, 0.3, 1e300):
        rng = [np.random.default_rng(5) if mode == STOCHASTIC else None for _ in range(3)]
        one = round_array(np.array([x]), fmt, mode, rng[0])
        for scalar, r in zip((x, np.float64(x)), rng[1:]):
            got = round_array(scalar, fmt, mode, r)
            assert got.shape == () and got.tobytes() == one.tobytes()
