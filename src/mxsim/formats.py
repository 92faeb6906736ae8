"""Small floating-point formats: enumeration, encoding, and rounding.

Element values (4-bit E2M1) and block scales (E8M0, E4M3, UE5M3, E8M3,
E5M2) are all instances of one parametric minifloat description.

Rounding is exponent arithmetic, as the OCP MX element semantics define
it: the exponent field of a float64 gives its binade (clamped to the
format's lowest one), which fixes the spacing ``ulp`` of the grid around it,
and the rounding mode acts on the integer significand ``x / ulp`` in the one
kernel ``_round``, whose callers check their inputs.  A sorted grid of every
representable value and its code, cached on the format, serves ``grid()``,
the lookups of ``encode_array`` and ``decode_array`` and the constants.

Signed zero is collapsed to +0 everywhere: the sign of zero never affects
dequantization.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

TIES_TO_EVEN = "TiesToEven"
TOWARD_POSITIVE = "TowardPositive"
STOCHASTIC = "Stochastic"

ROUNDING_MODES = (TIES_TO_EVEN, TOWARD_POSITIVE, STOCHASTIC)

# Special-value policies.
SPECIALS_NONE = "none"            # every code is a finite value
SPECIALS_TOP_EXPONENT = "top_exponent_reserved"  # IEEE-style inf/NaN exponent
SPECIALS_TOP_CODE_NAN = "top_code_nan"           # single NaN code (OCP E4M3 / E8M0)


@dataclass(frozen=True)
class FloatFormat:
    """Parametric minifloat description.

    ``exponent_only`` formats (mantissa_bits == 0, e.g. E8M0) carry no zero
    and no subnormals: the exponent field maps directly to a power of two.
    """

    name: str
    exponent_bits: int
    mantissa_bits: int
    bias: int
    signed: bool = True
    specials: str = SPECIALS_NONE

    def __post_init__(self):
        if not (1 <= self.exponent_bits <= 8):
            raise ValueError(f"exponent_bits out of range: {self.exponent_bits}")
        if not (0 <= self.mantissa_bits <= 3):
            raise ValueError(f"mantissa_bits out of range: {self.mantissa_bits}")

    @property
    def exponent_only(self) -> bool:
        return self.mantissa_bits == 0

    @cached_property
    def _grid(self) -> _GridData:
        return _GridData(self)

    @property
    def max_finite(self) -> float:
        return self._grid.max_finite

    @property
    def min_positive(self) -> float:
        """Smallest positive representable value (subnormal if present)."""
        return self._grid.min_positive


class _GridData:
    """Cached enumeration of one format: sorted values, their canonical codes,
    the code-indexed value table, and the constants the arithmetic path uses."""

    def __init__(self, fmt: FloatFormat):
        codes, values = _enumerate(fmt)
        order = np.argsort(values, kind="stable")
        self.values = values[order]
        self.codes = codes[order]
        self.table = np.full(int(self.codes.max()) + 1, np.nan)
        self.table[self.codes] = self.values
        self.max_finite = float(self.values[-1])
        self.min_value = float(self.values[0])
        self.min_positive = float(self.values[self.values > 0][0])
        # Lowest binade: the subnormal one, or that of the smallest power
        # of two when there are no subnormals.
        self.min_binade = 2.0 ** (-fmt.bias if fmt.exponent_only else 1 - fmt.bias)


def _enumerate(fmt: FloatFormat) -> tuple[np.ndarray, np.ndarray]:
    eb, mb, bias = fmt.exponent_bits, fmt.mantissa_bits, fmt.bias
    e_top = (1 << eb) - 1
    if fmt.specials == SPECIALS_TOP_EXPONENT:
        e_top -= 1

    codes: list[int] = []
    values: list[float] = []

    if fmt.exponent_only:
        for e in range(e_top + 1):
            if fmt.specials == SPECIALS_TOP_CODE_NAN and e == (1 << eb) - 1:
                continue
            codes.append(e)
            values.append(2.0 ** (e - bias))
    else:
        for e in range(e_top + 1):
            for m in range(1 << mb):
                if (
                    fmt.specials == SPECIALS_TOP_CODE_NAN
                    and e == (1 << eb) - 1
                    and m == (1 << mb) - 1
                ):
                    continue
                if e == 0:
                    v = (m / (1 << mb)) * 2.0 ** (1 - bias)
                else:
                    v = (1 + m / (1 << mb)) * 2.0 ** (e - bias)
                codes.append((e << mb) | m)
                values.append(v)
        if fmt.signed:
            sign_bit = 1 << (eb + mb)
            neg = [(c | sign_bit, -v) for c, v in zip(codes, values) if v != 0.0]
            codes += [c for c, _ in neg]
            values += [v for _, v in neg]
    return np.asarray(codes, dtype=np.uint32), np.asarray(values, dtype=np.float64)


# Fields of a float64 seen as an int64.
_EXPONENT = 0x7FF << 52
_FRACTION = (1 << 52) - 1
_FRACTION_4_3 = int(np.float64(4.0 / 3.0).view(np.int64)) & _FRACTION


def _binade(a: np.ndarray, data: _GridData) -> np.ndarray:
    """``2**e`` as a new array, ``e`` the binade exponent of each float64
    ``|a|`` (its exponent field) clamped to the format's lowest binade."""
    b = np.bitwise_and(a.view(np.int64), _EXPONENT).view(np.float64)
    return np.maximum(b, data.min_binade, out=b)


def grid(fmt: FloatFormat) -> np.ndarray:
    """All finite representable values, ascending, zeros collapsed to +0."""
    return fmt._grid.values.copy()


def encode_array(values: np.ndarray, fmt: FloatFormat) -> np.ndarray:
    """Canonical codes of exactly representable values (``-0`` encodes as
    ``+0``); raises ``ValueError`` if any value is off the grid."""
    data = fmt._grid
    v = np.asarray(values, dtype=np.float64)
    # The first grid value not below each value; NaN and values past the
    # top sort after the grid and fail against its last value.
    i = np.searchsorted(data.values, v).clip(max=len(data.values) - 1)
    if not (data.values[i] == v).all():
        raise ValueError(f"array contains values not representable in {fmt.name}")
    return data.codes[i]


def decode_array(codes: np.ndarray, fmt: FloatFormat) -> np.ndarray:
    table = fmt._grid.table
    codes = np.asarray(codes)
    if codes.size and (codes.min() < 0 or codes.max() >= len(table)):
        raise ValueError(f"array contains invalid {fmt.name} codes")
    values = table[codes]
    if np.isnan(values).any():
        raise ValueError(f"array contains invalid {fmt.name} codes")
    return values


def _check_rounding(mode: str, rng: np.random.Generator | None) -> None:
    if mode not in ROUNDING_MODES:
        raise ValueError(f"unknown rounding mode {mode!r}")
    if mode == STOCHASTIC and rng is None:
        raise ValueError("Stochastic rounding requires an rng stream")


def round_array(
    x: np.ndarray,
    fmt: FloatFormat,
    mode: str = TIES_TO_EVEN,
    rng: np.random.Generator | None = None,
) -> np.ndarray:
    """Round every element of ``x`` onto the format grid with ``_round``
    and return the rounded array.

    On a signed format overflows saturate to ``sign(x) * max_finite``.  On
    an unsigned format a value below ``-max_finite`` goes to ``+max_finite``
    and any other negative to the lowest grid value; inputs below the
    smallest positive grid value of a zero-free format clamp to that value.
    NaN or infinite inputs (the training loop screens them through its loss
    scaler), an unknown mode and Stochastic rounding without an rng are
    errors.
    """
    x = np.asarray(x, dtype=np.float64)
    if not np.isfinite(x).all():
        raise ValueError("round_array requires finite inputs")
    _check_rounding(mode, rng)
    return _round(x.reshape(-1), fmt, mode, rng).reshape(x.shape)  # 0-d x too


def _round(x: np.ndarray, fmt: FloatFormat, mode: str, rng: np.random.Generator | None,
           out: np.ndarray | None = None) -> np.ndarray:
    """The rounding kernel: round float64 ``x``, finite or +inf, into ``out``
    (new when None; it may be ``x``), checking nothing and allocating one
    more array besides the draw, a floor and bool masks.

    After the clip, the exponent field of each value gives its binade
    ``2**e``, clamped to the format's lowest, and the grid spacing
    ``ulp = 2**(e - mb)``.  TiesToEven adds and subtracts ``M = 1.5 * 2**52
    * ulp``: ``x + M`` lies in the binade of ``M``, whose float64 spacing is
    ``ulp``, so the float64 addition rounds ``x`` to a multiple of ``ulp``,
    ties to even, and ``- M`` is exact (a 0 result is +0.0).  The other
    modes act on the exact integer significand ``t = x / ulp``:
    TowardPositive takes ``ceil(t)`` and Stochastic ``floor(t) + (u < t -
    floor(t))``, ``u`` drawn by ``rng.random(x.shape)``; ``t * ulp + 0.0``
    is the grid value (-0.0 becomes +0.0).  An exponent-only grid (no zero)
    rounds to nearest on the fraction field: past that of ``fl(4/3)``, the
    harmonic mean of 1 and 2, the value carries into the next power of two,
    and a tie goes to the power whose scale field is even.
    """
    data = fmt._grid
    max_fin = data.max_finite
    # Unsigned formats saturate negative overflows to max_finite too.
    neg_over = None if fmt.signed else x < -max_fin
    out = x.clip(data.min_value, max_fin, out=out)
    if neg_over is not None:
        np.copyto(out, max_fin, where=neg_over)
    bits = out.view(np.int64)
    if mode == TIES_TO_EVEN and fmt.exponent_only:
        tie = np.bitwise_and(bits, _FRACTION) == _FRACTION_4_3
        bits += _FRACTION - _FRACTION_4_3  # carries past fl(4/3) only
        bits &= _EXPONENT
        if tie.any():  # rounded down to 2**e
            up = bits[tie]
            # 2**(e + 1) has the field e + 1 + bias, of the parity of
            # (e + 1023) + bias; up when that is even.
            up += (~((up >> 52) + fmt.bias) & 1) << 52
            bits[tie] = up
        return out
    if mode == TIES_TO_EVEN:
        big = _binade(out, data)
        big *= 1.5 * 2.0 ** (52 - fmt.mantissa_bits)
        out += big
        out -= big
        return out
    ulp = _binade(out, data)
    ulp *= 2.0**-fmt.mantissa_bits
    t = np.divide(out, ulp, out=out)
    if mode == TOWARD_POSITIVE:
        np.ceil(t, out=t)
    else:  # STOCHASTIC
        f = np.floor(t)
        t -= f
        np.less(rng.random(x.shape), t, out=t)
        t += f
    t *= ulp
    t += 0.0
    return t


E2M1 = FloatFormat("E2M1", exponent_bits=2, mantissa_bits=1, bias=1, signed=True)
E8M0 = FloatFormat(
    "E8M0", exponent_bits=8, mantissa_bits=0, bias=127, signed=False,
    specials=SPECIALS_TOP_CODE_NAN,
)
E4M3 = FloatFormat(
    "E4M3", exponent_bits=4, mantissa_bits=3, bias=7, signed=True,
    specials=SPECIALS_TOP_CODE_NAN,
)
UE5M3 = FloatFormat("UE5M3", exponent_bits=5, mantissa_bits=3, bias=15, signed=False)
E8M3 = FloatFormat("E8M3", exponent_bits=8, mantissa_bits=3, bias=127, signed=False)
E5M2 = FloatFormat(
    "E5M2", exponent_bits=5, mantissa_bits=2, bias=15, signed=True,
    specials=SPECIALS_TOP_EXPONENT,
)

FORMATS: dict[str, FloatFormat] = {
    f.name: f for f in (E2M1, E8M0, E4M3, UE5M3, E8M3, E5M2)
}


def get_format(name: str) -> FloatFormat:
    try:
        return FORMATS[name]
    except KeyError:
        valid = ", ".join(sorted(FORMATS))
        raise KeyError(f"unknown format {name!r}; valid names: {valid}") from None
