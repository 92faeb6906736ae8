/* Absmax block quantization (BlockSpec.beta is None) in compiled loops.
 *
 * mx.quantize_blocks calls these through ctypes.  Each function computes,
 * value for value, what the NumPy path in mx.py and formats._round
 * computes, by the same float64 operations in the same order, so every
 * output has the same bytes.  That holds only for IEEE double arithmetic
 * as written: build with -ffp-contract=off (no fused multiply-add) and
 * never with -ffast-math.
 *
 * One buffer `out` of 2 * nb * l + 3 * nb + 1 doubles takes the record:
 * blocks (nb, l), elements (nb, l), z, s_ideal and scales (nb each), and
 * the tensor factor g.
 */

#include <math.h>
#include <stdint.h>
#include <string.h>

enum { TIES_TO_EVEN, TOWARD_POSITIVE, STOCHASTIC };  /* formats.ROUNDING_MODES */

/* What formats._round reads of a format, and the zero fill of a scale. */
typedef struct {
    double max_finite;
    double min_value;   /* lowest grid value; rounded values are never below it */
    double min_binade;  /* 2**e of the lowest binade */
    double ties_big;    /* 1.5 * 2**(52 - mantissa_bits) */
    double ulp;         /* 2**-mantissa_bits */
    double zero_fill;   /* what a scale that rounds to <= 0 becomes */
    int64_t bias;
    int64_t exponent_only;
} format_t;

#define SIGN 0x8000000000000000ULL
#define EXPONENT 0x7FF0000000000000ULL
#define FRACTION 0x000FFFFFFFFFFFFFULL
#define FRACTION_4_3 0x0005555555555555ULL /* the fraction field of fl(4/3) */

static inline uint64_t bits_of(double x) { uint64_t b; memcpy(&b, &x, 8); return b; }
static inline double double_of(uint64_t b) { double x; memcpy(&x, &b, 8); return x; }

/* formats._round of one value, finite or +inf, at or above -max_finite (no
 * caller passes the unsigned formats' negative overflows); u is the
 * uniform of a stochastic rounding. */
static inline double round_one(double x, const format_t *f, int64_t mode, double u)
{
    double m = x > f->min_value ? x : f->min_value;  /* np.clip */
    double out = m < f->max_finite ? m : f->max_finite;
    if (mode == TIES_TO_EVEN && f->exponent_only) {
        uint64_t bits = bits_of(out);
        int tie = (bits & FRACTION) == FRACTION_4_3;
        bits = (bits + (FRACTION - FRACTION_4_3)) & EXPONENT;
        if (tie)
            bits += (uint64_t)(~((int64_t)(bits >> 52) + f->bias) & 1) << 52;
        return double_of(bits);
    }
    double b = double_of(bits_of(out) & EXPONENT);
    b = b > f->min_binade ? b : f->min_binade;
    if (mode == TIES_TO_EVEN) {
        double big = b * f->ties_big;
        out += big;
        out -= big;
        return out;
    }
    double ulp = b * f->ulp;
    double t = out / ulp;
    if (mode == TOWARD_POSITIVE) {
        t = ceil(t);
    } else {
        /* floor(t) + (u < t - floor(t)), the comparison read from the sign
         * of u - (t - floor(t)): a branch on it mispredicts half the time */
        double fl = floor(t);
        t = (double)(bits_of(u - (t - fl)) >> 63) + fl;
    }
    return t * ulp + 0.0;
}

/* q[i] = round_one(blk[i] * s, ...) for i < l, one loop per mode so that
 * each one vectorizes; ue holds the uniforms of a stochastic rounding. */
static void round_block(const double *blk, double s, double *q, int64_t l,
                        const format_t *f, int64_t mode, const double *ue)
{
    if (mode == STOCHASTIC) {
        for (int64_t i = 0; i < l; i++)
            q[i] = round_one(blk[i] * s, f, STOCHASTIC, ue[i]);
    } else if (mode == TOWARD_POSITIVE) {
        for (int64_t i = 0; i < l; i++)
            q[i] = round_one(blk[i] * s, f, TOWARD_POSITIVE, 0.0);
    } else {
        for (int64_t i = 0; i < l; i++)
            q[i] = round_one(blk[i] * s, f, TIES_TO_EVEN, 0.0);
    }
}

/* Copy the rows of x, nrows x n at element strides rs and cs, into
 * zero-padded blocks of l; take each block's absolute maximum z, the
 * factor g (with tensor_scaling divided out of blocks and z) and
 * s_ideal = elem_max / z.  Returns the number of finite s_ideal, or -1
 * when x holds NaN or an infinity.
 *
 * The maximum is taken over the bit patterns of |x|, which order as the
 * values do; any pattern at or above that of +inf is an infinity or NaN. */
int64_t mx_absmax_stats(const double *x, int64_t nrows, int64_t n, int64_t rs, int64_t cs,
                        int64_t l, int64_t tensor_scaling, double elem_max, double *out)
{
    int64_t per_row = n > 0 ? (n + l - 1) / l : 1;
    int64_t nb = nrows * per_row;
    double *blocks = out, *z = out + 2 * nb * l, *s_ideal = z + nb, *g = s_ideal + 2 * nb;
    uint64_t top = 0;
    for (int64_t r = 0; r < nrows; r++) {
        const double *row = x + r * rs;
        for (int64_t k = 0; k < per_row; k++) {
            double *blk = blocks + (r * per_row + k) * l;
            int64_t len = n - k * l < l ? n - k * l : l;
            const double *src = row + k * l * cs;
            if (cs == 1) {
                for (int64_t i = 0; i < len; i++)
                    blk[i] = src[i];
            } else {
                for (int64_t i = 0; i < len; i++)
                    blk[i] = src[i * cs];
            }
            for (int64_t i = len; i < l; i++)
                blk[i] = 0.0;
            uint64_t m = 0;
            for (int64_t i = 0; i < len; i++) {
                uint64_t a = bits_of(blk[i]) & ~SIGN;
                m = a > m ? a : m;
            }
            z[r * per_row + k] = double_of(m);
            top = m > top ? m : top;
        }
    }
    if (top >= EXPONENT)
        return -1;
    double factor = top > 0 ? double_of(top) : 1.0;
    *g = factor;
    if (tensor_scaling) {
        for (int64_t i = 0; i < nb * l; i++)
            blocks[i] /= factor;
        for (int64_t j = 0; j < nb; j++)
            z[j] /= factor;
    }
    int64_t finite = 0;
    for (int64_t j = 0; j < nb; j++) {
        s_ideal[j] = elem_max / z[j];
        finite += s_ideal[j] < INFINITY;
    }
    return finite;
}

/* Round s_ideal / rescale into the scale format sf and blocks * s_eff into
 * the element format ef.  A stochastic scale rounding reads one uniform of
 * us per finite s_ideal, in block order; a stochastic element rounding
 * reads ue[i] for element i, padding too. */
void mx_absmax_round(int64_t nb, int64_t l, double rescale, const format_t *sf,
                     int64_t scale_mode, const format_t *ef, int64_t elem_mode,
                     const double *us, const double *ue, double *out)
{
    const double *blocks = out, *s_ideal = out + 2 * nb * l + nb;
    double *elements = out + nb * l, *scales = out + 2 * nb * l + 2 * nb;
    for (int64_t j = 0; j < nb; j++) {
        double s = sf->max_finite;  /* a zero block's +inf saturates */
        if (s_ideal[j] < INFINITY) {
            s = round_one(s_ideal[j] / rescale, sf, scale_mode,
                          scale_mode == STOCHASTIC ? *us++ : 0.0);
            if (!sf->exponent_only && s <= 0)
                s = sf->zero_fill;
        }
        scales[j] = s;
        round_block(blocks + j * l, rescale * s, elements + j * l, l, ef, elem_mode,
                    elem_mode == STOCHASTIC ? ue + j * l : NULL);
    }
}

/* Both steps in one call, for roundings that draw nothing; -1 as above. */
int64_t mx_absmax_quantize(const double *x, int64_t nrows, int64_t n, int64_t rs,
                           int64_t cs, int64_t l, int64_t tensor_scaling, double rescale,
                           const format_t *sf, int64_t scale_mode, const format_t *ef,
                           int64_t elem_mode, double *out)
{
    int64_t finite = mx_absmax_stats(x, nrows, n, rs, cs, l, tensor_scaling,
                                     ef->max_finite, out);
    if (finite >= 0) {
        int64_t nb = nrows * (n > 0 ? (n + l - 1) / l : 1);
        mx_absmax_round(nb, l, rescale, sf, scale_mode, ef, elem_mode, NULL, NULL, out);
    }
    return finite;
}
