/* Block quantization (mx.quantize_blocks) and the softmax derivative of the
 * block statistic (qgrad.dZ) in compiled loops.
 *
 * Python calls these through ctypes.  Each function computes, value for
 * value, what the NumPy path in mx.py, qgrad.py and formats._round
 * computes, by the same float64 operations in the same order, so every
 * output has the same bytes.  That holds only for IEEE double arithmetic
 * as written: build with -ffp-contract=off (no fused multiply-add) and
 * never with -ffast-math or any of its value-changing parts.
 *
 * The LogSumExp statistic (BlockSpec.beta set) leaves its two
 * transcendental steps to NumPy, between kernel calls: mx._exp_in_place on
 * the arguments that mx_lse_shift writes, and np.log on the sums of
 * mx_lse_sum, because glibc's exp and log need not give the bits of
 * NumPy's SIMD ones.
 *
 * One buffer `out` of 2 * nb * l + 3 * nb + 1 doubles takes a record:
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
 * each one vectorizes (those with floor and ceil only under
 * -fno-trapping-math); ue holds the uniforms of a stochastic rounding. */
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
 * when x holds NaN or an infinity.  A LogSumExp quantization takes the
 * copy and the check from here and replaces z and s_ideal.
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
 * the element format ef, for either statistic.  A stochastic scale rounding
 * reads one uniform of us per finite s_ideal, in block order; a stochastic
 * element rounding reads ue[i] for element i, padding too. */
void mx_round(int64_t nb, int64_t l, double rescale, const format_t *sf,
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
        mx_round(nb, l, rescale, sf, scale_mode, ef, elem_mode, NULL, NULL, out);
    }
    return finite;
}

/* The LogSumExp statistic and the softmax derivative.  A block's exp
 * arguments are written row-major; exp is elementwise, so no transpose is
 * needed.  A position that mask marks 0 (padding) gets the argument -inf,
 * whose exp is the +0.0 term that the NumPy path's mask leaves in the sum. */

/* The sum of e[0..n), added in the order of NumPy's pairwise sum of one
 * contiguous row (mx._pairwise_sum): fewer than 8 terms in a row, up to
 * 128 in 8 accumulators, more split in halves at a multiple of 8. */
static double pairwise(const double *e, int64_t n)
{
    if (n < 8) {
        double total = 0.0;
        for (int64_t i = 0; i < n; i++)
            total += e[i];
        return total;
    }
    if (n > 128) {
        int64_t half = n / 2 - n / 2 % 8;
        return pairwise(e, half) + pairwise(e + half, n - half);
    }
    double r[8];
    int64_t stop = n - n % 8, i;
    for (int j = 0; j < 8; j++)
        r[j] = e[j];
    for (i = 8; i < stop; i += 8)
        for (int j = 0; j < 8; j++)
            r[j] += e[i + j];
    double total = ((r[0] + r[1]) + (r[2] + r[3])) + ((r[4] + r[5]) + (r[6] + r[7]));
    for (i = stop; i < n; i++)
        total += e[i];
    return total;
}

/* Take m[j], the maximum of |blocks * g| over the live positions of block
 * j, and write the exp arguments (|x * g| - m[j]) * beta of the blocks
 * into the rows of e.  With rows NULL every block gets a row; otherwise
 * only the blocks whose statistic can be the largest, in order, with
 * their indices in rows: a LogSumExp exceeds its block's maximum by at
 * most log(l) / beta, so a block with m[j] + bound < max m cannot be the
 * largest when bound is at least that.  Returns the number of rows
 * written, or -1 when a live value is NaN or infinite or a block has no
 * live position. */
int64_t mx_lse_shift(const double *blocks, const uint8_t *mask, int64_t nb, int64_t l,
                     double g, double beta, double bound, int64_t *rows, double *m,
                     double *e)
{
    uint64_t top = 0;
    for (int64_t j = 0; j < nb; j++) {
        const double *b = blocks + j * l;
        uint64_t mj = 0;
        int64_t live = l;
        if (mask) {
            const uint8_t *on = mask + j * l;
            live = 0;
            for (int64_t i = 0; i < l; i++) {
                uint64_t a = on[i] ? bits_of(b[i] * g) & ~SIGN : 0;
                mj = a > mj ? a : mj;
                live += on[i] != 0;
            }
        } else {
            for (int64_t i = 0; i < l; i++) {
                uint64_t a = bits_of(b[i] * g) & ~SIGN;
                mj = a > mj ? a : mj;
            }
        }
        if (mj >= EXPONENT || live == 0)
            return -1;
        m[j] = double_of(mj);
        top = mj > top ? mj : top;
    }
    int64_t k = 0;
    for (int64_t j = 0; j < nb; j++) {
        if (rows) {
            if (!(m[j] + bound >= double_of(top)))
                continue;
            rows[k] = j;
        }
        const double *b = blocks + j * l;
        double *row = e + k++ * l;
        for (int64_t i = 0; i < l; i++)
            row[i] = (fabs(b[i] * g) - m[j]) * beta;
        if (mask)
            for (int64_t i = 0; i < l; i++)
                if (!mask[j * l + i])
                    row[i] = -INFINITY;
    }
    return k;
}

/* total[i] = the pairwise sum of row i of the k x l exp terms e. */
void mx_lse_sum(const double *e, int64_t k, int64_t l, double *total)
{
    for (int64_t i = 0; i < k; i++)
        total[i] = pairwise(e + i * l, l);
}

/* qgrad.dZ's softmax derivative, in place in the exp terms e of every
 * block: sign(x) * (e / the row's pairwise sum), with np.sign's +0.0 for
 * either zero and NaN for NaN. */
void mx_softmax_grad(const double *blocks, int64_t nb, int64_t l, double *e)
{
    for (int64_t j = 0; j < nb; j++) {
        const double *b = blocks + j * l;
        double *row = e + j * l;
        double total = pairwise(row, l);
        for (int64_t i = 0; i < l; i++) {
            double sign = b[i] > 0 ? 1.0 : b[i] < 0 ? -1.0 : b[i] == 0 ? 0.0 : b[i];
            row[i] = sign * (row[i] / total);
        }
    }
}
