/* Kernels of kvwave: the tridiagonal L D L^T factor, a whole block of
   summed-form steps, the energies and identity residuals of a block of
   layers, and the CSV text of a table.

   Built with -ffp-contract=off, so every fused multiply-add is an explicit
   fma() and every other operation rounds on its own.  fma() is correctly
   rounded in hardware and in libm alike, so the results are the same bits
   on every machine.  They are the bits of LAPACK dpttrf/dptts2 and of the
   column-order axpy loop of BLAS gbmv where it runs on FMA hardware
   (y[j] += (alpha x[i]) a[j, i] as one fused multiply-add), and for the
   energies the bits of numpy's einsum and pairwise add.reduce.

   Band arrays are the 3 x n column-major BLAS band storage of a tridiagonal
   matrix: band[3 j + k] holds a[j + k - 1, j]. */

#include <math.h>
#include <stddef.h>
#include <stdint.h>
#include <string.h>

/* LAPACK dpttrf without its 4-way unroll: d and e become D and the
   subdiagonal of L.  Returns LAPACK's info: k > 0 if pivot k is not
   positive, else 0. */
ptrdiff_t kv_factor(ptrdiff_t n, double *d, double *e)
{
    for (ptrdiff_t i = 0; i < n - 1; i++) {
        if (d[i] <= 0.0)
            return i + 1;
        double ei = e[i];
        e[i] = ei / d[i];
        d[i + 1] = d[i + 1] - e[i] * ei;
    }
    return d[n - 1] <= 0.0 ? n : 0;
}

/* Row j of a x + b y, as gbmv with beta = 0 and then gbmv with beta = 1
   round it: the row takes its columns in order, one fma() each, starting
   from +0.  Always inlined, so that in the step's interior rows the bounds
   tests fold away. */
static inline __attribute__((always_inline)) double
band_row(ptrdiff_t n, ptrdiff_t j, const double *a, const double *x, const double *b,
         const double *y)
{
    double s = 0.0;
    if (j > 0)
        s = fma(x[j - 1], a[3 * j - 1], s);
    s = fma(x[j], a[3 * j + 1], s);
    if (j < n - 1)
        s = fma(x[j + 1], a[3 * j + 3], s);
    if (j > 0)
        s = fma(y[j - 1], b[3 * j - 1], s);
    s = fma(y[j], b[3 * j + 1], s);
    if (j < n - 1)
        s = fma(y[j + 1], b[3 * j + 3], s);
    return s;
}

/* Rows start .. stop-1 of a row-major block of n-vectors: row i becomes
   row i-1 plus d, where L d = stiff row[i-1] + rhs_prev d_prev is solved
   with L's factors (d, e).  Each step fuses band_row's rows with the
   forward sweep of LAPACK dptts2, then dptts2's backward sweep with the add
   into the row: dptts2's operations in its order, one pass each.  The
   increments swap every step, so after an odd number of steps the last
   one is in d_prev.  The first and last rows are peeled off, so n >= 2. */
void kv_step_block(ptrdiff_t n, ptrdiff_t start, ptrdiff_t stop, double *block,
                   const double *stiff, const double *rhs_prev, const double *d,
                   const double *e, double *d_prev, double *d_next)
{
    for (ptrdiff_t i = start; i < stop; i++) {
        const double *u = block + (i - 1) * n;
        double *out = block + i * n;
        double s = band_row(n, 0, stiff, u, rhs_prev, d_prev);
        d_next[0] = s;
        for (ptrdiff_t j = 1; j < n - 1; j++) {
            s = band_row(n, j, stiff, u, rhs_prev, d_prev) - s * e[j - 1];
            d_next[j] = s;
        }
        s = band_row(n, n - 1, stiff, u, rhs_prev, d_prev) - s * e[n - 2];
        s = s / d[n - 1];
        d_next[n - 1] = s;
        out[n - 1] = u[n - 1] + s;
        for (ptrdiff_t j = n - 2; j >= 0; j--) {
            s = d_next[j] / d[j] - s * e[j];
            d_next[j] = s;
            out[j] = u[j] + s;
        }
        double *swap = d_prev;
        d_prev = d_next;
        d_next = swap;
    }
}

/* numpy's einsum reduces a row in buffers of this many terms: each buffer is
   summed in order from +0 and then added to the row's total. */
#define SUM_BUFFER 8192
/* Rows whose sums run side by side, so that their chains of dependent adds
   overlap (the unroll pragma below says 4, as it takes no macro), and
   cells whose terms are computed in one vectorizable pass. */
#define ROWS 4
#define LANES 16

/* The einsum terms of cells j .. j+len-1 of ROWS rows: (rate rate) w[j] with
   rate = (k1[r][j] - k0[r][j]) / dt, and (J(p1[r])[j] J(p0[r])[j]) ell[j]
   with the interior jumps J(u)[j] = u[j] - u[j-1], j >= 1. */
static inline __attribute__((always_inline)) void
energy_terms(ptrdiff_t j, ptrdiff_t len, double dt, const double *w, const double *ell,
             const double *const *k0, const double *const *k1, const double *const *p0,
             const double *const *p1, double kt[ROWS][LANES], double pt[ROWS][LANES])
{
    for (int r = 0; r < ROWS; r++) {
        const double *a = k0[r] + j, *b = k1[r] + j, *c = p0[r] + j, *d = p1[r] + j;
        for (ptrdiff_t i = 0; i < len; i++) {
            double rate = (b[i] - a[i]) / dt;
            kt[r][i] = (rate * rate) * w[j + i];
            pt[r][i] = ((d[i] - d[i - 1]) * (c[i] - c[i - 1])) * ell[j + i];
        }
    }
}

/* The einsum sums of ROWS rows.  Row r's kinetic sum adds (rate rate) w[j]
   over the n cells, rate = (k1[r][j] - k0[r][j]) / dt; its potential sum
   adds (J(p1[r])[f] J(p0[r])[f]) ell[f] over the n + 1 faces, where the face
   jumps take zero ghosts: J(u)[0] = u[0], J(u)[f] = u[f] - u[f-1] and
   J(u)[n] = 0.0 - u[n-1].  The terms are computed LANES cells at a time,
   then added in order. */
static void energy_sums(ptrdiff_t n, double dt, const double *w, const double *ell,
                        const double *const *k0, const double *const *k1,
                        const double *const *p0, const double *const *p1,
                        double *kin, double *pot)
{
    double tk[ROWS], tp[ROWS], ak[ROWS], ap[ROWS], kt[ROWS][LANES], pt[ROWS][LANES];
    for (int r = 0; r < ROWS; r++) {
        double rate = (k1[r][0] - k0[r][0]) / dt;
        tk[r] = tp[r] = 0.0;
        ak[r] = 0.0 + (rate * rate) * w[0];
        ap[r] = 0.0 + (p1[r][0] * p0[r][0]) * ell[0];
    }
    for (ptrdiff_t c = 0; c < n; c += SUM_BUFFER) {
        ptrdiff_t hi = n - c > SUM_BUFFER ? c + SUM_BUFFER : n;
        for (ptrdiff_t j = c > 0 ? c : 1; j < hi; j += LANES) {
            ptrdiff_t len = hi - j < LANES ? hi - j : LANES;
            if (len == LANES)  /* a constant count, so that the loop vectorizes */
                energy_terms(j, LANES, dt, w, ell, k0, k1, p0, p1, kt, pt);
            else
                energy_terms(j, len, dt, w, ell, k0, k1, p0, p1, kt, pt);
            for (ptrdiff_t i = 0; i < len; i++) {
#pragma GCC unroll 4
                for (int r = 0; r < ROWS; r++) {
                    ak[r] += kt[r][i];
                    ap[r] += pt[r][i];
                }
            }
        }
        if (hi % SUM_BUFFER == 0) {
            for (int r = 0; r < ROWS; r++) {
                tk[r] += ak[r], tp[r] += ap[r];
                ak[r] = ap[r] = 0.0;
            }
        }
    }
    for (int r = 0; r < ROWS; r++) {
        ap[r] += ((0.0 - p1[r][n - 1]) * (0.0 - p0[r][n - 1])) * ell[n];
        kin[r] = tk[r] + ak[r];
        pot[r] = tp[r] + ap[r];
    }
}

/* The square of J(u2)[f] - J(u0)[f] at an interior face f. */
static inline double jump_change_sq(const double *u0, const double *u2, ptrdiff_t f)
{
    double d = (u2[f] - u2[f - 1]) - (u0[f] - u0[f - 1]);
    return d * d;
}

/* numpy's pairwise add.reduce of jump_change_sq over faces f .. f+count-1:
   in order from -0.0 below 8 terms, 8 interleaved sums up to 128, and the
   two halves of a longer run, split at a multiple of 8, added. */
static double pairwise_sum(const double *u0, const double *u2, ptrdiff_t f, ptrdiff_t count)
{
    if (count < 8) {
        double s = -0.0;
        for (ptrdiff_t i = 0; i < count; i++)
            s += jump_change_sq(u0, u2, f + i);
        return s;
    }
    if (count <= 128) {
        double r[8];
        for (int k = 0; k < 8; k++)
            r[k] = jump_change_sq(u0, u2, f + k);
        ptrdiff_t i;
        for (i = 8; i < count - count % 8; i += 8)
            for (int k = 0; k < 8; k++)
                r[k] += jump_change_sq(u0, u2, f + i + k);
        double s = ((r[0] + r[1]) + (r[2] + r[3])) + ((r[4] + r[5]) + (r[6] + r[7]));
        for (; i < count; i++)
            s += jump_change_sq(u0, u2, f + i);
        return s;
    }
    ptrdiff_t half = count / 2;
    half -= half % 8;
    return pairwise_sum(u0, u2, f, half) + pairwise_sum(u0, u2, f + half, count - half);
}

/* Whether the layer pair t of a block of m layers is evaluated: every pair
   without a selection, else the pairs a selected step reads.  sel[j]
   selects the step at layer j+1, which reads the pairs j and j+1. */
static inline int pair_wanted(const unsigned char *sel, ptrdiff_t m, ptrdiff_t t)
{
    return !sel || (t > 0 && sel[t - 1]) || (t < m - 2 && sel[t]);
}

/* Energies of m consecutive layers of n cells each, written to out, 5 x m:
   out[q][t] holds the kinetic, potential and total energy (q = 0, 1, 2) of
   the layer pair t, t+1 for t < m - 1, and the dissipation and identity
   residual (q = 3, 4) of the step at layer t+1 for t < m - 2; the other
   entries are scratch.  sel, NULL or m - 2 flags, selects those steps: only
   the selected steps' dissipation and residual and the pairs they read are
   evaluated, and every other entry is NaN.
   The operations and their order
   are those of diagnostics' numpy formulation with einsum:

     e_k = 0.5 sum_j ((u_t+1[j] - u_t[j]) / dt)^2 w[j],
     e_p = 0.5 sum_f J(u_t+1)[f] J(u_t)[f] ell[f]               (explicit)
         = 0.25 (sq_t+1 + sq_t),  sq_t = sum_f J(u_t)[f]^2 ell[f]  (implicit),
     total = e_k + e_p,
     dissipation = 0.0 - coef sum_f (J(u_t+2)[f] - J(u_t)[f])^2
       over the interior faces face_lo .. face_hi-1, 1 <= face_lo <= face_hi <= n,
     residual = (total_t+1 - total_t) - dissipation.

   The einsum sums are energy_sums', the face sum is pairwise_sum's. */
void kv_energies(ptrdiff_t m, ptrdiff_t n, const double *layers, const unsigned char *sel,
                 const double *w, const double *ell, double dt, int implicit,
                 ptrdiff_t face_lo, ptrdiff_t face_hi, double coef, double *out)
{
    double *e_k = out, *e_p = out + m, *e_t = out + 2 * m;
    double *diss = out + 3 * m, *res = out + 4 * m;
    const double *k0[ROWS], *k1[ROWS], *p0[ROWS], *p1[ROWS];
    double *kd[ROWS], *pd[ROWS], kin[ROWS], pot[ROWS], spare;
    int r = 0;
    /* One row per wanted pair, and for the implicit scheme one per layer of
       a wanted pair, for its sq: a row without a wanted pair sends its
       kinetic sum to spare.  A row's sums do not depend on the rows it is
       grouped with. */
    for (ptrdiff_t t = 0; t < m - !implicit; t++) {
        int pair = t < m - 1 && pair_wanted(sel, m, t);
        if (pair || (implicit && t > 0 && pair_wanted(sel, m, t - 1))) {
            const double *u = layers + t * n;
            k0[r] = u, k1[r] = pair ? u + n : u, kd[r] = pair ? e_k + t : &spare;
            p0[r] = u, p1[r] = implicit ? u : u + n, pd[r++] = e_p + t;
        }
        if (r == ROWS || (r > 0 && t == m - 1 - !implicit)) {
            /* a short last group repeats its first row into spare */
            for (int q = r; q < ROWS; q++)
                k0[q] = k0[0], k1[q] = k1[0], p0[q] = p0[0], p1[q] = p1[0],
                kd[q] = pd[q] = &spare;
            energy_sums(n, dt, w, ell, k0, k1, p0, p1, kin, pot);
            for (int q = 0; q < ROWS; q++)
                *kd[q] = kin[q], *pd[q] = pot[q];
            r = 0;
        }
    }
    /* In order of t, as the implicit e_p[t] reads sq_t+1.  The entries of a
       pair that is not wanted are formed from scratch and then replaced. */
    for (ptrdiff_t t = 0; t < m - 1; t++) {
        e_k[t] = 0.5 * e_k[t];
        e_p[t] = implicit ? 0.25 * (e_p[t + 1] + e_p[t]) : 0.5 * e_p[t];
        e_t[t] = e_k[t] + e_p[t];
        if (!pair_wanted(sel, m, t))
            e_k[t] = e_p[t] = e_t[t] = NAN;
    }
    for (ptrdiff_t t = 0; t < m - 2; t++) {
        double s = sel && !sel[t] ? NAN : 0.0 + pairwise_sum(layers + t * n, layers + (t + 2) * n,
                                                             face_lo, face_hi - face_lo);
        diss[t] = 0.0 - coef * s;
        res[t] = (e_t[t + 1] - e_t[t]) - diss[t];
    }
}

/* The CSV formatter writes each double as Python's '%.17g' % x does, with
   integer arithmetic only: no printf, no strtod and no locale, so the text
   is the same bytes on every machine and under every LC_NUMERIC.  The 17
   significant digits are x 10^(16-X) rounded to nearest, ties to even,
   where X is the decimal exponent.  With x = m 2^e2, the rounding reads
   the floor of m 2^e2 10^(17-X), computed exactly in 64-bit limbs, and
   whether a fraction was dropped on the way. */

static const uint64_t POW10[20] = {
    1ull, 10ull, 100ull, 1000ull, 10000ull, 100000ull, 1000000ull, 10000000ull,
    100000000ull, 1000000000ull, 10000000000ull, 100000000000ull, 1000000000000ull,
    10000000000000ull, 100000000000000ull, 1000000000000000ull, 10000000000000000ull,
    100000000000000000ull, 1000000000000000000ull, 10000000000000000000ull,
};

/* Little-endian limbs, n of them in use.  20 limbs hold every value
   scaled_floor forms: m 10^341 < 2^1185 and m 2^971 < 2^1024. */
#define BIG_LIMBS 20
typedef struct {
    uint64_t w[BIG_LIMBS];
    int n;
} big;

static void big_mul(big *b, uint64_t f)
{
    unsigned __int128 carry = 0;
    for (int i = 0; i < b->n; i++) {
        carry += (unsigned __int128)b->w[i] * f;
        b->w[i] = (uint64_t)carry;
        carry >>= 64;
    }
    if (carry)
        b->w[b->n++] = (uint64_t)carry;
}

static void big_trim(big *b)
{
    while (b->n > 1 && !b->w[b->n - 1])
        b->n--;
}

/* b becomes floor(b / f); returns whether the remainder is nonzero. */
static int big_div(big *b, uint64_t f)
{
    unsigned __int128 rem = 0;
    for (int i = b->n - 1; i >= 0; i--) {
        rem = rem << 64 | b->w[i];
        uint64_t q = (uint64_t)(rem / f);
        rem -= (unsigned __int128)q * f;
        b->w[i] = q;
    }
    big_trim(b);
    return rem != 0;
}

/* b becomes b 2^s. */
static void big_shl(big *b, int s)
{
    int q = s / 64, r = s % 64, n = b->n;
    uint64_t top = r ? b->w[n - 1] >> (64 - r) : 0;
    for (int i = n - 1; i >= 0; i--)
        b->w[i + q] = r ? b->w[i] << r | (i ? b->w[i - 1] >> (64 - r) : 0) : b->w[i];
    for (int i = 0; i < q; i++)
        b->w[i] = 0;
    b->n = n + q;
    if (top)
        b->w[b->n++] = top;
}

/* b becomes floor(b / 2^s), for s below b's bit length; returns whether a
   nonzero bit was shifted out. */
static int big_shr(big *b, int s)
{
    int q = s / 64, r = s % 64, lost = 0;
    for (int i = 0; i < q; i++)
        lost |= b->w[i] != 0;
    if (r)
        lost |= (b->w[q] << (64 - r)) != 0;
    for (int i = q; i < b->n; i++)
        b->w[i - q] = r ? b->w[i] >> r | (i + 1 < b->n ? b->w[i + 1] << (64 - r) : 0) : b->w[i];
    b->n -= q;
    big_trim(b);
    return lost;
}

/* floor(m 2^e2 10^p), which must be below 2^64, and in *inexact whether
   it differs from m 2^e2 10^p.  Values from about 1e-2 to 2^53 take one
   128-bit product; the others multiply before the shift right and shift
   left before the divisions, so nothing is lost but the fraction. */
static uint64_t scaled_floor(uint64_t m, int e2, int p, int *inexact)
{
    if (p >= 0 && p <= 19 && e2 < 0 && e2 > -128) {  /* m 10^p < 2^117 */
        unsigned __int128 v = (unsigned __int128)m * POW10[p];
        *inexact = (v & (((unsigned __int128)1 << -e2) - 1)) != 0;
        return (uint64_t)(v >> -e2);
    }
    big b;
    b.w[0] = m, b.n = 1;
    int lost = 0;
    for (; p > 0; p -= p < 19 ? p : 19)
        big_mul(&b, POW10[p < 19 ? p : 19]);
    if (e2 > 0)
        big_shl(&b, e2);
    for (; p < 0; p += -p < 19 ? -p : 19)
        lost |= big_div(&b, POW10[-p < 19 ? -p : 19]);
    if (e2 < 0)
        lost |= big_shr(&b, -e2);
    *inexact = lost;
    return b.w[0];
}

/* floor(k log10 2) for |k| <= 2620. */
static int floor_log10_pow2(int k)
{
    int64_t t = (int64_t)k * 315653;
    return (int)(t >= 0 ? t >> 20 : -((-t + (1 << 20) - 1) >> 20));
}

static char *put(char *o, const char *s, int len)
{
    for (int i = 0; i < len; i++)
        *o++ = s[i];
    return o;
}

/* x as '%.17g' % x writes it: 17 significant digits with trailing zeros
   dropped, positional when -4 <= X < 17 and else with an exponent of at
   least two digits; nan whatever the sign and payload, inf, -inf, -0.
   At most 24 bytes, as in -1.2345678901234567e-308. */
static char *format_double(char *o, double x)
{
    uint64_t bits;
    memcpy(&bits, &x, sizeof bits);
    int neg = (int)(bits >> 63), biased = (int)(bits >> 52 & 0x7ff);
    uint64_t m = bits & ((1ull << 52) - 1);
    if (biased == 0x7ff && m)
        return put(o, "nan", 3);
    if (neg)
        *o++ = '-';
    if (biased == 0x7ff)
        return put(o, "inf", 3);
    if (!biased && !m) {
        *o++ = '0';
        return o;
    }
    int e2 = biased ? biased - 1075 : -1074;
    if (biased)
        m |= 1ull << 52;
    /* floor(log10 2^k) for k = floor(log2 x): X, or X - 1 */
    int X = floor_log10_pow2(e2 + 63 - __builtin_clzll(m)), inexact;
    uint64_t digits = scaled_floor(m, e2, 17 - X, &inexact);  /* 18 digits, or 19 */
    if (digits >= POW10[18]) {
        inexact |= digits % 10 != 0;
        digits /= 10;
        X++;
    }
    unsigned last = (unsigned)(digits % 10);
    digits /= 10;
    if (last > 5 || (last == 5 && (inexact || digits % 2)))
        digits++;
    if (digits == POW10[17]) {
        digits = POW10[16];
        X++;
    }
    /* two independent 32-bit chains of digits */
    char d[17];
    uint32_t hi = (uint32_t)(digits / 100000000), lo = (uint32_t)(digits % 100000000);
    for (int i = 16; i >= 9; i--, hi /= 10, lo /= 10) {
        d[i] = (char)('0' + lo % 10);
        d[i - 8] = (char)('0' + hi % 10);
    }
    d[0] = (char)('0' + hi);
    int len = 17;
    while (d[len - 1] == '0')
        len--;
    if (X >= 17 || X < -4) {
        *o++ = d[0];
        if (len > 1) {
            *o++ = '.';
            o = put(o, d + 1, len - 1);
        }
        *o++ = 'e';
        *o++ = X < 0 ? '-' : '+';
        int a = X < 0 ? -X : X;
        if (a >= 100)
            *o++ = (char)('0' + a / 100);
        *o++ = (char)('0' + a / 10 % 10);
        *o++ = (char)('0' + a % 10);
    } else if (X < 0) {
        o = put(o, "0.0000", 1 - X);
        o = put(o, d, len);
    } else {
        o = put(o, d, X + 1);
        if (len > X + 1) {
            *o++ = '.';
            o = put(o, d + X + 1, len - X - 1);
        }
    }
    return o;
}

static char *format_int(char *o, int64_t v)
{
    uint64_t u = v < 0 ? 0 - (uint64_t)v : (uint64_t)v;
    char t[20];
    int i = 20;
    do {
        t[--i] = (char)('0' + u % 10);
        u /= 10;
    } while (u);
    if (v < 0)
        *o++ = '-';
    return put(o, t + i, 20 - i);
}

/* The CSV lines of a row-major rows x cols table of doubles, each as
   format_double writes it, led by first[i] in row i when first is not
   NULL.  Writes at most 25 bytes per field, separator included, and
   returns the number written. */
ptrdiff_t kv_format_csv(ptrdiff_t rows, ptrdiff_t cols, const double *table,
                        const int64_t *first, char *out)
{
    char *o = out;
    for (ptrdiff_t i = 0; i < rows; i++) {
        const double *row = table + i * cols;
        if (first)
            o = format_int(o, first[i]);
        for (ptrdiff_t j = 0; j < cols; j++) {
            if (first || j)
                *o++ = ',';
            o = format_double(o, row[j]);
        }
        *o++ = '\n';
    }
    return o - out;
}
