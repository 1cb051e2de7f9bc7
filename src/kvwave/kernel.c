/* Kernels of kvwave: the tridiagonal L D L^T factor and solve, band
   products, a whole block of summed-form steps, and the energies and
   identity residuals of a block of layers.

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

/* LAPACK dptts2 for one right-hand side: b becomes the solution. */
void kv_solve(ptrdiff_t n, const double *d, const double *e, double *b)
{
    for (ptrdiff_t i = 1; i < n; i++)
        b[i] = b[i] - b[i - 1] * e[i - 1];
    b[n - 1] = b[n - 1] / d[n - 1];
    for (ptrdiff_t i = n - 2; i >= 0; i--)
        b[i] = b[i] / d[i] - b[i + 1] * e[i];
}

/* Row j of a x + scale (b y), as gbmv with beta = 0 and then gbmv with
   alpha = scale and beta = 1 round it: the row takes its columns in order,
   one fma() each, starting from +0.  Always inlined, so that in the step's
   interior rows the bounds tests fold away and scale 1 multiplies nothing. */
static inline __attribute__((always_inline)) double
band_row(ptrdiff_t n, ptrdiff_t j, const double *a, const double *x, double scale,
         const double *b, const double *y)
{
    double s = 0.0;
    if (j > 0)
        s = fma(x[j - 1], a[3 * j - 1], s);
    s = fma(x[j], a[3 * j + 1], s);
    if (j < n - 1)
        s = fma(x[j + 1], a[3 * j + 3], s);
    if (j > 0)
        s = fma(scale * y[j - 1], b[3 * j - 1], s);
    s = fma(scale * y[j], b[3 * j + 1], s);
    if (j < n - 1)
        s = fma(scale * y[j + 1], b[3 * j + 3], s);
    return s;
}

/* out = a x + scale (b y) for two matrices in band storage. */
void kv_band_sum(ptrdiff_t n, const double *a, const double *x, double scale,
                 const double *b, const double *y, double *out)
{
    for (ptrdiff_t j = 0; j < n; j++)
        out[j] = band_row(n, j, a, x, scale, b, y);
}

/* Rows start .. stop-1 of a row-major block of n-vectors: row i becomes
   row i-1 plus d, where L d = stiff row[i-1] + rhs_prev d_prev is solved
   with L's factors (d, e).  Each step is kv_band_sum's rows fused with
   kv_solve's forward sweep, then kv_solve's backward sweep fused with the
   add into the row: the same operations in the same order, one pass each.
   The increments swap every step, so after an odd number of steps the last
   one is in d_prev.  The first and last rows are peeled off, so n >= 2. */
void kv_step_block(ptrdiff_t n, ptrdiff_t start, ptrdiff_t stop, double *block,
                   const double *stiff, const double *rhs_prev, const double *d,
                   const double *e, double *d_prev, double *d_next)
{
    for (ptrdiff_t i = start; i < stop; i++) {
        const double *u = block + (i - 1) * n;
        double *out = block + i * n;
        double s = band_row(n, 0, stiff, u, 1.0, rhs_prev, d_prev);
        d_next[0] = s;
        for (ptrdiff_t j = 1; j < n - 1; j++) {
            s = band_row(n, j, stiff, u, 1.0, rhs_prev, d_prev) - s * e[j - 1];
            d_next[j] = s;
        }
        s = band_row(n, n - 1, stiff, u, 1.0, rhs_prev, d_prev) - s * e[n - 2];
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

/* Energies of `batch` blocks of m consecutive layers of n cells each,
   written to out, 5 x batch x m: for block b, out[q][b][t] holds its
   kinetic, potential and total energy (q = 0, 1, 2) of the layer pair
   t, t+1 for t < m - 1, and its dissipation and identity residual (q = 3,
   4) of the step at layer t+1 for t < m - 2; the other entries are scratch.
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
void kv_energies(ptrdiff_t batch, ptrdiff_t m, ptrdiff_t n, const double *layers,
                 const double *w, const double *ell, double dt, int implicit,
                 ptrdiff_t face_lo, ptrdiff_t face_hi, double coef, double *out)
{
    ptrdiff_t size = batch * m;
    double *e_k = out, *e_p = out + size, *e_t = out + 2 * size;
    double *diss = out + 3 * size, *res = out + 4 * size;
    const double *k0[ROWS], *k1[ROWS], *p0[ROWS], *p1[ROWS];
    double *kd[ROWS], *pd[ROWS], kin[ROWS], pot[ROWS], spare;
    int r = 0;
    /* One row per layer pair, and for the implicit scheme one more for the
       last layer's sq: its kinetic sum goes to spare. */
    for (ptrdiff_t b = 0; b < batch; b++) {
        for (ptrdiff_t t = 0; t < m - !implicit; t++) {
            const double *u = layers + (b * m + t) * n;
            int pair = t < m - 1;
            k0[r] = u, k1[r] = pair ? u + n : u, kd[r] = pair ? e_k + b * m + t : &spare;
            p0[r] = u, p1[r] = implicit ? u : u + n, pd[r] = e_p + b * m + t;
            if (++r == ROWS || (b == batch - 1 && t == m - 1 - !implicit)) {
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
    }
    for (ptrdiff_t b = 0; b < batch; b++) {
        const double *u = layers + b * m * n;
        ptrdiff_t o = b * m;
        for (ptrdiff_t t = 0; t < m - 1; t++) {
            e_k[o + t] = 0.5 * e_k[o + t];
            e_p[o + t] = implicit ? 0.25 * (e_p[o + t + 1] + e_p[o + t]) : 0.5 * e_p[o + t];
            e_t[o + t] = e_k[o + t] + e_p[o + t];
        }
        for (ptrdiff_t t = 0; t < m - 2; t++) {
            double s = 0.0 + pairwise_sum(u + t * n, u + (t + 2) * n, face_lo, face_hi - face_lo);
            diss[o + t] = 0.0 - coef * s;
            res[o + t] = (e_t[o + t + 1] - e_t[o + t]) - diss[o + t];
        }
    }
}
