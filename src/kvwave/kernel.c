/* Tridiagonal kernels of kvwave: L D L^T factor and solve, band products,
   and a whole block of summed-form steps.

   Built with -ffp-contract=off, so every fused multiply-add is an explicit
   fma() and every other operation rounds on its own.  fma() is correctly
   rounded in hardware and in libm alike, so the results are the same bits
   on every machine.  They are the bits of LAPACK dpttrf/dptts2 and of the
   column-order axpy loop of BLAS gbmv where it runs on FMA hardware
   (y[j] += (alpha x[i]) a[j, i] as one fused multiply-add).

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
   one fma() each, starting from +0. */
static inline double band_row(ptrdiff_t n, ptrdiff_t j, const double *a, const double *x,
                              double scale, const double *b, const double *y)
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
   one is in d_prev. */
void kv_step_block(ptrdiff_t n, ptrdiff_t start, ptrdiff_t stop, double *block,
                   const double *stiff, const double *rhs_prev, const double *d,
                   const double *e, double *d_prev, double *d_next)
{
    for (ptrdiff_t i = start; i < stop; i++) {
        const double *u = block + (i - 1) * n;
        double *out = block + i * n;
        double s = band_row(n, 0, stiff, u, 1.0, rhs_prev, d_prev);
        d_next[0] = s;
        for (ptrdiff_t j = 1; j < n; j++) {
            s = band_row(n, j, stiff, u, 1.0, rhs_prev, d_prev) - s * e[j - 1];
            d_next[j] = s;
        }
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
