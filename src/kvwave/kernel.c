/* Kernels of kvwave: the tridiagonal L D L^T factor, a whole run of
   summed-form steps through a ring of layers, each layer checked against a
   divergence limit and its step's energies and identity residual evaluated
   as it is written, into the run's energy trace and maxima, and the CSV
   text of a table of doubles.

   Built with -ffp-contract=off, so every fused multiply-add is an explicit
   fma() and every other operation rounds on its own.  fma() is correctly
   rounded in hardware and in libm alike, so the results are the same bits
   on every machine.  They are the bits of LAPACK dpttrf/dptts2 and of the
   column-order axpy loop of BLAS gbmv where it runs on FMA hardware
   (y[j] += (alpha x[i]) a[j, i] as one fused multiply-add).  The step
   takes the cells that its factor decouples in vectorized passes, each
   cell with the same operations in the same order, so those passes keep
   the bits too.  The energies add their terms in eight lanes in a fixed
   order (SUM_LANES), which fixes their bits as well.

   Two measures speed up large meshes, and the bits depend on neither.
   The backward sweep over coupled cells, each of which waits for the one
   before, takes decoupled passes along, one after every OVERLAP of its
   cells, wherever a run of decoupled cells holds more than two passes
   (run_steps).  Meshes of WIDE_CELLS cells or more step in 512-bit vectors
   where the CPU has them (steps_wide): each lane holds one cell or one
   SUM_LANES lane, whatever the width.

   A symmetric tridiagonal matrix a is passed as its diagonal and its
   off-diagonal, n and n - 1 doubles: diag[j] holds a[j, j] and off[j]
   holds a[j, j + 1] = a[j + 1, j]. */

#include <math.h>
#include <stddef.h>
#include <stdint.h>
#include <stdlib.h>
#include <string.h>

/* LAPACK dpttrf without its 4-way unroll: d and e become D and the
   subdiagonal of L.  Returns LAPACK's info: k > 0 if pivot k is not
   positive, else 0.  A row whose e[i] is +-0 is left as it is: with d[i] >
   0, e[i] / d[i] is that same zero and d[i+1] - (+0) is d[i+1], so only the
   coupled rows wait on the division before them. */
ptrdiff_t kv_factor(ptrdiff_t n, double *d, double *e)
{
    for (ptrdiff_t i = 0; i < n - 1; i++) {
        if (d[i] <= 0.0)
            return i + 1;
        double ei = e[i];
        if (ei == 0.0)
            continue;
        e[i] = ei / d[i];
        d[i + 1] = d[i + 1] - e[i] * ei;
    }
    return d[n - 1] <= 0.0 ? n : 0;
}

/* Cells whose terms are computed in one vectorizable pass: -O2 vectorizes
   a loop of this constant count, and not one of a variable count. */
#define LANES 16

/* Row j of a x + b y, with a = (ad, ao) and b = (bd, bo), as gbmv with
   beta = 0 and then gbmv with beta = 1 round it: the row takes its columns
   in order, one fma() each, starting from +0.  left and right say whether
   the row has the columns j - 1 and j + 1.  Always inlined, so that
   constant ones fold away. */
static inline __attribute__((always_inline)) double
band_row(ptrdiff_t j, int left, int right, const double *ad, const double *ao, const double *x,
         const double *bd, const double *bo, const double *y)
{
    double s = 0.0;
    if (left)
        s = fma(x[j - 1], ao[j - 1], s);
    s = fma(x[j], ad[j], s);
    if (right)
        s = fma(x[j + 1], ao[j], s);
    if (left)
        s = fma(y[j - 1], bo[j - 1], s);
    s = fma(y[j], bd[j], s);
    if (right)
        s = fma(y[j + 1], bo[j], s);
    return s;
}

/* Whether x is -0 or not finite.  Any other x is left as it is by x - w e
   with e = +-0 and any finite w, and x e has the bits of w e for any
   finite w of x's sign. */
static inline int unsafe(double x)
{
    uint64_t bits;
    memcpy(&bits, &x, sizeof bits);
    return (bits == 1ull << 63) | ((bits << 1) >= 0x7ffull << 53);
}

/* The step's cells j .. j+LANES-1, all free (with e = +-0 on both their
   faces) and none the first or last of the row: x[i] = band_row(i) / d[i]
   and out[i] = u[i] + x[i].  Returns whether any x[i] is unsafe. */
static inline __attribute__((always_inline)) int
free_cells(ptrdiff_t j, const double *restrict ad, const double *restrict ao,
           const double *restrict u, const double *restrict bd, const double *restrict bo,
           const double *restrict y, const double *restrict d, double *restrict x,
           double *restrict out)
{
    int bad = 0;
    for (ptrdiff_t i = j; i < j + LANES; i++) {
        double s = band_row(i, 1, 1, ad, ao, u, bd, bo, y) / d[i];
        x[i] = s;
        out[i] = u[i] + s;
        bad |= unsafe(s);
    }
    return bad;
}

/* Cells of the backward sweep per chunk of free cells that it takes along:
   each cell of a sweep waits for the one before, and a chunk's cells, which
   wait for none, fill that latency.  The forward sweep takes none: its rows
   keep the core busy enough that a chunk there slowed the step. */
#define OVERLAP 8

/* LAPACK dptts2's two sweeps over the cells lo .. hi, fused with band_row's
   rows and with the add into the row, from x[lo-1] when lo > 0 and x[hi+1]
   when hi < n - 1: first x[j] = band_row(j) - x[j-1] e[j-1], then x[j] =
   x[j] / d[j] - x[j+1] e[j] and out[j] = u[j] + x[j].  After every OVERLAP
   cells of the second sweep it takes the chunk that starts at **next, and
   moves *next on, while *next < end: free_cells(**next), into the same x
   and out, with none of the sweeps' cells.  Returns whether the forward
   value of x[hi] when hi < n - 1, or the final x[lo] when lo > 0, is not
   finite, or a chunk it took is unsafe. */
static inline __attribute__((always_inline)) int
serial_cells(ptrdiff_t n, ptrdiff_t lo, ptrdiff_t hi, const double *ad, const double *ao,
             const double *u, const double *bd, const double *bo, const double *y,
             const double *d, const double *e, double *x, double *out, const ptrdiff_t **next,
             const ptrdiff_t *end)
{
    int bad = 0;
    double s = band_row(lo, lo > 0, lo < n - 1, ad, ao, u, bd, bo, y);
    if (lo > 0)
        s = s - x[lo - 1] * e[lo - 1];
    x[lo] = s;
    ptrdiff_t inner = hi < n - 1 ? hi : n - 2;
    for (ptrdiff_t j = lo + 1; j <= inner; j++) {
        s = band_row(j, 1, 1, ad, ao, u, bd, bo, y) - s * e[j - 1];
        x[j] = s;
    }
    if (hi < n - 1) {
        bad |= !isfinite(s);
        s = s / d[hi] - x[hi + 1] * e[hi];
    } else {
        if (hi > lo)
            s = band_row(hi, 1, 0, ad, ao, u, bd, bo, y) - s * e[hi - 1];
        s = s / d[hi];
    }
    x[hi] = s;
    out[hi] = u[hi] + s;
    for (ptrdiff_t j = hi - 1; j >= lo; j--) {
        s = x[j] / d[j] - s * e[j];
        x[j] = s;
        out[j] = u[j] + s;
        if (*next < end && (hi - j) % OVERLAP == 0)
            bad |= free_cells(*(*next)++, ad, ao, u, bd, bo, y, d, x, out);
    }
    return bad | (lo > 0 && !isfinite(s));
}

/* Whether the na bytes at a and the nb at b share a byte; never for NULL. */
static int overlap(const void *a, size_t na, const void *b, size_t nb)
{
    uintptr_t x = (uintptr_t)a, y = (uintptr_t)b;
    return a && b && x < y + nb && y < x + na;
}

/* Whether fabs(x[j]) <= limit, false for a NaN, for the n doubles at x.
   Whole chunks of LANES vectorize, with an int count. */
static int row_within(ptrdiff_t n, const double *x, double limit)
{
    int within = 1;
    ptrdiff_t j = 0;
    for (; within && j + LANES <= n; j += LANES)
        for (int i = 0; i < LANES; i++)
            within &= fabs(x[j + i]) <= limit;
    for (; within && j < n; j++)
        within = fabs(x[j]) <= limit;
    return within;
}

/* Every sum of the energies runs in SUM_LANES lanes: term i goes to lane i
   mod SUM_LANES, each lane adds its terms in order from +0, and fold adds
   the lanes up.  The lanes of a whole chunk of terms vectorize. */
#define SUM_LANES 8

/* Lane 0 after the lanes are folded in halves: lane k += lane k + 4, then
   lane k += lane k + 2, then lane k += lane k + 1. */
static inline double fold(double s[SUM_LANES])
{
    for (int h = SUM_LANES / 2; h > 0; h /= 2)
        for (int k = 0; k < h; k++)
            s[k] += s[k + h];
    return s[0];
}

/* (rate rate) w[j] with rate = (k1[j] - k0[j]) / dt. */
static inline double kinetic_term(ptrdiff_t j, double dt, const double *w, const double *k0,
                                  const double *k1)
{
    double rate = (k1[j] - k0[j]) / dt;
    return (rate * rate) * w[j];
}

/* Terms i .. i+len-1, len <= SUM_LANES and i a multiple of it, of a pair's
   two sums: kinetic_term(i) and (J(p1)[i+1] J(p0)[i+1]) ell[i+1], with the
   interior jumps J(u)[f] = u[f] - u[f-1]. */
static inline __attribute__((always_inline)) void
pair_terms(ptrdiff_t i, ptrdiff_t len, double dt, const double *w, const double *ell,
           const double *k0, const double *k1, const double *p0, const double *p1,
           double ks[SUM_LANES], double ps[SUM_LANES])
{
    for (ptrdiff_t k = 0; k < len; k++) {
        ptrdiff_t f = i + k + 1;
        ks[k] += kinetic_term(i + k, dt, w, k0, k1);
        ps[k] += ((p1[f] - p1[f - 1]) * (p0[f] - p0[f - 1])) * ell[f];
    }
}

/* A layer pair's sums in one pass over its cells.  *kin adds kinetic_term
   over the n cells.  *pot adds (J(p1)[f] J(p0)[f]) ell[f] over the n + 1
   faces, whose jumps take zero ghosts, J(u)[0] = u[0] and J(u)[n] = 0.0 -
   u[n-1]: the boundary terms t_0 and t_n around the lanes of the n - 1
   interior faces, ((0.0 + t_0) + lanes) + t_n. */
static void pair_sums(ptrdiff_t n, double dt, const double *w, const double *ell,
                      const double *k0, const double *k1, const double *p0, const double *p1,
                      double *kin, double *pot)
{
    double ks[SUM_LANES] = {0.0}, ps[SUM_LANES] = {0.0};
    ptrdiff_t i = 0;
    for (; i + SUM_LANES <= n - 1; i += SUM_LANES)  /* a constant count vectorizes */
        pair_terms(i, SUM_LANES, dt, w, ell, k0, k1, p0, p1, ks, ps);
    pair_terms(i, n - 1 - i, dt, w, ell, k0, k1, p0, p1, ks, ps);
    ks[(n - 1) % SUM_LANES] += kinetic_term(n - 1, dt, w, k0, k1);
    *kin = fold(ks);
    double first = (p1[0] * p0[0]) * ell[0];
    double last = ((0.0 - p1[n - 1]) * (0.0 - p0[n - 1])) * ell[n];
    *pot = ((0.0 + first) + fold(ps)) + last;
}

/* Terms f .. f+len-1 of face_sum, len <= SUM_LANES and f - lo a multiple
   of it, in the lanes 0 .. len-1. */
static inline __attribute__((always_inline)) void
face_terms(ptrdiff_t f, ptrdiff_t len, const double *u0, const double *u2, double s[SUM_LANES])
{
    for (ptrdiff_t k = 0; k < len; k++) {
        double d = (u2[f + k] - u2[f + k - 1]) - (u0[f + k] - u0[f + k - 1]);
        s[k] += d * d;
    }
}

/* The lane sum of (J(u2)[f] - J(u0)[f])^2 over the faces lo .. hi-1. */
static double face_sum(const double *u0, const double *u2, ptrdiff_t lo, ptrdiff_t hi)
{
    double s[SUM_LANES] = {0.0};
    ptrdiff_t f = lo;
    for (; f + SUM_LANES <= hi; f += SUM_LANES)
        face_terms(f, SUM_LANES, u0, u2, s);
    face_terms(f, hi - f, u0, u2, s);
    return fold(s);
}

/* The energies of a run's steps, evaluated as each step's last layer is
   written.  The step s reads the layers s-1, s and s+1:

     e_k = 0.5 sum_j ((u_s+1[j] - u_s[j]) / dt)^2 w[j],
     e_p = 0.5 sum_f J(u_s+1)[f] J(u_s)[f] ell[f]               (explicit)
         = 0.25 (sq_s+1 + sq_s),  sq_s = sum_f J(u_s)[f]^2 ell[f]  (implicit),
     total = e_k + e_p,
     dissipation = 0.0 - coef sum_f (J(u_s+1)[f] - J(u_s-1)[f])^2
       over the interior faces face_lo .. face_hi-1, 1 <= face_lo <= face_hi <= n,
     residual = (total_s - total_s-1) - dissipation,

   with e_k, e_p and total those of the layer pair s, s+1.  The energy sums
   are pair_sums', the face sum is face_sum's.  A step s >= 1 is kept when
   every divides it or it is the last, and selected when it is kept or
   verify is set.  Each selected step moves the maxima, where larger: the
   identity residual's magnitude, the drift |total_s - E0| and the rise
   total_s - total_s-1, in this order; a NaN move, and every move after
   it, leaves the maximum NAN, whatever its order.  Each kept
   step writes its e_k, e_p, total, dissipation and residual to the row
   ceil(s / every) of the trace, rows x 5 with rows = ceil(last / every) +
   1.  Row 0 holds the pair 0, 1 with dissipation and residual +0.0, and
   its total is E0.  pair is the last pair evaluated, whose sq of its
   second layer and total the next pair may take over. */
struct energies {
    ptrdiff_t n, every, last, face_lo, face_hi, pair;
    int verify, implicit;
    const double *w, *ell;
    double dt, coef, *trace, *maxima, sq, total;
};

/* The kinetic, potential and total energy of the layer pair s, from its
   layers u and v, into e.  For the implicit scheme the pass sums sq_s+1;
   sq_s comes from the pass of the pair s-1 when that was the last
   evaluated, else from one more pass over u alone: the same terms in the
   same order. */
static void pair_energies(struct energies *en, ptrdiff_t s, const double *u, const double *v,
                          double e[3])
{
    double kin, prev = en->sq;
    if (en->implicit && en->pair != s - 1)
        pair_sums(en->n, en->dt, en->w, en->ell, u, u, u, u, &kin, &prev);
    pair_sums(en->n, en->dt, en->w, en->ell, u, v, en->implicit ? v : u, v, &kin, &en->sq);
    e[0] = 0.5 * kin;
    e[1] = en->implicit ? 0.25 * (en->sq + prev) : 0.5 * en->sq;
    e[2] = e[0] + e[1];
    en->pair = s;
    en->total = e[2];
}

/* The step s, s >= 1, from its layers p, u and v, if it is selected. */
static void step_entry(struct energies *en, ptrdiff_t s, const double *p, const double *u,
                       const double *v)
{
    int kept = s % en->every == 0 || s == en->last;
    if (!kept && !en->verify)
        return;
    double e[3];
    if (en->pair != s - 1)
        pair_energies(en, s - 1, p, u, e);
    double before = en->total;
    pair_energies(en, s, u, v, e);
    double diss = 0.0 - en->coef * face_sum(p, v, en->face_lo, en->face_hi);
    double res = (e[2] - before) - diss;
    double moves[3] = {fabs(res), fabs(e[2] - en->trace[2]), e[2] - before};
    for (int k = 0; k < 3; k++)
        if (isnan(moves[k]))
            en->maxima[k] = NAN;
        else if (moves[k] > en->maxima[k])
            en->maxima[k] = moves[k];
    if (kept) {
        double *row = en->trace + 5 * (s / en->every + (s % en->every != 0));
        row[0] = e[0], row[1] = e[1], row[2] = e[2], row[3] = diss, row[4] = res;
    }
}

/* What the steps of a call read and write besides their energies: the
   arguments of kv_step_block, and the cells that it finds once.  The chunks,
   runs of whole chunks of free cells, are the cells edge[2k+1] ..
   edge[2k+2]-1 for k < runs, and the serial spans around them the cells
   edge[2k] .. edge[2k+1]-1 for k <= runs.  chunk holds the starts of the
   chunks, the `border` next to a span first, then the others in order. */
struct steps {
    ptrdiff_t n, rows, runs, border, chunks;
    const ptrdiff_t *edge, *chunk;
    double limit, *ring, *incr;
    const double *sd, *so, *rd, *ro, *d, *e;
};

/* The steps of the layers start .. stop-1 (kv_step_block).  A step takes
   the border chunks, then the spans in order, each of which takes the
   other chunks along, as many as its backward sweep has room for, and last
   the chunks left over. */
static inline __attribute__((always_inline)) ptrdiff_t
run_steps(const struct steps *st, ptrdiff_t start, ptrdiff_t stop, struct energies *en)
{
    ptrdiff_t n = st->n, rows = st->rows, runs = st->runs;
    const ptrdiff_t *edge = st->edge, *border = st->chunk + st->border,
                    *end = st->chunk + st->chunks;
    const double *sd = st->sd, *so = st->so, *rd = st->rd, *ro = st->ro, *d = st->d, *e = st->e;
    double *ring = st->ring, *d_prev = st->incr, *d_next = st->incr + n;
#define LAYER(i) (ring + (i) % rows * n)
    ptrdiff_t i = start;
    for (; i < stop; i++) {
        const double *u = LAYER(i - 1);
        double *v = LAYER(i);
        const ptrdiff_t *next = st->chunk;
        int bad = 0;
        for (; next < border; next++)
            bad |= free_cells(*next, sd, so, u, rd, ro, d_prev, d, d_next, v);
        for (ptrdiff_t k = 0; runs && k <= runs; k++)
            bad |= serial_cells(n, edge[2 * k], edge[2 * k + 1] - 1, sd, so, u, rd, ro, d_prev,
                                d, e, d_next, v, &next, end);
        for (; next < end; next++)
            bad |= free_cells(*next, sd, so, u, rd, ro, d_prev, d, d_next, v);
        /* without chunks the whole row at once, in a call whose bounds fold */
        if (!runs || bad)
            serial_cells(n, 0, n - 1, sd, so, u, rd, ro, d_prev, d, e, d_next, v, &end, end);
        double *swap = d_prev;
        d_prev = d_next;
        d_next = swap;
        if (!row_within(n, v, st->limit))
            break;
        if (en->trace)
            step_entry(en, i - 1, LAYER(i - 2), u, v);
    }
#undef LAYER
    if (d_prev != st->incr)
        memcpy(st->incr, d_prev, (size_t)n * sizeof *d_prev);
    return i;
}

/* Meshes of WIDE_CELLS cells or more step in 512-bit vectors where the CPU
   has them: their passes over the row outweigh what such vectors cost the
   small meshes, whose steps take longer with them.  The steps, their
   energies included, are compiled once for each width, from the same
   source, and each lane of a vector has the operations of one cell or of
   one SUM_LANES lane, so the bits do not depend on the width.  GCC 8 and
   later take the width per function; other compilers build steps_wide as
   they build the narrow steps.  flatten, which inlines the energies into
   the wide copy too, lengthens the build and earns it: without it a
   5000-cell step takes 7% longer on a 2-core Xeon. */
#define WIDE_CELLS 1024
#if defined(__GNUC__) && !defined(__clang__) && __GNUC__ >= 8 && defined(__x86_64__)
#define WIDE __attribute__((target("prefer-vector-width=512"), flatten, noinline))
#else
#define WIDE
#endif

WIDE static ptrdiff_t steps_wide(const struct steps *st, ptrdiff_t start, ptrdiff_t stop,
                                 struct energies *en)
{
    return run_steps(st, start, stop, en);
}

/* Summed-form steps of the layers start .. stop-1, 1 <= start <= stop, of
   n cells each, n >= 3, through a ring of `rows` rows, rows >= 2: layer i
   lives in row i % rows, so that a step overwrites the layer `rows` before
   it.  Layer i becomes layer i-1 plus d, where L d = stiff layer[i-1] +
   rhs_prev d_prev is solved with L's factors (d, e); stiff is (sd, so) and
   rhs_prev (rd, ro).  incr is 2 x n: d_prev into layer start-1, then
   scratch; the two rows take turns as d_prev and d, and the first holds
   the increment into the last layer written on return.  Each layer is
   checked by row_within once written; returns the first that fails, after
   which no layer is stepped, else stop.

   With trace not NULL, 2 <= start, 3 <= rows and stop - 2 <= last, the
   steps go to trace and maxima as struct energies defines them: the step
   i-1 by step_entry as the layer i passes its check, and, when start is 2,
   the run's first call, the row 0 before any step, whatever stop is.

   Returns -1 without a step when the rows the call writes (the ring's
   rows from layer start-1 on, or all of them when the layers wrap around
   it), incr, trace or maxima overlap another array.

   Each step gives the bits of serial_cells(0, n-1): band_row's rows and
   dptts2's sweeps in dptts2's order.  A cell is free when e = +-0 on both
   its faces: the sweeps then leave its band_row(j) / d[j] as it is, unless
   that is unsafe or a neighbour's value is not finite.  Runs of free cells
   are taken LANES at a time by free_cells, in passes that vectorize, and
   the cells between those chunks by serial_cells, from the chunks' final
   values at their ends: those stand in for the forward values, whose
   product with e = +-0 they share.  The chunks next to a span are taken
   before it, and the others as the spans' sweeps take them along
   (run_steps), which moves no bit: each cell has its own operations,
   whichever order the cells are taken in.  A step in which a chunk comes
   out unsafe, or serial_cells passes a value that is not finite to a
   chunk, is redone as serial_cells(0, n-1). */
ptrdiff_t kv_step_block(ptrdiff_t n, ptrdiff_t rows, ptrdiff_t start, ptrdiff_t stop,
                        double limit, double *ring, const double *sd, const double *so,
                        const double *rd, const double *ro, const double *d, const double *e,
                        double *incr, ptrdiff_t every, ptrdiff_t last, int verify,
                        const double *w, const double *ell, double dt, int implicit,
                        ptrdiff_t face_lo, ptrdiff_t face_hi, double coef, double *trace,
                        double *maxima)
{
    ptrdiff_t first = (start - 1) % rows, span = stop - start + 1;
    if (first + span > rows)
        first = 0, span = rows;
    size_t D = sizeof(double);
    size_t kept = trace ? (size_t)(last / every + (last % every != 0) + 1) : 0;
    const void *arrays[12] = {ring + first * n, incr, trace, maxima, sd, so, rd, ro, d, e, w, ell};
    size_t sizes[12] = {span * n * D, 2 * n * D, 5 * kept * D, 3 * D, n * D, (n - 1) * D,
                        n * D, (n - 1) * D, n * D, (n - 1) * D, n * D, (n + 1) * D};
    for (int a = 0; a < 4; a++)
        for (int b = a + 1; b < 12; b++)
            if (overlap(arrays[a], sizes[a], arrays[b], sizes[b]))
                return -1;
    /* found once, with no chunks without memory: the runs' edges, then the
       chunks' starts, at most n / LANES */
    ptrdiff_t runs = 0, chunks = 0;
    ptrdiff_t *edge = malloc((size_t)(n + 2 + n / LANES) * sizeof *edge);
    ptrdiff_t *chunk = edge ? edge + n + 2 : NULL;
    for (ptrdiff_t j = 1; edge && j < n - 1; j++) {
        if (e[j - 1] != 0.0 || e[j] != 0.0)
            continue;
        ptrdiff_t lo = j;
        while (j + 1 < n - 1 && e[j + 1] == 0.0)
            j++;
        if (j + 1 - lo >= LANES) {
            edge[2 * runs + 1] = lo;
            edge[2 * runs + 2] = lo + (j + 1 - lo) / LANES * LANES;
            runs++;
        }
    }
    if (edge)
        edge[0] = 0, edge[2 * runs + 1] = n;
    for (ptrdiff_t k = 0; k < runs; k++) {
        chunk[chunks++] = edge[2 * k + 1];
        if (edge[2 * k + 2] - edge[2 * k + 1] > LANES)
            chunk[chunks++] = edge[2 * k + 2] - LANES;
    }
    ptrdiff_t border = chunks;
    for (ptrdiff_t k = 0; k < runs; k++)
        for (ptrdiff_t j = edge[2 * k + 1] + LANES; j < edge[2 * k + 2] - LANES; j += LANES)
            chunk[chunks++] = j;
    struct steps st = {n, rows, runs, border, chunks, edge, chunk, limit, ring, incr,
                       sd, so, rd, ro, d, e};
    struct energies en = {n, every, last, face_lo, face_hi, PTRDIFF_MIN, verify, implicit, w, ell,
                          dt, coef, trace, maxima, 0.0, 0.0};  /* PTRDIFF_MIN: no pair yet */
    if (trace && start == 2) {
        pair_energies(&en, 0, ring, ring + n, trace);
        trace[3] = trace[4] = 0.0;
    }
    ptrdiff_t i = n >= WIDE_CELLS ? steps_wide(&st, start, stop, &en)
                                  : run_steps(&st, start, stop, &en);
    free(edge);
    return i;
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

/* "00" .. "99" */
static const char DIGIT_PAIRS[201] =
    "00010203040506070809101112131415161718192021222324252627282930313233343536373839"
    "40414243444546474849505152535455565758596061626364656667686970717273747576777879"
    "8081828384858687888990919293949596979899";

/* The 8 decimal digits of v < 10^8, two at a time, in four independent
   chains. */
static inline __attribute__((always_inline)) void put8(char *o, uint32_t v)
{
    uint32_t a = v / 10000, b = v % 10000, pairs[4] = {a / 100, a % 100, b / 100, b % 100};
    for (int i = 0; i < 4; i++)
        memcpy(o + 2 * i, DIGIT_PAIRS + 2 * pairs[i], 2);
}

/* The number of '0's that end the 16 digits d[1..16]: each 8 of them are
   read as one word with '0' taken off every byte, whose zero bytes at the
   end are the zeros. */
static int trailing_zeros(const char d[17])
{
    uint64_t w[2];
    memcpy(w, d + 1, 16);
    for (int k = 1; k >= 0; k--) {
        uint64_t z = w[k] ^ 0x3030303030303030ull;
#if defined(__BYTE_ORDER__) && __BYTE_ORDER__ == __ORDER_BIG_ENDIAN__
        int end = z ? __builtin_ctzll(z) / 8 : 8;
#else
        int end = z ? __builtin_clzll(z) / 8 : 8;
#endif
        if (end < 8)
            return 8 * (1 - k) + end;
    }
    return 16;
}

/* The bytes format_double may write: its text, at most 24 bytes, and
   scratch after it. */
#define FIELD_ROOM 40

/* x as '%.17g' % x writes it: 17 significant digits with trailing zeros
   dropped, positional when -4 <= X < 17 and else with an exponent of at
   least two digits; nan whatever the sign and payload, inf, -inf, -0.
   At most 24 bytes, as in -1.2345678901234567e-308, and scratch after
   them: it writes up to FIELD_ROOM bytes. */
static char *format_double(char *o, double x)
{
    uint64_t bits;
    memcpy(&bits, &x, sizeof bits);
    int neg = (int)(bits >> 63), biased = (int)(bits >> 52 & 0x7ff);
    uint64_t m = bits & ((1ull << 52) - 1);
    if (biased == 0x7ff && m)
        return (char *)memcpy(o, "nan", 3) + 3;
    if (neg)
        *o++ = '-';
    if (biased == 0x7ff)
        return (char *)memcpy(o, "inf", 3) + 3;
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
    digits += last > 5 || (last == 5 && (inexact || digits % 2));
    if (digits == POW10[17]) {
        digits = POW10[16];
        X++;
    }
    char d[32] = {0};  /* 17 digits, and room for the fixed-length copies' reads */
    uint32_t hi = (uint32_t)(digits / 100000000);
    d[0] = (char)('0' + hi / 100000000);
    put8(d + 1, hi % 100000000);
    put8(d + 9, (uint32_t)(digits % 100000000));
    int len = 17 - trailing_zeros(d);
    /* fixed-length copies, which may write scratch up to FIELD_ROOM bytes
       past o, then o moves on by the text's length */
    if (X >= 17 || X < -4) {
        o[0] = d[0];
        o[1] = '.';
        memcpy(o + 2, d + 1, 16);
        o += len > 1 ? len + 1 : 1;
        *o++ = 'e';
        *o++ = X < 0 ? '-' : '+';
        int a = X < 0 ? -X : X;
        if (a >= 100)
            *o++ = (char)('0' + a / 100);
        memcpy(o, DIGIT_PAIRS + 2 * (a % 100), 2);
        o += 2;
    } else if (X < 0) {
        memcpy(o, "0.000", 5);
        memcpy(o + 1 - X, d, 17);
        o += 1 - X + len;
    } else {
        memcpy(o, d, 17);
        if (len > X + 1) {
            memcpy(o + X + 2, d + X + 1, 16);
            o[X + 1] = '.';
            o += len + 1;
        } else {
            o += X + 1;
        }
    }
    return o;
}

/* The CSV lines of a row-major rows x cols table of doubles, each as
   format_double writes it.  out has room for 25 bytes a field, separator
   included, and FIELD_ROOM more, the scratch that format_double may write
   past the last field.  Returns the number of bytes of text. */
ptrdiff_t kv_format_csv(ptrdiff_t rows, ptrdiff_t cols, const double *table, char *out)
{
    char *o = out;
    for (ptrdiff_t i = 0; i < rows; i++)
        for (ptrdiff_t j = 0; j < cols; j++) {
            o = format_double(o, table[i * cols + j]);
            *o++ = j < cols - 1 ? ',' : '\n';
        }
    return o - out;
}
