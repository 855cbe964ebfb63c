/* fpmimo's rounding primitive: round binary64 carrier values to a t-bit
 * significand, elementwise on real or complex128 arrays of any strides
 * (fp_round, one walk of shape and strides for both), or fused into a complex
 * dot product (fp_dot, also on the upper lanes of a Gram matrix alone), a
 * Cholesky factorization (fp_chol) and the triangular solves of its factor
 * (fp_trisolve).  fp_dot conjugates its first operand on request, as np.conj
 * does, by the sign of its loaded imaginary part, and runs a carrier copy of
 * its loop, with no rounding, when both formats are fp64 under nearest-even
 * and the unbounded range; its nearest-even and carrier loops are also
 * instantiated with a compile-time block size of 1, for uniform policies
 * (and mixed ones with b = 1), so that the block bookkeeping folds away.
 * Every complex result is stored as its two parts, each one rounding of a
 * real operation, as IEEE rounds it: a signed zero keeps its sign, and a
 * finite part keeps its value beside an infinite or NaN one.
 * fp_round tells, on request, whether an operand it rounds is finite, so
 * that one pass rounds an operand and checks it.  Each entry's comment gives
 * the layout of its stochastic uniforms.
 *
 * Some entries round nothing.  fp_gram computes fp64 Gram products A^H B in
 * numpy's order for the subscripts "...mk,...ml->...kl" on A.conj() and B,
 * and so with its bits on numbers, for the rate analysis of the harness and
 * the condition numbers of the bounds, a one-entry block's two sums in
 * registers; fp_norm computes the norms of contiguous complex rows in fused
 * form, the package's one fp64 norm, with the bits of numpy.linalg's
 * norm(x, axis=-1) where numpy fuses, and on request each row times the
 * reciprocal of its norm while the row is in cache.  fp_normal draws the
 * standard normals of numpy's Generator.standard_normal on a PCG64, bit for
 * bit and to the same end state, with numpy's own ziggurat: its fast path,
 * one word and one table lookup on about 99% of draws, inline on tables read
 * back from numpy's random_standard_normal (libnpyrandom.a) when the library
 * loads, and that function itself for the rest, over a buffer of words that
 * four interleaved LCG chains make a block at a time.  It splits the draws
 * across threads by decoding pieces of the stream from their first word,
 * joins them where the true chain of samples meets them, and shifts them
 * into place on the threads too, into an output of any stride; fp_cn then
 * makes CN(0, 1) samples of the real and imaginary parts so drawn in place,
 * each part times 1 / d.  Both multiplies by a reciprocal have the bits of
 * numpy's complex division by d + 0i on finite nonzero parts, as numpy
 * computes (re + im*0) * (1/d) there.
 * fpmimo/_core.py compiles this file on first use, with numpy's include
 * directory and linked to libnpyrandom.a, and loads it with ctypes; it must
 * be built with -ffp-contract=off, so that no product and sum fuse into one
 * rounding unless an fma() says so, and with -pthread, as the elementwise
 * entries, fp_dot, fp_gram and fp_norm split their lanes across threads
 * (split_lanes) with the bits of one thread, and fp_normal its pieces and
 * their shift.  It names no -march, so that it loads on any x86-64: the one
 * fma() it calls, in fp_norm's row sum, is compiled twice there
 * (FMA_CLONES), as the FMA instruction and as libm's fma, which give the
 * same bits, as both are correctly rounded, and the loader picks one for the
 * CPU once.
 *
 * Nearest-even works on the bit pattern.  Zero, subnormal, infinite and NaN
 * inputs (exponent field 0 or 0x7ff) take the frexp/ldexp/rint formula
 * instead, and stochastic rounding always does: with a uniform u in [0, 1)
 * it rounds the scaled significand s up when u < s - floor(s).  The strict
 * IEEE range mode then clamps magnitudes above x_max to +-x_max and flushes
 * nonzero magnitudes below x_min to +0.0.
 */

#define _GNU_SOURCE /* sched_getaffinity */
#include <math.h>
#include <pthread.h>
#include <sched.h>
#include <stdint.h>
#include <string.h>

#include "numpy/random/bitgen.h"

typedef struct {
    int t;        /* significand bits, implicit bit included; 53 is the carrier */
    int strict;   /* nonzero: clamp and flush to [x_min, x_max] */
    double x_min; /* smallest positive normal number */
    double x_max; /* largest finite number */
} fmt_t;

static double frexp_round(double x, int t, const double *u)
{
    int e;
    double s = ldexp(frexp(x, &e), t);
    if (u) {
        double lo = floor(s);
        s = *u < s - lo ? lo + 1.0 : lo; /* not lo + 0.0, which turns -0 into +0 */
    } else {
        s = rint(s);
    }
    return ldexp(s, e - t);
}

#define ALWAYS_INLINE static inline __attribute__((always_inline))

/* A format with the masks of its nearest-even bit rounding worked out. */
typedef struct {
    fmt_t f;
    uint64_t half; /* half an ulp of the target, less one carrier ulp */
    uint64_t lsb;  /* the target's last significand bit */
    uint64_t keep; /* the target's significand bits */
} rounder_t;

static rounder_t rounder(const fmt_t *f)
{
    rounder_t r = {*f, 0, 0, ~(uint64_t)0};
    if (f->t < 53) {
        int drop = 53 - f->t;
        r.half = ((uint64_t)1 << (drop - 1)) - 1;
        r.lsb = (uint64_t)1 << drop;
        r.keep = ~(r.lsb - 1);
    }
    return r;
}

ALWAYS_INLINE double round_to(double x, const rounder_t *r, const double *u)
{
    if (u) {
        x = frexp_round(x, r->f.t, u);
    } else if (r->f.t < 53) {
        uint64_t b;
        memcpy(&b, &x, sizeof b);
        unsigned ex = (unsigned)(b >> 52) & 0x7ff;
        if (ex == 0 || ex == 0x7ff) {
            x = frexp_round(x, r->f.t, NULL);
        } else {
            b = (b + r->half + ((b & r->lsb) != 0)) & r->keep;
            memcpy(&x, &b, sizeof x);
        }
    }
    if (r->f.strict) {
        double a = fabs(x);
        if (a > r->f.x_max)
            return x > 0 ? r->f.x_max : -r->f.x_max;
        if (a < r->f.x_min && x != 0.0)
            return 0.0;
    }
    return x;
}

/* the double at byte offset k of p */
ALWAYS_INLINE double load(const char *p, int64_t k)
{
    double v;
    memcpy(&v, p + k, sizeof v);
    return v;
}

/* the double at byte offset k of p set to v */
ALWAYS_INLINE void store(char *p, int64_t k, double v)
{
    memcpy(p + k, &v, sizeof v);
}

/* Lanes across threads.  split_lanes cuts the lanes [0, L) of a call into
 * at most `threads` contiguous ranges and runs each on its own thread, the
 * caller taking the first.  A lane reads its inputs and uniforms and writes
 * its output at offsets fixed by its index alone, so every split gives the
 * bits of one thread.  `threads` is the number of CPUs the process may run on
 * when the library loads, at most MAX_THREADS.  A call runs on one thread for
 * each whole MIN_WORK of its work (lanes times terms), at least one, so that
 * small calls start no thread.  fp_chol and fp_trisolve do not split. */
#define MAX_THREADS 8
#define MIN_WORK ((int64_t)1 << 15)

static int64_t threads = 1;

__attribute__((constructor)) static void count_threads(void)
{
    cpu_set_t cpus;
    if (sched_getaffinity(0, sizeof cpus, &cpus) == 0) {
        int n = CPU_COUNT(&cpus);
        threads = n < 1 ? 1 : n > MAX_THREADS ? MAX_THREADS : n;
    }
}

/* *out = the most threads one call runs on */
void fp_threads(int64_t *out)
{
    *out = threads;
}

/* runs a call's lanes [lo, hi); job holds the call's arguments */
typedef void (*range_fn)(const void *job, int64_t lo, int64_t hi);

typedef struct {
    range_fn fn;
    const void *job;
    int64_t lo, hi;
} range_t;

static void *run_range(void *arg)
{
    const range_t *r = arg;
    r->fn(r->job, r->lo, r->hi);
    return NULL;
}

/* fn over the lanes [0, L) in contiguous ranges, one per thread.  A range
 * whose thread does not start runs on the caller. */
static void split_lanes(int64_t L, int64_t work, range_fn fn, const void *job)
{
    int64_t T = work / MIN_WORK;
    T = T < threads ? T : threads;
    T = T < L ? T : L;
    if (T < 2) {
        if (L > 0)
            fn(job, 0, L);
        return;
    }
    range_t r[MAX_THREADS];
    pthread_t tid[MAX_THREADS];
    int started[MAX_THREADS] = {0};
    for (int64_t t = 0; t < T; t++)
        r[t] = (range_t){fn, job, L * t / T, L * (t + 1) / T};
    for (int64_t t = 1; t < T; t++)
        started[t] = pthread_create(&tid[t], NULL, run_range, &r[t]) == 0;
    fn(job, r[0].lo, r[0].hi);
    for (int64_t t = 1; t < T; t++) {
        if (started[t])
            pthread_join(tid[t], NULL);
        else
            fn(job, r[t].lo, r[t].hi);
    }
}

/* A walk over the lanes of an ndim-dimensional shape in C order, with the
 * byte offsets oa and od of the current lane in two arrays of lane strides
 * sa and sd.  walk_to starts it at lane l, which must exist. */
typedef struct {
    int64_t ndim;
    const int64_t *shape, *sa, *sd;
    int64_t idx[64], oa, od;
} walk_t;

ALWAYS_INLINE void walk_to(walk_t *w, int64_t l)
{
    w->oa = w->od = 0;
    for (int64_t k = w->ndim - 1; k >= 0; k--) {
        w->idx[k] = l % w->shape[k];
        l /= w->shape[k];
        w->oa += w->idx[k] * w->sa[k];
        w->od += w->idx[k] * w->sd[k];
    }
}

/* the walk moved on by r lanes, r no more than the lanes left in the row */
ALWAYS_INLINE void walk_by(walk_t *w, int64_t r)
{
    int64_t k = w->ndim - 1;
    if (k < 0)
        return;
    w->idx[k] += r;
    w->oa += r * w->sa[k];
    w->od += r * w->sd[k];
    for (; k > 0 && w->idx[k] == w->shape[k]; k--) {
        w->idx[k] = 0;
        w->oa -= w->shape[k] * w->sa[k];
        w->od -= w->shape[k] * w->sd[k];
        w->idx[k - 1]++;
        w->oa += w->sa[k - 1];
        w->od += w->sd[k - 1];
    }
}

/* The arguments of an fp_round call: its lanes, one per entry, walk x. */
typedef struct {
    walk_t w;
    const char *x;
    int64_t n;
    rounder_t r;
    const double *u;
    double *out;
    int64_t *found;
} elem_t;

/* The lanes [lo, hi) rounded into out, with fp_round's check unless found is
 * NULL.  Under the strict range, which clamps an infinity to x_max, it reads
 * x; else the rounded parts, each not finite where x's is not.  It costs a
 * rounding pass about a tenth of its time, so it is made only when asked. */
ALWAYS_INLINE void round_lanes(const elem_t *m, const double *u, int parts, int64_t lo, int64_t hi)
{
    const rounder_t r = m->r;
    const int64_t n = m->n, k = m->w.ndim - 1, step = k < 0 ? 0 : m->w.sa[k];
    double *out = m->out;
    int bad = 0;
    const int check = m->found != NULL, strict = r.f.strict;
    walk_t w = m->w;
    walk_to(&w, lo);
    /* in runs along the last axis */
    for (int64_t i = lo, run; i < hi; walk_by(&w, run)) {
        run = k < 0 ? 1 : w.shape[k] - w.idx[k];
        if (run > hi - i)
            run = hi - i;
        const char *p = m->x + w.oa;
        for (int64_t end = i + run; i < end; i++, p += step) {
            const double xr = load(p, 0), re = round_to(xr, &r, u ? u + i : NULL);
            if (parts == 1) {
                out[i] = re;
                if (check)
                    bad |= !isfinite(strict ? xr : re);
                continue;
            }
            const double xi = load(p, 8), im = round_to(xi, &r, u ? u + n + i : NULL);
            out[2 * i] = re;
            out[2 * i + 1] = im;
            if (check)
                bad |= strict ? !(isfinite(xr) & isfinite(xi)) : !(isfinite(re) & isfinite(im));
        }
    }
    if (bad)
        __atomic_store_n(m->found, 1, __ATOMIC_RELAXED);
}

/* four copies, so that each has only its own branches */
static void round_real_nearest(const void *job, int64_t lo, int64_t hi)
{
    round_lanes(job, NULL, 1, lo, hi);
}

static void round_real_stochastic(const void *job, int64_t lo, int64_t hi)
{
    round_lanes(job, ((const elem_t *)job)->u, 1, lo, hi);
}

static void round_complex_nearest(const void *job, int64_t lo, int64_t hi)
{
    round_lanes(job, NULL, 2, lo, hi);
}

static void round_complex_stochastic(const void *job, int64_t lo, int64_t hi)
{
    round_lanes(job, ((const elem_t *)job)->u, 2, lo, hi);
}

/* out = fl(x) entry by entry, for the n entries of an ndim-dimensional array
 * x of float64 (parts = 1) or complex128 (parts = 2), walked in C order, into
 * the C-contiguous out of the same type; geom holds x's shape (ndim entries),
 * then its byte strides.  A complex entry is fl(Re x_i) + i fl(Im x_i), so a
 * part that rounding keeps, a signed zero included, is copied bit for bit.
 * u is NULL for nearest-even, else it holds parts * n uniforms: one per
 * part, the real parts taking the first n and any imaginary parts the last
 * n.  Unless found is NULL, *found is set to 1 if
 * some part of out, or under the strict range of x, is not finite, so that
 * one pass rounds an operand and checks it. */
void fp_round(int64_t ndim, const int64_t *geom, int64_t parts, const char *x, double *out,
              const fmt_t *f, const double *u, int64_t *found)
{
    const range_fn fn = parts == 1 ? (u ? round_real_stochastic : round_real_nearest)
                                   : (u ? round_complex_stochastic : round_complex_nearest);
    elem_t m = {.w = {.ndim = ndim, .shape = geom, .sa = geom + ndim, .sd = geom + ndim}, .x = x,
                .n = 1, .r = rounder(f), .u = u, .out = out, .found = found};
    for (int64_t k = 0; k < ndim; k++)
        m.n *= geom[k];
    split_lanes(m.n, m.n, fn, &m);
}

/* The arguments of fp_cn: n complex128 entries at z, scaled by s = 1 / d. */
typedef struct {
    double *z;
    double s;
} cn_t;

static void cn_range(const void *job, int64_t lo, int64_t hi)
{
    const cn_t *c = job;
    for (int64_t i = 2 * lo; i < 2 * hi; i++)
        c->z[i] *= c->s;
}

/* In place on the n complex128 entries z_i = re + i im, whose parts are
 * standard normals: z_i = re s + i im s with s = 1 / d, which on finite
 * nonzero parts has the bits of numpy's (1j*im + re) / d.  d = sqrt(2) gives
 * CN(0, 1) samples. */
void fp_cn(int64_t n, double *z, double d)
{
    const cn_t c = {z, 1.0 / d};
    split_lanes(n, n, cn_range, &c);
}

typedef struct {
    rounder_t lo, hi;
    int64_t b, g, lanes;
} plan_t;

/* The running sums of one real expansion: of the current block, and of the
 * blocks so far.  p is the position in the block, blk the block's index. */
typedef struct {
    double blk, sum;
} acc_t;

/* fl(x) in r, as round_to has it; in the carrier loop x itself, which is
 * round_to's result when r is the carrier, nearest-even and unbounded */
ALWAYS_INLINE double fl_dot(double x, const rounder_t *r, const double *u, int carrier)
{
    return carrier ? x : round_to(x, r, u);
}

/* t added to s at position p of block blk, b being the plan's block size */
ALWAYS_INLINE void add_term(acc_t *s, double t, int64_t p, int64_t blk, int64_t l, int64_t b,
                            const plan_t *pl, const double *u, int carrier)
{
    if (p == 0)
        s->blk = t;
    else
        s->blk = fl_dot(s->blk + t, &pl->lo,
                        u ? u + ((p - 1) * pl->lanes + l) * pl->g + blk : NULL, carrier);
    if (p == b - 1) {
        if (blk == 0)
            s->sum = s->blk;
        else
            s->sum = fl_dot(s->sum + s->blk, &pl->hi,
                            u ? u + ((b - 1) * pl->g + blk - 1) * pl->lanes + l : NULL,
                            carrier);
    }
}

/* x with the sign bits in mask flipped: -x, exactly as np.conj negates, NaN
 * included, for mask = the sign bit, and x for mask = 0 */
ALWAYS_INLINE double flip(double x, uint64_t mask)
{
    uint64_t b;
    memcpy(&b, &x, sizeof b);
    b ^= mask;
    memcpy(&x, &b, sizeof x);
    return x;
}

/* The arguments of an fp_dot call: its lanes walk a and d. */
typedef struct {
    walk_t w;
    int64_t n;
    const char *a, *d;
    plan_t pl;
    const double *u;
    int upper;
    uint64_t conj; /* the sign bit, to flip the imaginary part of a, or 0 */
    double *out;
} dot_t;

/* The lanes [lo, hi) of job, whose block size is b: pl.b, or a constant 1
 * where the plan's is 1, so that the block bookkeeping folds away. */
ALWAYS_INLINE void dot_lanes(const dot_t *job, const double *u, int carrier, int64_t b,
                             int64_t lo, int64_t hi)
{
    const plan_t pl = job->pl;
    const int64_t n = job->n, ndim = job->w.ndim, ta = job->w.sa[ndim], td = job->w.sd[ndim];
    int64_t prod = pl.lanes * n;
    int64_t steps = ((b - 1) * pl.g + pl.g - 1) * pl.lanes;
    const double *ue = u ? u + 4 * prod : NULL, *uf = u ? ue + steps : NULL;
    double *out = job->out;
    walk_t w = job->w;

    walk_to(&w, lo);
    for (int64_t l = lo; l < hi; l++, walk_by(&w, 1)) {
        if (job->upper && w.idx[ndim - 2] > w.idx[ndim - 1]) {
            out[2 * l] = out[2 * l + 1] = 0.0;
            continue;
        }
        const char *pa = job->a + w.oa, *pd = job->d + w.od;
        acc_t e = {0.0, 0.0}, f = {0.0, 0.0};
        int64_t p = 0, blk = 0;
        for (int64_t i = 0; i < n; i++) {
            const char *ai = pa + i * ta, *di = pd + i * td;
            double ar = load(ai, 0), aim = flip(load(ai, 8), job->conj);
            double dr = load(di, 0), dim = load(di, 8);
            const double *up = u ? u + l * n + i : NULL;
            double e0 = fl_dot(ar * dr, &pl.lo, up, carrier);
            double e1 = -fl_dot(aim * dim, &pl.lo, up ? up + prod : NULL, carrier);
            double f0 = fl_dot(ar * dim, &pl.lo, up ? up + 2 * prod : NULL, carrier);
            double f1 = fl_dot(aim * dr, &pl.lo, up ? up + 3 * prod : NULL, carrier);
            add_term(&e, e0, p, blk, l, b, &pl, ue, carrier);
            add_term(&f, f0, p, blk, l, b, &pl, uf, carrier);
            if (++p == b) {
                p = 0;
                blk++;
            }
            add_term(&e, e1, p, blk, l, b, &pl, ue, carrier);
            add_term(&f, f1, p, blk, l, b, &pl, uf, carrier);
            if (++p == b) {
                p = 0;
                blk++;
            }
        }
        for (; blk < pl.g; p = 0, blk++)
            for (; p < b; p++) {
                add_term(&e, 0.0, p, blk, l, b, &pl, ue, carrier);
                add_term(&f, 0.0, p, blk, l, b, &pl, uf, carrier);
            }
        out[2 * l] = e.sum;
        out[2 * l + 1] = f.sum;
    }
}

/* five copies, so that the nearest-even ones have no stochastic branches,
 * the carrier ones no rounding at all, and the b = 1 ones (uniform policies,
 * and mixed ones with b = 1) no block bookkeeping */
static void dot_nearest(const void *job, int64_t lo, int64_t hi)
{
    dot_lanes(job, NULL, 0, ((const dot_t *)job)->pl.b, lo, hi);
}

static void dot_nearest1(const void *job, int64_t lo, int64_t hi)
{
    dot_lanes(job, NULL, 0, 1, lo, hi);
}

static void dot_stochastic(const void *job, int64_t lo, int64_t hi)
{
    dot_lanes(job, ((const dot_t *)job)->u, 0, ((const dot_t *)job)->pl.b, lo, hi);
}

static void dot_carrier(const void *job, int64_t lo, int64_t hi)
{
    dot_lanes(job, NULL, 1, ((const dot_t *)job)->pl.b, lo, hi);
}

static void dot_carrier1(const void *job, int64_t lo, int64_t hi)
{
    dot_lanes(job, NULL, 1, 1, lo, hi);
}

/* out = sum_i a_i d_i over the last axis of two complex128 arrays
 * broadcast to one shape (lanes..., n), every product and partial sum rounded.
 *
 * geom holds the lane shape (ndim entries), then a's byte strides and then
 * d's (ndim + 1 entries each, the term axis last).  Each lane expands its sum
 * into the real terms e = (Re a Re d, -Im a Im d, ...) and f = (Re a Im d,
 * Im a Re d, ...), whose products round in lo; the negation follows the
 * rounding.  The 2n terms of e, padded with +0.0 to whole blocks of b, are
 * summed in order within each block, rounding in lo, and the block sums are
 * added in order, rounding in hi; f likewise.  A sequential sum in one format
 * is b = 1 with hi = lo.  Lane l's sums e + i f go to the complex128 out[l].
 * When lo and hi are both the carrier (t = 53) unbounded and u is NULL,
 * rounding keeps every value, so the call runs dot_carrier,
 * the same loop in the same order, +0.0 padding included, with no round_to:
 * the fp64 reference of the harness at the cost of a plain fp64 sum.  With
 * b = 1 and u NULL it runs dot_nearest1 or dot_carrier1, the same loop with
 * b a constant.
 *
 * u is NULL for nearest-even.  Else it holds the uniforms of the whole call,
 * laid out in the order of an elementwise evaluation over all lanes (L of
 * them, g = ceil(2n / b) blocks each): the products e0, e1, f0, f1 (L * n
 * each, lane-major), then the steps of e (the b - 1 in-block steps, each over
 * L * g lane-major block sums, then the g - 1 block steps, each over L
 * lanes), then those of f.
 *
 * With upper nonzero the lanes below the diagonal of the last two lane axes
 * (index i > j there) are not reduced and come out 0; their uniforms keep
 * their place in u, unread.  With conj nonzero the sum is of conj(a_i) d_i,
 * the sign of each loaded Im a_i flipped (flip), which has the bits of the
 * sum on np.conj(a). */
void fp_dot(int64_t ndim, const int64_t *geom, int64_t n,
            const char *a, const char *d,
            const fmt_t *lo, const fmt_t *hi, int64_t b,
            const double *u, int upper, int conj, double *out)
{
    dot_t job = {.w = {.ndim = ndim, .shape = geom, .sa = geom + ndim, .sd = geom + 2 * ndim + 1},
                 .n = n, .a = a, .d = d, .pl = {rounder(lo), rounder(hi), b, (2 * n + b - 1) / b, 1},
                 .u = u, .upper = upper, .conj = conj ? (uint64_t)1 << 63 : 0, .out = out};
    for (int64_t k = 0; k < ndim; k++)
        job.pl.lanes *= geom[k];
    const int carrier = lo->t == 53 && !lo->strict && hi->t == 53 && !hi->strict;
    const range_fn fn = u         ? dot_stochastic
                        : carrier ? (b == 1 ? dot_carrier1 : dot_carrier)
                                  : (b == 1 ? dot_nearest1 : dot_nearest);
    split_lanes(job.pl.lanes, job.pl.lanes * n, fn, &job);
}

/* The uniforms of a factorization or a solve over L lanes: one block of L per
 * rounding step, the blocks in the order of the steps, lane l reading entry l
 * of each.  u points at the lane's entry of the next block, or is NULL for
 * nearest-even. */
typedef struct {
    const double *u;
    int64_t L;
} draws_t;

/* fl(x), one step */
ALWAYS_INLINE double fl(double x, const rounder_t *r, draws_t *s)
{
    const double *u = s->u;
    if (u)
        s->u += s->L;
    return round_to(x, r, u);
}

/* out = (ar + i ai)(dr + i di) as fp_dot's one-term reduction with b = 1: the
 * products e0 = fl(ar dr), e1 = -fl(ai di), f0 = fl(ar di), f1 = fl(ai dr),
 * then fl(e0 + e1) and fl(f0 + f1); six steps in that order. */
ALWAYS_INLINE void cmul_to(double ar, double ai, double dr, double di,
                           const rounder_t *r, draws_t *s, double *out)
{
    double e0 = fl(ar * dr, r, s);
    double e1 = -fl(ai * di, r, s);
    double f0 = fl(ar * di, r, s);
    double f1 = fl(ai * dr, r, s);
    out[0] = fl(e0 + e1, r, s);
    out[1] = fl(f0 + f1, r, s);
}

/* (tr, ti) = (fl(tr - Re p), fl(ti - Im p)) for the complex128 p: two steps,
 * the real part first */
ALWAYS_INLINE void sub_to(double *tr, double *ti, const double *p,
                          const rounder_t *r, draws_t *s)
{
    *tr = fl(*tr - p[0], r, s);
    *ti = fl(*ti - p[1], r, s);
}

/* out = fl(tr / d) + i fl(ti / d): two steps, the real part first */
ALWAYS_INLINE void div_to(double tr, double ti, double d, const rounder_t *r,
                          draws_t *s, double *out)
{
    out[0] = fl(tr / d, r, s);
    out[1] = fl(ti / d, r, s);
}

/* the parts of entry (i, k) of a K x K complex128 matrix m */
#define RE(m, i, k) ((m)[2 * ((i) * K + (k))])
#define IM(m, i, k) ((m)[2 * ((i) * K + (k)) + 1])

ALWAYS_INLINE void chol_lanes(int64_t L, int64_t K, const double *c, const rounder_t *r,
                              const double *u, double *rr, int64_t *broken)
{
    for (int64_t l = 0; l < L; l++) {
        const double *C = c + 2 * K * K * l;
        double *R = rr + 2 * K * K * l, p[2];
        draws_t s = {u ? u + l : NULL, L};
        memset(R, 0, 2 * K * K * sizeof *R);
        broken[l] = K;
        for (int64_t j = 0; j < K; j++) {
            double acc = RE(C, j, j);
            for (int64_t k = 0; k < j; k++) {
                double re2 = fl(RE(R, k, j) * RE(R, k, j), r, &s);
                double im2 = fl(IM(R, k, j) * IM(R, k, j), r, &s);
                acc = fl(acc - fl(re2 + im2, r, &s), r, &s);
            }
            if (acc <= 0) {
                if (broken[l] == K)
                    broken[l] = j;
                acc = 1.0;
            }
            double rjj = fl(sqrt(acc), r, &s);
            RE(R, j, j) = rjj;
            for (int64_t i = j + 1; i < K; i++) {
                double tr = RE(C, j, i), ti = IM(C, j, i);
                for (int64_t k = 0; k < j; k++) {
                    cmul_to(RE(R, k, j), -IM(R, k, j), RE(R, k, i), IM(R, k, i), r, &s, p);
                    sub_to(&tr, &ti, p, r, &s);
                }
                div_to(tr, ti, rjj, r, &s, &RE(R, j, i));
            }
        }
    }
}

/* The Cholesky factors C = R^H R of L Hermitian K x K complex128 matrices c
 * (lane-major), computed row by row with every operation rounded in f, into
 * the complex128 r: upper triangular with a real diagonal, zero below it.
 * Only the upper triangle of c and the real part of its diagonal are read.
 *
 * Row j's pivot starts from acc = Re C_jj; for k < j in order, with
 * (a, b) = R_kj, acc = fl(acc - fl(fl(a a) + fl(b b))); R_jj = fl(sqrt(acc)).
 * A pivot whose acc is not positive is fl(sqrt(1.0)), and broken[l] is the
 * first column of lane l where that happened, K if none.  Then for i > j,
 * t = C_ji, less conj(R_kj) R_ki for k < j in order (cmul_to, then sub_to),
 * and R_ji = fl(t / R_jj) by parts (div_to).
 *
 * u is NULL for nearest-even.  Else it holds a block of L uniforms for each
 * step, in the order just given: for row j, the four steps of each k of
 * acc, then the pivot's one, then for each i > j the eight of each k (six
 * for the product, two for the difference) and the two of the quotient. */
void fp_chol(int64_t L, int64_t K, const double *c, const fmt_t *f,
             const double *u, double *r, int64_t *broken)
{
    const rounder_t rd = rounder(f);
    if (u)
        chol_lanes(L, K, c, &rd, u, r, broken);
    else
        chol_lanes(L, K, c, &rd, NULL, r, broken);
}

ALWAYS_INLINE void trisolve_lanes(int64_t L, int64_t K, int upper, const double *rr,
                                  const double *b, const rounder_t *r, const double *u,
                                  double *x)
{
    for (int64_t l = 0; l < L; l++) {
        const double *R = rr + 2 * K * K * l, *B = b + 2 * K * l;
        double *X = x + 2 * K * l, p[2];
        draws_t s = {u ? u + l : NULL, L};
        for (int64_t n = 0; n < K; n++) {
            int64_t i = upper ? K - 1 - n : n;
            double tr = 0.0 + B[2 * i], ti = 0.0 + B[2 * i + 1];
            for (int64_t k = upper ? i + 1 : 0; k < (upper ? K : i); k++) {
                if (upper)
                    cmul_to(RE(R, i, k), IM(R, i, k), X[2 * k], X[2 * k + 1], r, &s, p);
                else
                    cmul_to(RE(R, k, i), -IM(R, k, i), X[2 * k], X[2 * k + 1], r, &s, p);
                sub_to(&tr, &ti, p, r, &s);
            }
            div_to(tr, ti, RE(R, i, i), r, &s, X + 2 * i);
        }
    }
}

/* Solve T x = b for each of L lanes (lane-major) of a K x K upper triangular
 * complex128 factor r with a real diagonal and a complex128 right side b,
 * every operation rounded in f, into the complex128 x.  T is r itself (back
 * substitution, rows K-1 down to 0) when upper is nonzero, else r^H (forward
 * substitution, rows 0 up to K-1).  Row i starts from t = 0.0 + b_i, less
 * T_ik x_k for the solved k in ascending order (cmul_to, then sub_to), and
 * x_i = fl(t / Re r_ii) by parts (div_to).
 *
 * u is NULL for nearest-even.  Else it holds a block of L uniforms for each
 * step, in the order just given: for each row, the eight of each k and the
 * two of the quotient. */
void fp_trisolve(int64_t L, int64_t K, int upper, const double *r, const double *b,
                 const fmt_t *f, const double *u, double *x)
{
    const rounder_t rd = rounder(f);
    if (u)
        trisolve_lanes(L, K, upper, r, b, &rd, u, x);
    else
        trisolve_lanes(L, K, upper, r, b, &rd, NULL, x);
}

/* The arguments of an fp_gram call. */
typedef struct {
    int64_t M, K, N;
    const double *a, *b;
    double *g;
} gram_t;

static void gram_range(const void *job, int64_t lo, int64_t hi)
{
    const gram_t *j = job;
    const int64_t M = j->M, K = j->K, N = j->N;
    for (int64_t l = lo; l < hi; l++) {
        const double *A = j->a + 2 * M * K * l, *B = j->b + 2 * M * N * l;
        double *restrict G = j->g + 2 * K * N * l;
        if (K == 1 && N == 1) { /* one entry: its sums in registers, m innermost */
            double re = 0.0, im = 0.0;
            for (int64_t m = 0; m < M; m++) {
                const double ar = A[2 * m], ai = -A[2 * m + 1], br = B[2 * m], bi = B[2 * m + 1];
                re = re + (ar * br - ai * bi);
                im = im + (ar * bi + ai * br);
            }
            G[0] = re;
            G[1] = im;
            continue;
        }
        for (int64_t i = 0; i < 2 * K * N; i++)
            G[i] = 0.0;
        for (int64_t m = 0; m < M; m++) {
            const double *am = A + 2 * K * m, *bm = B + 2 * N * m;
            for (int64_t k = 0; k < K; k++) {
                const double ar = am[2 * k], ai = -am[2 * k + 1];
                double *restrict gk = G + 2 * N * k;
                for (int64_t n = 0; n < N; n++) {
                    const double br = bm[2 * n], bi = bm[2 * n + 1];
                    gk[2 * n] = gk[2 * n] + (ar * br - ai * bi);
                    gk[2 * n + 1] = gk[2 * n + 1] + (ar * bi + ai * br);
                }
            }
        }
    }
}

/* g = a^H b in plain fp64, nothing rounded to a target format, for L lanes
 * (lane-major) of C-contiguous complex128 blocks a (M x K) and b (M x N), into
 * the complex128 K x N blocks g, with the bits of numpy's contraction
 * "...mk,...ml->...kl" of a.conj() and b.  Entry (k, n) starts from
 * re = im = 0.0; then for m in order, with ar = Re a_mk, ai = -Im a_mk,
 * br = Re b_mn and bi = Im b_mn, re = re + (ar br - ai bi) and
 * im = im + (ar bi + ai br).  A NaN operand gives a NaN entry, but its sign
 * and payload are the compiler's, not numpy's: no caller passes a NaN (the
 * channels are drawn, and a transceiver's operands are checked on entry),
 * and a CSV prints any NaN as nan.  A one-entry block (K = N = 1, the MISO
 * rate terms h^H s) keeps its two sums in registers and runs m innermost;
 * larger blocks run m outermost, which is faster there (at K = N = 4, m
 * innermost took a quarter longer).  The lanes split like fp_dot's, with
 * work L M K N. */
void fp_gram(int64_t L, int64_t M, int64_t K, int64_t N, const double *a, const double *b,
             double *g)
{
    const gram_t job = {M, K, N, a, b, g};
    split_lanes(L, L * M * K * N, gram_range, &job);
}

/* |x|^2 of the complex128 at p as (x.conj() * x).real has it where numpy's
 * complex multiply fuses a product into its sum, as on x86-64 with FMA:
 * Re x Re x less (-Im x) Im x, in one rounding. */
ALWAYS_INLINE double abs2(const double *p)
{
    return fma(p[0], p[0], p[1] * p[1]);
}

/* pairwise_abs2 twice on x86-64: with FMA, where fma() is the vfmadd
 * instruction, and by default, where it is libm's, with the same bits */
#if defined(__x86_64__) && defined(__GNUC__)
#define FMA_CLONES __attribute__((target_clones("fma", "default")))
#else
#define FMA_CLONES
#endif

/* The sum of abs2 over the n complex128 entries at p, in the order of numpy's
 * pairwise add.reduce (pairwise_sum of its loops): fewer than 8 terms in
 * order from 0.0; at most 128 in 8 running sums r_j over the terms j mod 8
 * of the whole groups of 8, then ((r0 + r1) + (r2 + r3)) + ((r4 + r5) +
 * (r6 + r7)), then the rest in order; more, the halves split at n / 2
 * rounded down to a multiple of 8, added. */
FMA_CLONES static double pairwise_abs2(const double *p, int64_t n)
{
    if (n < 8) {
        double res = 0.0;
        for (int64_t i = 0; i < n; i++)
            res += abs2(p + 2 * i);
        return res;
    }
    if (n <= 128) {
        double r[8];
        int64_t i;
        for (int64_t j = 0; j < 8; j++)
            r[j] = abs2(p + 2 * j);
        for (i = 8; i < n - n % 8; i += 8)
            for (int64_t j = 0; j < 8; j++)
                r[j] += abs2(p + 2 * (i + j));
        double res = ((r[0] + r[1]) + (r[2] + r[3])) + ((r[4] + r[5]) + (r[6] + r[7]));
        for (; i < n; i++)
            res += abs2(p + 2 * i);
        return res;
    }
    int64_t n2 = n / 2;
    n2 -= n2 % 8;
    return pairwise_abs2(p, n2) + pairwise_abs2(p + 2 * n2, n - n2);
}

/* The arguments of an fp_norm call. */
typedef struct {
    int64_t n;
    const double *x;
    double *out, *unit;
} norm_t;

static void norm_range(const void *job, int64_t lo, int64_t hi)
{
    const norm_t *j = job;
    for (int64_t l = lo; l < hi; l++) {
        const double *x = j->x + 2 * j->n * l;
        const double d = sqrt(0.0 + pairwise_abs2(x, j->n));
        j->out[l] = d;
        if (j->unit) { /* while the lane is in cache */
            const double s = 1.0 / d;
            double *u = j->unit + 2 * j->n * l;
            for (int64_t i = 0; i < 2 * j->n; i++)
                u[i] = x[i] * s;
        }
    }
}

/* out[l] = the 2-norm of lane l of L C-contiguous lanes of n complex128
 * terms in fused form: 0.0 plus the pairwise sum of abs2 along the lane
 * (pairwise_abs2), then sqrt.  numpy.linalg's norm(x, axis=-1),
 * sqrt(add.reduce((x.conj() * x).real, axis=-1)), has these bits where its
 * complex multiply fuses.  Unless unit is NULL, lane l of the complex128
 * unit, laid out as x and possibly x itself, is then x's lane, each part
 * times 1 / out[l]: on finite nonzero parts, the bits of numpy's division by
 * out[l] + 0i.  A zero norm gives infinities, and NaN for a zero part.  The
 * lanes split like fp_gram's, with work L n. */
void fp_norm(int64_t L, int64_t n, const double *x, double *out, double *unit)
{
    const norm_t job = {n, x, out, unit};
    split_lanes(L, L * n, norm_range, &job);
}

/* Standard normals with the bits of numpy's Generator.standard_normal on a
 * PCG64.  The ziggurat is numpy's own, random_standard_normal of its C API
 * (libnpyrandom.a; declared here, as numpy/random/distributions.h needs
 * Python.h).  It takes each word, a 64-bit output of the stream below, by
 * next_uint64 or next_double, and no 32-bit ones, so the bitgen_t passed to
 * it has no next_uint32. */
double random_standard_normal(bitgen_t *bitgen_state);

/* The fast path of that ziggurat, inline.  From a word w, idx = w & 0xff and
 * rabs = (w >> 9) & (2^52 - 1); when rabs < ki[idx] (about 99% of words) the
 * sample is rabs wi[idx], negated when bit 8 of w is set, and takes no other
 * word.  Else numpy's function decodes the sample from w on (the wedges, the
 * tail, its exp and log1p).  numpy's tables are local symbols of its library,
 * so they are read back from its function when the library loads
 * (read_ziggurat); ki[idx] = 0 sends every word of box idx to numpy's path. */
static double zig_wi[256];
static uint64_t zig_ki[256];

#define RABS (((uint64_t)1 << 52) - 1)

/* numpy's next_double from the word w: its top 53 bits times 2^-53 */
ALWAYS_INLINE double word_double(uint64_t w)
{
    return (double)(w >> 11) * (1.0 / 9007199254740992.0);
}

/* The fast-path sample of w, when rabs < ki[idx]: the sign bit XOR bit 8 of
 * w gives the bits of numpy's -x for every x, +-0 included. */
ALWAYS_INLINE double fast_normal(uint64_t w)
{
    return flip((double)(int64_t)((w >> 9) & RABS) * zig_wi[w & 0xff], (w & 0x100) << 55);
}

ALWAYS_INLINE int is_fast(uint64_t w)
{
    return ((w >> 9) & RABS) < zig_ki[w & 0xff];
}

/* A probe of numpy's ziggurat: its first word is w, every later one 2^63
 * (next_double 0.5, which ends any tail or wedge loop; as a word, +0.0) */
typedef struct {
    uint64_t w;
    int64_t words;
} probe_t;

static uint64_t probe_next64(void *st)
{
    probe_t *p = st;
    return p->words++ ? (uint64_t)1 << 63 : p->w;
}

static double probe_next_double(void *st)
{
    return word_double(probe_next64(st));
}

/* numpy's sample from w, and whether it took w alone */
static double probe(uint64_t w, int *alone)
{
    probe_t p = {w, 0};
    bitgen_t b = {&p, probe_next64, NULL, probe_next_double, probe_next64};
    const double x = random_standard_normal(&b);
    *alone = p.words == 1;
    return x;
}

/* The tables read back from numpy's function: ki[idx] is the least rabs at
 * which it takes a second word (2^52 if none), by bisection, and wi[idx] its
 * sample at rabs = 1.  Then each idx is checked at rabs = 0, 1 and ki - 1
 * (those below ki), both signs: numpy's function must take one word and give
 * fast_normal's bits.  On any mismatch every ki is 0, so that every word
 * takes numpy's path. */
__attribute__((constructor)) static void read_ziggurat(void)
{
    int alone, ok = 1;
    for (uint64_t idx = 0; idx < 256; idx++) {
        uint64_t lo = 0, hi = RABS + 1;
        while (lo < hi) {
            const uint64_t mid = lo + (hi - lo) / 2;
            probe(mid << 9 | idx, &alone);
            if (alone)
                lo = mid + 1;
            else
                hi = mid;
        }
        zig_ki[idx] = lo;
        zig_wi[idx] = probe((uint64_t)1 << 9 | idx, &alone);
    }
    for (uint64_t idx = 0; idx < 256; idx++) {
        const uint64_t ki = zig_ki[idx], rabs[3] = {0, 1, ki - 1};
        for (int k = 0; k < 3; k++)
            for (uint64_t sign = 0; sign < 2 && rabs[k] < ki; sign++) {
                const uint64_t w = rabs[k] << 9 | sign << 8 | idx;
                const double want = probe(w, &alone), got = fast_normal(w);
                ok &= alone && memcmp(&want, &got, sizeof want) == 0;
            }
    }
    if (!ok)
        memset(zig_ki, 0, sizeof zig_ki);
}

/* *out = how many of the ziggurat's 256 boxes have the inline fast path: all
 * but those whose ki numpy sets to 0 (its box 1), or none if the load-time
 * check failed */
void fp_ziggurat(int64_t *out)
{
    *out = 0;
    for (int idx = 0; idx < 256; idx++)
        *out += zig_ki[idx] > 0;
}

/* A PCG64 stream as numpy steps it: a 128-bit LCG, then the XSL-RR output of
 * the new state.  pos counts the words taken since the call's entry state. */
typedef struct {
    unsigned __int128 s, inc;
    int64_t pos;
} pcg_t;

#define PCG_MULT (((unsigned __int128)0x2360ed051fc65da4ULL << 64) | 0x4385df649fccf645ULL)

/* the LCG's d steps as one, s -> mult s + plus (O'Neill, HMC-CS-2014-0905) */
static void pcg_jump(unsigned __int128 inc, uint64_t d, unsigned __int128 *mult,
                     unsigned __int128 *plus)
{
    unsigned __int128 m = PCG_MULT, c = inc, acc_mult = 1, acc_plus = 0;
    for (; d; d >>= 1) {
        if (d & 1) {
            acc_mult *= m;
            acc_plus = acc_plus * m + c;
        }
        c = (m + 1) * c;
        m *= m;
    }
    *mult = acc_mult;
    *plus = acc_plus;
}

/* the stream g moved on to word pos */
static pcg_t pcg_at(pcg_t g, int64_t pos)
{
    unsigned __int128 mult, plus;
    pcg_jump(g.inc, (uint64_t)(pos - g.pos), &mult, &plus);
    g.s = mult * g.s + plus;
    g.pos = pos;
    return g;
}

ALWAYS_INLINE uint64_t xsl_rr(unsigned __int128 s)
{
    const uint64_t x = (uint64_t)(s >> 64) ^ (uint64_t)s;
    const unsigned rot = (unsigned)(s >> 122);
    return (x >> rot) | (x << ((64 - rot) & 63));
}

/* The words of a stream, made a block at a time into a buffer on the
 * taker's stack by four interleaved LCG chains, each stepping four words at
 * once (mult M^4, plus c (M^3 + M^2 + M + 1)), so that the chains' 128-bit
 * multiplies overlap.  w[i] is the next word, the stream's word at + i. */
#define WORDS 256

typedef struct {
    unsigned __int128 s[4], mult, plus; /* s[j]: the state of the block's word j */
    int64_t at, i;
    uint64_t w[WORDS];
} words_t;

static words_t words_from(pcg_t g)
{
    words_t b = {.at = g.pos - WORDS, .i = WORDS};
    for (int j = 0; j < 4; j++)
        b.s[j] = g.s = g.s * PCG_MULT + g.inc;
    pcg_jump(g.inc, 4, &b.mult, &b.plus);
    return b;
}

__attribute__((noinline)) static void refill(words_t *b)
{
    unsigned __int128 s0 = b->s[0], s1 = b->s[1], s2 = b->s[2], s3 = b->s[3];
    const unsigned __int128 mult = b->mult, plus = b->plus;
    for (int64_t k = 0; k < WORDS; k += 4) {
        b->w[k] = xsl_rr(s0);
        b->w[k + 1] = xsl_rr(s1);
        b->w[k + 2] = xsl_rr(s2);
        b->w[k + 3] = xsl_rr(s3);
        s0 = s0 * mult + plus;
        s1 = s1 * mult + plus;
        s2 = s2 * mult + plus;
        s3 = s3 * mult + plus;
    }
    b->s[0] = s0, b->s[1] = s1, b->s[2] = s2, b->s[3] = s3;
    b->at += WORDS;
    b->i = 0;
}

ALWAYS_INLINE int64_t taken(const words_t *b)
{
    return b->at + b->i;
}

static uint64_t words_next64(void *st)
{
    words_t *b = st;
    if (b->i == WORDS)
        refill(b);
    return b->w[b->i++];
}

static double words_next_double(void *st)
{
    return word_double(words_next64(st));
}

/* the next sample of b, numpy's function on bg, a bitgen_t over b, when its
 * first word is not on the fast path */
ALWAYS_INLINE double next_normal(words_t *b, bitgen_t *bg)
{
    if (b->i == WORDS)
        refill(b);
    const uint64_t w = b->w[b->i];
    if (!is_fast(w))
        return random_standard_normal(bg);
    b->i++;
    return fast_normal(w);
}

/* numpy's normal draws on *g, into the doubles s bytes apart from out, while
 * they are fewer than n and start before word hi; returns how many it made.
 * The first SYNC samples' start words go to first, when it is not NULL.
 * After those, runs of fast-path words are decoded in a loop of their own,
 * over the block with its index in a register, as each takes one word. */
#define SYNC 16
#define MAX_PIECES 64

static int64_t normals_to(words_t *g, int64_t hi, int64_t n, char *out, int64_t s, int64_t *first)
{
    bitgen_t b = {g, words_next64, NULL, words_next_double, words_next64};
    int64_t k = 0;
    for (; k < SYNC && k < n && taken(g) < hi; k++) {
        if (first)
            first[k] = taken(g);
        store(out, k * s, next_normal(g, &b));
    }
    while (k < n && taken(g) < hi) {
        if (g->i == WORDS)
            refill(g);
        int64_t i = g->i, stop = hi - g->at;
        stop = stop < WORDS ? stop : WORDS;
        stop = stop < i + n - k ? stop : i + n - k;
        char *o = out + k * s;
        for (uint64_t w; i < stop && is_fast(w = g->w[i]); i++, o += s)
            store(o, 0, fast_normal(w));
        k += i - g->i;
        g->i = i;
        if (i < stop)
            store(out, k++ * s, random_standard_normal(&b));
    }
    return k;
}

/* entries [src, src + count) of the doubles s bytes apart from out moved to
 * [dst, dst + count), the two ranges overlapping or not, as memmove moves */
static void move(char *out, int64_t s, int64_t dst, int64_t src, int64_t count)
{
    if (s == sizeof(double))
        memmove(out + dst * s, out + src * s, count * s);
    else if (dst <= src)
        for (int64_t k = 0; k < count; k++)
            store(out, (dst + k) * s, load(out, (src + k) * s));
    else
        for (int64_t k = count - 1; k >= 0; k--)
            store(out, (dst + k) * s, load(out, (src + k) * s));
}

/* One piece of a round: the samples that start in the words [lo, hi) of a
 * stream decoded from word lo, as if a sample started there. */
typedef struct {
    int64_t lo, hi;
    int64_t at;      /* the output entry of the first: hi - lo slots follow, as a
                        sample takes a word or more */
    int64_t count;   /* the samples */
    int64_t end;     /* the word after the last */
    int64_t first[SYNC];
    int64_t src, dst, len; /* in the true chain: its len true samples, from entry
                              src on, belong at the entries from dst on */
} piece_t;

/* The arguments of a round: the stream at a known sample start, its pieces,
 * and the output, its doubles s bytes apart; for the shift, the pieces of
 * the true chain after the first, p[1..m), and the chunks of their
 * destinations, chunk c moving the entries [x[c], y[c]) of [x[c], x[c + 1]). */
typedef struct {
    pcg_t g;
    piece_t *p;
    char *out;
    int64_t s, m;
    int64_t x[MAX_THREADS + 1], y[MAX_THREADS];
} round_t;

static void normal_range(const void *job, int64_t lo, int64_t hi)
{
    const round_t *r = job;
    for (int64_t i = lo; i < hi; i++) {
        piece_t *p = &r->p[i];
        int64_t first[SYNC];
        /* the words on this thread's stack: in shared memory, its updates on
         * every word would contend with the other threads' */
        words_t g = words_from(pcg_at(r->g, p->lo));
        p->count = normals_to(&g, p->hi, p->hi - p->lo, r->out + p->at * r->s, r->s, first);
        p->end = taken(&g);
        memcpy(p->first, first, sizeof first);
    }
}

/* the chain's entries [lo, hi) moved from their samples to the entries from
 * to on */
static void gather(const round_t *r, int64_t lo, int64_t hi, int64_t to)
{
    for (int64_t t = 1; t < r->m; t++) {
        const piece_t *p = &r->p[t];
        const int64_t a = lo > p->dst ? lo : p->dst, b = hi < p->dst + p->len ? hi : p->dst + p->len;
        if (a < b)
            move(r->out, r->s, to + a - lo, p->src + a - p->dst, b - a);
    }
}

/* the first of the chain's entries [lo, hi) whose sample sits at entry hi or
 * after, else hi */
static int64_t first_kept(const round_t *r, int64_t lo, int64_t hi)
{
    for (int64_t t = 1; t < r->m; t++) {
        const piece_t *p = &r->p[t];
        const int64_t a = lo > p->dst ? lo : p->dst, b = hi < p->dst + p->len ? hi : p->dst + p->len;
        const int64_t from = hi - (p->src - p->dst);
        if (a < b && from < b)
            return from > a ? from : a;
    }
    return hi;
}

static void shift_range(const void *job, int64_t lo, int64_t hi)
{
    const round_t *r = job;
    for (int64_t c = lo; c < hi; c++)
        gather(r, r->x[c], r->y[c], r->x[c]);
}

/* The true chain's samples after the first piece's moved into place, split
 * across threads in chunks of their destinations.  A chunk moves its entries
 * in order, each from an entry at or after its own, so it overwrites no
 * entry that it still reads.  The only entries that the next chunk may
 * overwrite before a chunk reads them are the chunk's last ones, whose
 * samples sit at or after the next chunk's first entry: they are copied to
 * the room (room entries from entry room_at, which the round leaves unused)
 * first, and put in place from there once the chunks are done.  When they do
 * not fit, the chunks are fewer, down to one, which keeps none. */
static void shift(round_t *r, int64_t room_at, int64_t room)
{
    if (r->m < 2)
        return;
    const int64_t lo = r->p[1].dst, W = r->p[r->m - 1].dst + r->p[r->m - 1].len - lo;
    int64_t C = W / MIN_WORK < threads ? W / MIN_WORK : threads;
    for (C = C < 1 ? 1 : C;; C--) {
        int64_t kept = 0;
        for (int64_t c = 0; c <= C; c++)
            r->x[c] = lo + W * c / C;
        for (int64_t c = 0; c < C; c++) {
            r->y[c] = c < C - 1 ? first_kept(r, r->x[c], r->x[c + 1]) : r->x[C];
            kept += r->x[c + 1] - r->y[c];
        }
        if (kept <= room)
            break;
    }
    for (int64_t c = 0, k = room_at; c < C; k += r->x[c + 1] - r->y[c], c++)
        gather(r, r->y[c], r->x[c + 1], k);
    split_lanes(C, W, shift_range, r);
    for (int64_t c = 0, k = room_at; c < C; k += r->x[c + 1] - r->y[c], c++)
        move(r->out, r->s, r->y[c], k, r->x[c + 1] - r->y[c]);
}

/* Standard normals split across threads.  Each round cuts the words of all
 * but a sixteenth of the draws still to make, one word for each, into
 * `pieces` contiguous pieces and decodes every piece from its first word, the
 * pieces split across threads as lanes (split_lanes), into the output at the
 * piece's word offset.  Then the caller walks the true chain of samples: the
 * first piece starts at a true sample, so all of its samples are true, and
 * the word after its last is where the next true sample starts.  A piece
 * whose decoding passed that word among its first SYNC samples agrees with
 * the true chain from there on, its samples from there follow the last true
 * one, and the word after its last is the next true start.  Else (about once
 * in 10^4 pieces) the round ends before it, and the next round decodes its
 * words again from the true start.  The chain's samples are then shifted into
 * place on the threads (shift), the sixteenth left over as its room.  A
 * sample takes at least one word, so a round makes no more draws than are
 * wanted, and rounds repeat while the words fill at least MIN_PIECE a piece;
 * the rest are drawn on one thread. */
#define MIN_PIECE ((int64_t)1 << 13)

/* The doubles at byte offsets i * s of out, i < n, = the n standard normals
 * numpy draws from the PCG64 whose state is state[0] << 64 | state[1] and
 * increment state[2] << 64 | state[3], and end[0] << 64 | end[1] = the state
 * it leaves, whatever `pieces` is (clamped to 1..MAX_PIECES). */
void fp_normal(int64_t n, int64_t pieces, const uint64_t *state, char *out, int64_t s,
               uint64_t *end)
{
    const pcg_t e = {(unsigned __int128)state[0] << 64 | state[1],
                     (unsigned __int128)state[2] << 64 | state[3], 0};
    pieces = pieces < 1 ? 1 : pieces > MAX_PIECES ? MAX_PIECES : pieces;
    int64_t done = 0, at = 0; /* the draws made, and the word the next starts at */
    for (;;) {
        const int64_t R = (n - done) - (n - done) / 16; /* the rest is the shift's room */
        if (pieces < 2 || R < pieces * MIN_PIECE)
            break;
        piece_t p[MAX_PIECES];
        for (int64_t t = 0; t < pieces; t++)
            p[t] = (piece_t){.lo = at + R * t / pieces, .hi = at + R * (t + 1) / pieces,
                             .at = done + R * t / pieces};
        round_t r = {.g = pcg_at(e, at), .p = p, .out = out, .s = s, .m = 1};
        split_lanes(pieces, pieces * MIN_WORK, normal_range, &r); /* a thread a piece */
        p[0].src = p[0].dst = done;
        p[0].len = p[0].count;
        for (int64_t t = 1; t < pieces; t++, r.m++) {
            int64_t j = 0, sync = p[t].count < SYNC ? p[t].count : SYNC;
            while (j < sync && p[t].first[j] < p[t - 1].end)
                j++;
            if (j == sync || p[t].first[j] != p[t - 1].end)
                break;
            p[t].src = p[t].at + j;
            p[t].dst = p[t - 1].dst + p[t - 1].len;
            p[t].len = p[t].count - j;
        }
        shift(&r, done + R, n - done - R);
        done = p[r.m - 1].dst + p[r.m - 1].len;
        at = p[r.m - 1].end;
    }
    words_t g = words_from(pcg_at(e, at));
    normals_to(&g, INT64_MAX, n - done, out + done * s, s, NULL);
    const pcg_t last = pcg_at(e, taken(&g));
    end[0] = (uint64_t)(last.s >> 64);
    end[1] = (uint64_t)last.s;
}
