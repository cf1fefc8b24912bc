/* The package's native kernels, in numpy's summation order.
 *
 * repro_sweep_f32 is the level loop of repro.solvers.sweeps.SweepPlan.bind,
 * repro_spmv_f32 the whole-device SpMV of the fused kernels
 * (repro.sparse.sell.DeviceSpmv.run).  Both sum a row's products as
 * np.add.reduceat does: the first product plus numpy's pairwise sum of the
 * rest (pairwise_sum in numpy's loops_utils.h.src), all in float32.  An
 * empty row sums to +0.0.  repro_eval_f32 runs one float32 expression tree
 * of the fused kernels (repro.tensordsl.materialize.F32Program) and sums a
 * segment as ndarray.sum() does, +0.0 plus the pairwise sum of all of it;
 * repro_copy_f32 is an exchange's copy.  repro_run calls the four in the
 * order of a table (repro.solvers.native.Table): one call per fused kernel.
 *
 * Built with -O2 -ftree-vectorize -ffp-contract=off -fno-math-errno and
 * never -ffast-math: a contracted multiply-add or a reassociated sum would
 * change the last bit, and -ffast-math also sets flush-to-zero for the
 * whole process.  Vectorizing a loop cannot change a bit: each lane does
 * the one IEEE operation the scalar loop does.
 */

#include <float.h>
#include <math.h>
#include <stdint.h>
#include <string.h>

#if FLT_EVAL_METHOD != 0
#error "float arithmetic must round to float at every operation"
#endif

static float pairwise(const float *a, int64_t n)
{
    if (n < 8) {
        float res = -0.0f;
        for (int64_t i = 0; i < n; i++)
            res += a[i];
        return res;
    }
    if (n <= 128) {
        float r[8];
        int64_t i;
        for (int j = 0; j < 8; j++)
            r[j] = a[j];
        for (i = 8; i < n - (n % 8); i += 8)
            for (int j = 0; j < 8; j++)
                r[j] += a[i + j];
        float res = ((r[0] + r[1]) + (r[2] + r[3])) + ((r[4] + r[5]) + (r[6] + r[7]));
        for (; i < n; i++)
            res += a[i];
        return res;
    }
    int64_t n2 = n / 2;
    n2 -= n2 % 8;
    return pairwise(a, n2) + pairwise(a + n2, n - n2);
}

/* One level-set sweep.  Per level, all products vals[e] * x[cols[e]] are
 * taken before any row of the level is written (a Gauss-Seidel row reads
 * same-level neighbours, which must still be the old values), then per
 * row: the sum of its products, subtracted from rhs[row], divided by
 * diag[row], written to x[row].  A level without entries subtracts
 * nothing, diag == NULL divides by nothing.
 *
 * level_ptr[levels + 1] indexes rows; entry_ptr[rows + 1] indexes cols and
 * vals; prod holds the largest level's entries. */
void repro_sweep_f32(int64_t levels, const int64_t *level_ptr, const int64_t *rows,
                     const int64_t *entry_ptr, const int64_t *cols, const float *vals,
                     float *x, const float *rhs, const float *diag, float *prod)
{
    for (int64_t k = 0; k < levels; k++) {
        int64_t r0 = level_ptr[k], r1 = level_ptr[k + 1];
        int64_t e0 = entry_ptr[r0], e1 = entry_ptr[r1];
        for (int64_t e = e0; e < e1; e++)
            prod[e - e0] = vals[e] * x[cols[e]];
        for (int64_t i = r0; i < r1; i++) {
            int64_t row = rows[i];
            float acc = rhs[row];
            if (e1 > e0) {
                int64_t a = entry_ptr[i] - e0, b = entry_ptr[i + 1] - e0;
                float sum = b > a ? prod[a] + pairwise(prod + a + 1, b - a - 1) : 0.0f;
                acc = acc - sum;
            }
            if (diag)
                acc = acc / diag[row];
            x[row] = acc;
        }
    }
}

/* A row's sum of v[k] * xfull[c[k]], one RHS column. */
static float row_sum(const int32_t *c, const float *v, int64_t len, const float *xfull,
                     float *prod)
{
    if (len > 8) {
        for (int64_t k = 0; k < len; k++)
            prod[k] = v[k] * xfull[c[k]];
        return prod[0] + pairwise(prod + 1, len - 1);
    }
    if (len == 0)
        return 0.0f;
    float rest = -0.0f;
    for (int64_t k = 1; k < len; k++)
        rest += v[k] * xfull[c[k]];
    return v[0] * xfull[c[0]] + rest;
}

/* row_sum over `count` consecutive rows of `len` entries each, inlined with
 * a constant `len` (1 to 8): each row is straight-line code. */
static inline __attribute__((always_inline)) void
short_rows(int64_t count, const int64_t len, const int32_t *c, const float *v,
           const float *diag, const float *x, const float *xfull, float *y)
{
    for (int64_t i = 0; i < count; i++, c += len, v += len) {
        float rest = -0.0f;
        for (int64_t k = 1; k < len; k++)
            rest += v[k] * xfull[c[k]];
        y[i] = diag[i] * x[i] + (v[0] * xfull[c[0]] + rest);
    }
}

/* One RHS column, by runs of consecutive rows of one length. */
static void spmv_one(int64_t n, const int64_t *row_ptr, const int32_t *cols,
                     const float *vals, const float *diag, const float *x,
                     const float *xfull, float *y, float *prod)
{
    for (int64_t i = 0, end; i < n; i = end) {
        int64_t a = row_ptr[i], len = row_ptr[i + 1] - a;
        for (end = i + 1; end < n && row_ptr[end + 1] - row_ptr[end] == len; end++)
            ;
        const int32_t *c = cols + a;
        const float *v = vals + a, *d = diag + i, *xi = x + i;
        float *yi = y + i;
        int64_t m = end - i;
        switch (len) {
        case 1: short_rows(m, 1, c, v, d, xi, xfull, yi); break;
        case 2: short_rows(m, 2, c, v, d, xi, xfull, yi); break;
        case 3: short_rows(m, 3, c, v, d, xi, xfull, yi); break;
        case 4: short_rows(m, 4, c, v, d, xi, xfull, yi); break;
        case 5: short_rows(m, 5, c, v, d, xi, xfull, yi); break;
        case 6: short_rows(m, 6, c, v, d, xi, xfull, yi); break;
        case 7: short_rows(m, 7, c, v, d, xi, xfull, yi); break;
        case 8: short_rows(m, 8, c, v, d, xi, xfull, yi); break;
        default:
            for (int64_t r = 0; r < m; r++, c += len, v += len)
                yi[r] = d[r] * xi[r] + row_sum(c, v, len, xfull, prod);
        }
    }
}

/* `batch` RHS columns, each running the one-column formula on its own. */
static void spmv_batch(int64_t n, int64_t batch, const int64_t *row_ptr, const int32_t *cols,
                       const float *vals, const float *diag, const float *x,
                       const float *xfull, float *y, float *prod)
{
    for (int64_t i = 0; i < n; i++) {
        int64_t a = row_ptr[i], len = row_ptr[i + 1] - a;
        const int32_t *c = cols + a;
        const float *v = vals + a, *xi = x + i * batch;
        float *yi = y + i * batch;
        if (len == 0) {
            for (int64_t j = 0; j < batch; j++)
                yi[j] = diag[i] * xi[j] + 0.0f;
        } else if (len <= 8) {
            for (int64_t j = 0; j < batch; j++)
                prod[j] = -0.0f;
            for (int64_t k = 1; k < len; k++) {
                const float *xk = xfull + (int64_t)c[k] * batch;
                for (int64_t j = 0; j < batch; j++)
                    prod[j] += v[k] * xk[j];
            }
            const float *x0 = xfull + (int64_t)c[0] * batch;
            for (int64_t j = 0; j < batch; j++)
                yi[j] = diag[i] * xi[j] + (v[0] * x0[j] + prod[j]);
        } else {
            /* Column j's products at prod[j * len + k], then its row sum. */
            for (int64_t k = 0; k < len; k++) {
                const float *xk = xfull + (int64_t)c[k] * batch;
                for (int64_t j = 0; j < batch; j++)
                    prod[j * len + k] = v[k] * xk[j];
            }
            for (int64_t j = 0; j < batch; j++) {
                const float *p = prod + j * len;
                yi[j] = diag[i] * xi[j] + (p[0] + pairwise(p + 1, len - 1));
            }
        }
    }
}

/* y = diag * x + the row sums of vals[e] * xfull[cols[e]], row by row,
 * where xfull is [x | halo]: the call first copies x (n rows) and halo
 * (halo_rows rows) into the scratch xfull, so a gather never branches on
 * which of the two a column reads.  Every vector row is `batch` contiguous
 * floats, one per RHS column.  A row of up to eight entries sums its rest
 * inline (pairwise below eight addends is the sequential sum from -0.0); a
 * longer one goes through prod and pairwise().
 *
 * row_ptr[n + 1] indexes cols and vals.  prod holds batch floats per
 * entry of the longest row, and at least batch floats. */
void repro_spmv_f32(int64_t n, int64_t halo_rows, int64_t batch, const int64_t *row_ptr,
                    const int32_t *cols, const float *vals, const float *diag,
                    const float *x, const float *halo, float *y, float *xfull, float *prod)
{
    memcpy(xfull, x, (size_t)(n * batch) * sizeof(float));
    if (halo_rows)
        memcpy(xfull + n * batch, halo, (size_t)(halo_rows * batch) * sizeof(float));
    if (batch == 1)
        spmv_one(n, row_ptr, cols, vals, diag, x, xfull, y, prod);
    else
        spmv_batch(n, batch, row_ptr, cols, vals, diag, x, xfull, y, prod);
}

/* -- The expression evaluator --------------------------------------------- */

/* Opcodes, in the order of repro.tensordsl.materialize.F32_OPS, and operand
 * modes.  A comparison gives 1.0f or 0.0f. */
enum { COPY, NEG, ABS, SQRT, ADD, SUB, MUL, DIV, LT, LE, GT, GE, EQ, NE };
enum { VEC, TMP, UNI, OUT, NONE };

#define F_COPY(x, y) (x)
#define F_NEG(x, y) (-(x))
#define F_ABS(x, y) fabsf(x)
#define F_SQRT(x, y) sqrtf(x)
#define F_ADD(x, y) ((x) + (y))
#define F_SUB(x, y) ((x) - (y))
#define F_MUL(x, y) ((x) * (y))
#define F_DIV(x, y) ((x) / (y))
#define F_LT(x, y) ((x) < (y) ? 1.0f : 0.0f)
#define F_LE(x, y) ((x) <= (y) ? 1.0f : 0.0f)
#define F_GT(x, y) ((x) > (y) ? 1.0f : 0.0f)
#define F_GE(x, y) ((x) >= (y) ? 1.0f : 0.0f)
#define F_EQ(x, y) ((x) == (y) ? 1.0f : 0.0f)
#define F_NE(x, y) ((x) != (y) ? 1.0f : 0.0f)

#define EACH_OP(X) X(COPY) X(NEG) X(ABS) X(SQRT) X(ADD) X(SUB) X(MUL) X(DIV) \
    X(LT) X(LE) X(GT) X(GE) X(EQ) X(NE)

/* One operation on one pair of values. */
static float apply(int64_t op, float x, float y)
{
    switch (op) {
#define CASE(OP) case OP: return F_##OP(x, y);
    EACH_OP(CASE)
#undef CASE
    }
    return x;
}

/* d[i] = op(a[i], b[i]) for i < n, where a NULL a (b) is the value as (bs)
 * in every lane.  d may be a or b itself: lane i reads before it writes. */
static void map(int64_t op, int64_t n, float *d, const float *a, float as, const float *b,
                float bs)
{
    if (!a && !b) {
        float v = apply(op, as, bs);
        for (int64_t i = 0; i < n; i++)
            d[i] = v;
        return;
    }
#define LOOPS(OP)                                                         \
    case OP:                                                              \
        if (a && b)                                                       \
            for (int64_t i = 0; i < n; i++) d[i] = F_##OP(a[i], b[i]);    \
        else if (a)                                                       \
            for (int64_t i = 0; i < n; i++) d[i] = F_##OP(a[i], bs);      \
        else                                                              \
            for (int64_t i = 0; i < n; i++) d[i] = F_##OP(as, b[i]);      \
        return;
    switch (op) { EACH_OP(LOOPS) }
#undef LOOPS
}

/* What the per-element instructions of one call read and write: vec[k] is
 * the address of vector k's element 0, uni the per-segment values, tmp
 * `block` floats per temporary, out the output's element 0. */
struct frame {
    const int64_t *vec;
    const float *uni;
    float *tmp;
    int64_t block;
    float *out;
};

/* An operand at element pos: a pointer for a vector or a temporary, a value
 * for a per-segment scalar or a constant. */
static const float *operand(const struct frame *f, int64_t mode, int64_t k, int64_t pos,
                            float *value)
{
    if (mode == VEC)
        return (const float *)(intptr_t)f->vec[k] + pos;
    if (mode == TMP)
        return f->tmp + k * f->block;
    *value = mode == UNI ? f->uni[k] : 0.0f;
    return NULL;
}

/* The per-element instructions over elements [pos, pos + n), n <= block. */
static void run_block(const struct frame *f, int64_t nins, const int64_t *ins, int64_t pos,
                      int64_t n)
{
    for (int64_t k = 0; k < nins; k++, ins += 7) {
        float as = 0.0f, bs = 0.0f;
        const float *a = operand(f, ins[3], ins[4], pos, &as);
        const float *b = operand(f, ins[5], ins[6], pos, &bs);
        float *d = ins[1] == OUT ? f->out + pos : f->tmp + ins[2] * f->block;
        map(ins[0], n, d, a, as, b, bs);
    }
}

/* pairwise() of the last instruction's values over elements [pos, pos + n):
 * the same split, each piece of at most 128 elements evaluated into the
 * last instruction's temporary `root` just before it is summed. */
static float sum_range(const struct frame *f, int64_t nins, const int64_t *ins, int64_t root,
                       int64_t pos, int64_t n)
{
    if (n <= 128) {
        run_block(f, nins, ins, pos, n);
        return pairwise(f->tmp + root * f->block, n);
    }
    int64_t n2 = n / 2;
    n2 -= n2 % 8;
    return sum_range(f, nins, ins, root, pos, n2) + sum_range(f, nins, ins, root, pos + n2, n - n2);
}

/* One float32 expression tree over the segments [off[s], off[s + 1]) of
 * nseg segments.  prog holds
 *   nscalar, nuni, nins, root, block (>= 128),
 *   nscalar uni slots, one per per-segment scalar,
 *   nuni instructions (op, dst, a, b) over uni slots (b < 0: unary),
 *   nins instructions (op, dst mode, dst, a mode, a, b mode, b).
 * scal[j] is the address of scalar j's base: scalar j of segment s is that
 * base's element at[j * nseg + s].  The nuni instructions run once per
 * segment, the nins once per block of at most `block` elements of a
 * segment.  uni holds the constants, then the per-segment values; tmp
 * holds `block` floats per temporary; vec as in struct frame.
 *
 * out_at == NULL: the last instruction writes out[i] for every element i
 * (out may be a vector at the same element: each block reads before it
 * writes).  Else out[out_at[s]] = +0.0f + pairwise(segment s's values of
 * the last instruction, which writes temporary `root`) — ndarray.sum(). */
void repro_eval_f32(int64_t nseg, const int64_t *off, const int64_t *prog, const int64_t *vec,
                    const int64_t *scal, const int64_t *at, float *uni, float *tmp, float *out,
                    const int64_t *out_at)
{
    int64_t nscalar = prog[0], nuni = prog[1], nins = prog[2], root = prog[3], block = prog[4];
    const int64_t *slot = prog + 5, *uins = slot + nscalar, *ins = uins + 4 * nuni;
    const struct frame f = {vec, uni, tmp, block, out};
    for (int64_t s = 0; s < nseg; s++) {
        for (int64_t j = 0; j < nscalar; j++)
            uni[slot[j]] = ((const float *)(intptr_t)scal[j])[at[j * nseg + s]];
        for (const int64_t *u = uins; u < ins; u += 4)
            uni[u[1]] = apply(u[0], uni[u[2]], u[3] < 0 ? 0.0f : uni[u[3]]);
        int64_t pos = off[s], end = off[s + 1];
        if (out_at) {
            out[out_at[s]] = 0.0f + sum_range(&f, nins, ins, root, pos, end - pos);
            continue;
        }
        for (; pos < end; pos += block)
            run_block(&f, nins, ins, pos, end - pos < block ? end - pos : block);
    }
}

/* dst[di[i]] = src[si[i]] for i < n; a NULL index is the identity.  src and
 * dst overlap in no element that one reads and the other writes. */
void repro_copy_f32(int64_t n, const float *src, const int64_t *si, float *dst, const int64_t *di)
{
    if (si && di)
        for (int64_t i = 0; i < n; i++) dst[di[i]] = src[si[i]];
    else if (si)
        for (int64_t i = 0; i < n; i++) dst[i] = src[si[i]];
    else if (di)
        for (int64_t i = 0; i < n; i++) dst[di[i]] = src[i];
    else
        memmove(dst, src, (size_t)n * sizeof(float));
}

/* -- The runner ------------------------------------------------------------ */

/* Entry kinds, in the order of repro.solvers.native's EVAL, COPY, SPMV,
 * SWEEP. */
enum { RUN_EVAL, RUN_COPY, RUN_SPMV, RUN_SWEEP };

#define ARG(k) ((void *)(intptr_t)a[k])

/* Run the n entries of table in order.  An entry is its kind, then the
 * arguments of that kind's function, each one int64 (an address, 0 for
 * NULL): 10 for repro_eval_f32, 5 for repro_copy_f32, 12 for repro_spmv_f32
 * and 10 for repro_sweep_f32.  The runner does no arithmetic of its own; a
 * later entry reads what an earlier one wrote. */
void repro_run(int64_t n, const int64_t *table)
{
    for (int64_t e = 0; e < n; e++) {
        const int64_t *a = table + 1;
        switch (table[0]) {
        case RUN_EVAL:
            repro_eval_f32(a[0], ARG(1), ARG(2), ARG(3), ARG(4), ARG(5), ARG(6), ARG(7), ARG(8),
                           ARG(9));
            table = a + 10;
            break;
        case RUN_COPY:
            repro_copy_f32(a[0], ARG(1), ARG(2), ARG(3), ARG(4));
            table = a + 5;
            break;
        case RUN_SPMV:
            repro_spmv_f32(a[0], a[1], a[2], ARG(3), ARG(4), ARG(5), ARG(6), ARG(7), ARG(8),
                           ARG(9), ARG(10), ARG(11));
            table = a + 12;
            break;
        case RUN_SWEEP:
            repro_sweep_f32(a[0], ARG(1), ARG(2), ARG(3), ARG(4), ARG(5), ARG(6), ARG(7), ARG(8),
                            ARG(9));
            table = a + 10;
            break;
        default: /* tables are built from the four kinds only */
            return;
        }
    }
}
