/* The package's native kernels, in numpy's summation order.
 *
 * repro_sweep_f32 is the level loop of repro.solvers.sweeps.SweepPlan.bind,
 * repro_spmv_f32 the whole-device SpMV of the fused kernels
 * (repro.sparse.sell.DeviceSpmv.run).  Both sum a row's products as
 * np.add.reduceat does: the first product plus numpy's pairwise sum of the
 * rest (pairwise_sum in numpy's loops_utils.h.src), all in float32.  An
 * empty row sums to +0.0.  repro_eval_f32 runs one float32 expression tree
 * of the fused kernels (repro.tensordsl.materialize.Program) and sums a
 * segment as ndarray.sum() does, +0.0 plus the pairwise sum of all of it;
 * repro_eval_dw runs a tree with double-word or binary64 nodes and sums
 * double words in _dw_tree_sum's halving order; repro_xspmv is MPIR's
 * binary64 residual SpMV; repro_copy_f32 is an exchange's copy.  Two more
 * run once per tile at build time: repro_factor_f32 is a tile's ILU(0) or
 * DILU factorization, repro_levels a sweep's dependency levels.  repro_run
 * calls the eight in the order of a table (repro.solvers.native.Table): one
 * call per fused kernel.  Four control kinds run the entries after them as a
 * body: REPEAT, WHILE and IF are the engine's Repeat, RepeatWhile and If, and
 * LOG appends a float32 scalar to a host-owned buffer, so a whole solver loop
 * (repro.graph.loops) is one call.
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
 * in every lane.  d may be a or b itself: lane i reads before it writes.
 * Inlined into each of its two callers. */
static inline __attribute__((always_inline)) void
map(int64_t op, int64_t n, float *d, const float *a, float as, const float *b, float bs)
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

/* -- The double-word evaluator ------------------------------------------------ */

/* repro_eval_dw runs an expression tree with double-word or binary64 nodes
 * (repro.tensordsl.materialize.Program, one RHS): the interpreter's opcodes
 * 14-28 after the float32 ones, each doing exactly repro.dw's operation
 * sequence on (hi, lo) float32 pairs.  2Prod's error term is the exact
 * binary64 product plus -p, rounded to binary64 and then to float32, as
 * repro.dw.eft.fma emulates the IPU's FMA; nothing is contracted
 * (-ffp-contract=off), so each line is the numpy expression it mirrors. */

/* Representations of a value: float32, a double word, binary64. */
enum { R32, RDW, R64 };
/* Opcodes after F32_OPS, in the order of repro.tensordsl.materialize.OPS. */
enum { F64_TO_F32 = 14, F32_TO_F64, F32_TO_DW, F64_TO_DW, DW_TO_F32, DW_TO_F64, EXPAND,
       DW_EXPAND, DW_NEG, DW_ABS, DW_SQRT, DW_ADD, DW_SUB, DW_MUL, DW_DIV };

typedef struct { float h, l; } dw;

/* An error-free transform's pair: its low part is 0 wherever the rounded
 * result is not finite (repro.dw.eft), as split64's. */
static inline dw eft(float hi, float lo)
{
    return (dw){hi, isfinite(hi) ? lo : 0.0f};
}

static inline dw two_sum(float a, float b)
{
    float s = a + b, bb = s - a;
    return eft(s, (a - (s - bb)) + (b - bb));
}

static inline dw fast_two_sum(float a, float b)
{
    float s = a + b;
    return eft(s, b - (s - a));
}

static inline float fma32(float a, float b, float c)
{
    return (float)((double)a * (double)b + (double)c);
}

static inline dw two_prod(float a, float b)
{
    float p = a * b;
    return eft(p, fma32(a, b, -p));
}

/* The double word nearest w: lo = 0 wherever hi is not finite
 * (repro.dw.eft.from_float64). */
static inline dw split64(double w)
{
    float hi = (float)w;
    return (dw){hi, isfinite(hi) ? (float)(w - (double)hi) : 0.0f};
}

static inline dw neg_dw(dw x)
{
    return (dw){-x.h, -x.l};
}

static inline dw add_dw_fp(dw x, float y)
{
    dw s = two_sum(x.h, y);
    return fast_two_sum(s.h, x.l + s.l);
}

static inline dw add_dw_dw(dw x, dw y)
{
    dw s = two_sum(x.h, y.h), t = two_sum(x.l, y.l);
    dw v = fast_two_sum(s.h, s.l + t.h);
    return fast_two_sum(v.h, t.l + v.l);
}

static inline dw mul_dw_fp(dw x, float y)
{
    dw c = two_prod(x.h, y);
    return fast_two_sum(c.h, fma32(x.l, y, c.l));
}

static inline dw mul_dw_dw(dw x, dw y)
{
    dw c = two_prod(x.h, y.h);
    float tl1 = fma32(x.h, y.l, x.l * y.l);
    return fast_two_sum(c.h, c.l + fma32(x.l, y.h, tl1));
}

static inline dw div_dw_fp(dw x, float y)
{
    float th = x.h / y;
    dw p = two_prod(th, y);
    return fast_two_sum(th, (((x.h - p.h) - p.l) + x.l) / y);
}

static inline dw div_dw_dw(dw x, dw y)
{
    float th = x.h / y.h;
    dw r = mul_dw_fp(y, th);
    return fast_two_sum(th, ((x.h - r.h) + (x.l - r.l)) / y.h);
}

static inline dw sqrt_dw(dw x)
{
    float s0 = sqrtf(x.h);
    dw p = two_prod(s0, s0);
    dw c = div_dw_fp(add_dw_dw(x, neg_dw(p)), 2.0f * s0);
    return x.h == 0 ? (dw){0.0f, 0.0f} : add_dw_fp(c, s0);
}

/* One operand or destination over a run of lanes: float32 lanes h (and lo
 * lanes l for a double word), or binary64 lanes d; lane i is at i * step,
 * step 0 for a per-segment value. */
struct lane {
    float *h, *l;
    double *d;
    int64_t step;
};

/* Lane i of lane set v (one of a, b, d), at i * s_v: the loop of EACH is
 * compiled twice, once with every step 1 — the loop the compiler
 * vectorizes — and once with the steps as given.  ivdep: lane i reads
 * lane i of each operand only, and a destination overlaps an operand
 * lane for lane or not at all (Program.bind checks it), so no iteration
 * reads what another writes.  Each vector lane still does the one IEEE
 * operation of its scalar iteration. */
#define H(v, i) ((v).h[(i) * s_##v])
#define L(v, i) ((v).l[(i) * s_##v])
#define D(v, i) ((v).d[(i) * s_##v])
#define DW(v, i) ((dw){H(v, i), L(v, i)})
#define EACH(body)                                                                 \
    do {                                                                           \
        if (a.step == 1 && b.step == 1 && d.step == 1) {                           \
            const int64_t s_a = 1, s_b = 1, s_d = 1;                               \
            _Pragma("GCC ivdep")                                                   \
            for (int64_t i = 0; i < n; i++) { (void)s_b; body; }                   \
        } else {                                                                   \
            const int64_t s_a = a.step, s_b = b.step, s_d = d.step;                \
            for (int64_t i = 0; i < n; i++) { (void)s_b; body; }                   \
        }                                                                          \
    } while (0)
#define PUT(r) { dw r_ = (r); H(d, i) = r_.h; L(d, i) = r_.l; }

/* One binary64 op of F32_OPS: a comparison gives float32 1.0f or 0.0f. */
static void map64(int64_t op, int64_t n, struct lane d, struct lane a, struct lane b)
{
    switch (op) {
#define F64(OP, expr) case OP: EACH(double x = D(a, i); double y = b.d ? D(b, i) : 0.0; \
                                    (void)y; D(d, i) = (expr)); return;
#define CMP64(OP, expr) case OP: EACH(double x = D(a, i); double y = D(b, i); \
                                      H(d, i) = (expr) ? 1.0f : 0.0f); return;
    F64(COPY, x) F64(NEG, -x) F64(ABS, fabs(x)) F64(SQRT, sqrt(x))
    F64(ADD, x + y) F64(SUB, x - y) F64(MUL, x * y) F64(DIV, x / y)
    CMP64(LT, x < y) CMP64(LE, x <= y) CMP64(GT, x > y) CMP64(GE, x >= y)
    CMP64(EQ, x == y) CMP64(NE, x != y)
#undef F64
#undef CMP64
    }
}

/* d = op(a, b) over n lanes, `rep` the representation of op's operands;
 * lane i reads all it needs before it writes. */
static void wide_op(int64_t op, int64_t rep, int64_t n, struct lane d, struct lane a,
                    struct lane b)
{
    if (op < F64_TO_F32) {
        if (rep == R32)
            map(op, n, d.h, a.step ? a.h : NULL, a.h[0], b.h && b.step ? b.h : NULL,
                b.h ? b.h[0] : 0.0f);
        else if (rep == R64)
            map64(op, n, d, a, b);
        else /* a double word's copy */
            EACH(PUT(DW(a, i)));
        return;
    }
    switch (op) {
    case F64_TO_F32: EACH(H(d, i) = (float)D(a, i)); return;
    case F32_TO_F64: EACH(D(d, i) = (double)H(a, i)); return;
    case F32_TO_DW: EACH(PUT(split64((double)H(a, i)))); return;
    case F64_TO_DW: EACH(PUT(split64(D(a, i)))); return;
    case DW_TO_F32: EACH(H(d, i) = (float)((double)H(a, i) + (double)L(a, i))); return;
    case DW_TO_F64: EACH(D(d, i) = (double)H(a, i) + (double)L(a, i)); return;
    case DW_NEG: EACH(PUT(neg_dw(DW(a, i)))); return;
    case DW_ABS: EACH(dw x = DW(a, i); PUT(x.h < 0 ? neg_dw(x) : x)); return;
    case DW_SQRT: EACH(PUT(sqrt_dw(DW(a, i)))); return;
    case DW_ADD: EACH(PUT(add_dw_dw(DW(a, i), DW(b, i)))); return;
    case DW_SUB: EACH(PUT(add_dw_dw(DW(a, i), neg_dw(DW(b, i))))); return;
    case DW_MUL: EACH(PUT(mul_dw_dw(DW(a, i), DW(b, i)))); return;
    case DW_DIV: EACH(PUT(div_dw_dw(DW(a, i), DW(b, i)))); return;
    }
}

/* Slots of per-segment values: a float32, a double word or a binary64. */
union slot {
    double d;
    float f[2];
};

struct wide_frame {
    const int64_t *vec;
    union slot *uni;
    float *tmp;
    int64_t block;
    const int64_t *out;
};

/* An operand (mode, k) of representation rep at lanes [pos, ...):
 * vector k's element pos (a double word's lo is vector k + 1), temporary
 * k's lane 0 (2 * block floats each: float32 lanes, or hi then lo lanes,
 * or binary64 lanes), uni slot k, or out's element pos. */
static struct lane wide_operand(const struct wide_frame *f, int64_t mode, int64_t k,
                                int64_t rep, int64_t pos)
{
    struct lane v = {NULL, NULL, NULL, 1};
    float *h = NULL, *l = NULL;
    switch (mode) {
    case VEC: case OUT: {
        const int64_t *base = mode == VEC ? f->vec + k : f->out;
        if (rep == R64) {
            v.d = (double *)(intptr_t)base[0] + pos;
            return v;
        }
        h = (float *)(intptr_t)base[0] + pos;
        l = rep == RDW ? (float *)(intptr_t)base[1] + pos : NULL;
        break;
    }
    case TMP:
        h = f->tmp + k * 2 * f->block;
        if (rep == R64) {
            v.d = (double *)h;
            return v;
        }
        l = h + f->block;
        break;
    case UNI:
        v.step = 0;
        if (rep == R64) {
            v.d = &f->uni[k].d;
            return v;
        }
        h = &f->uni[k].f[0];
        l = &f->uni[k].f[1];
        break;
    default: /* NONE */
        return v;
    }
    v.h = h;
    v.l = rep == R32 ? NULL : l;
    return v;
}

/* Instructions (op, a rep, b rep, d rep, d mode, d, a mode, a, b mode, b)
 * over lanes [pos, pos + n); the destination `out` is at lane outpos. */
static void wide_block(const struct wide_frame *f, int64_t nins, const int64_t *ins,
                       int64_t pos, int64_t n, int64_t outpos)
{
    for (int64_t k = 0; k < nins; k++, ins += 10) {
        struct lane d = wide_operand(f, ins[4], ins[5], ins[3], ins[4] == OUT ? outpos : pos);
        struct lane a = wide_operand(f, ins[6], ins[7], ins[1], pos);
        struct lane b = wide_operand(f, ins[8], ins[9], ins[2], pos);
        wide_op(ins[0], ins[1], n, d, a, b);
    }
}

/* The double-word sum of h/l[0, n) in repro.tensordsl.materialize's
 * _dw_tree_sum order: halves added lane by lane, an odd tail carried, until
 * one is left; (0, 0) for none.  Overwrites h and l. */
static dw dw_tree_sum(float *h, float *l, int64_t n)
{
    if (n == 0)
        return (dw){0.0f, 0.0f};
    while (n > 1) {
        int64_t half = n / 2;
        for (int64_t i = 0; i < half; i++) {
            dw s = add_dw_dw((dw){h[i], l[i]}, (dw){h[half + i], l[half + i]});
            h[i] = s.h;
            l[i] = s.l;
        }
        if (n % 2) {
            h[half] = h[n - 1];
            l[half] = l[n - 1];
        }
        n = half + n % 2;
    }
    return (dw){h[0], l[0]};
}

/* One tree with double-word or binary64 nodes over the segments [off[s],
 * off[s + 1]) of nseg segments.  prog holds
 *   nscalar, nuni, nins, root rep, block,
 *   nscalar (uni slot, rep, scal index) triples, one per per-segment scalar,
 *   nuni instructions run once per segment, over uni slots,
 *   nins instructions run once per block of at most `block` lanes,
 * each instruction ten int64s (see wide_block).  Per-segment scalar j of
 * segment s is element at[j * nseg + s] of base scal[index] (a double
 * word's lo base is scal[index + 1]); uni holds the constants, the
 * per-segment values and the per-segment temporaries; tmp holds 2 * block
 * floats per temporary; vec as in wide_operand.  out holds out's address,
 * then its lo half's for a double word.
 *
 * out_at == NULL: the last instruction writes out element by element (out
 * may be a vector at the same element).  Else the last instruction writes
 * segment s's values to seg (2 floats per element of the longest
 * segment), and out[out_at[s]] is their sum: ndarray.sum() of float32
 * values (+0.0f + pairwise), or dw_tree_sum of double words. */
void repro_eval_dw(int64_t nseg, const int64_t *off, const int64_t *prog, const int64_t *vec,
                   const int64_t *scal, const int64_t *at, union slot *uni, float *tmp,
                   const int64_t *out, const int64_t *out_at, float *seg)
{
    int64_t nscalar = prog[0], nuni = prog[1], nins = prog[2], rep = prog[3], block = prog[4];
    const int64_t *slots = prog + 5, *uins = slots + 3 * nscalar, *ins = uins + 10 * nuni;
    const struct wide_frame f = {vec, uni, tmp, block, out};
    for (int64_t s = 0; s < nseg; s++) {
        for (int64_t j = 0; j < nscalar; j++) {
            const int64_t *t = slots + 3 * j;
            int64_t e = at[j * nseg + s];
            union slot *v = &uni[t[0]];
            if (t[1] == R64) {
                v->d = ((const double *)(intptr_t)scal[t[2]])[e];
                continue;
            }
            v->f[0] = ((const float *)(intptr_t)scal[t[2]])[e];
            if (t[1] == RDW)
                v->f[1] = ((const float *)(intptr_t)scal[t[2] + 1])[e];
        }
        wide_block(&f, nuni, uins, 0, 1, 0);
        int64_t pos = off[s], end = off[s + 1];
        if (out_at) {
            int64_t seg_out[2] = {(int64_t)(intptr_t)seg, (int64_t)(intptr_t)(seg + end - pos)};
            struct wide_frame g = {vec, uni, tmp, block, seg_out};
            for (int64_t p = pos; p < end; p += block)
                wide_block(&g, nins, ins, p, end - p < block ? end - p : block, p - pos);
            float *oh = (float *)(intptr_t)out[0];
            if (rep == RDW) {
                dw sum = dw_tree_sum(seg, seg + end - pos, end - pos);
                oh[out_at[s]] = sum.h;
                ((float *)(intptr_t)out[1])[out_at[s]] = sum.l;
            } else {
                oh[out_at[s]] = 0.0f + pairwise(seg, end - pos);
            }
            continue;
        }
        for (; pos < end; pos += block)
            wide_block(&f, nins, ins, pos, end - pos < block ? end - pos : block, pos);
    }
}

/* -- The extended-precision SpMV ------------------------------------------------ */

/* y = diag * x + the row sums of vals[e] * xfull[cols[e]] in binary64
 * (repro.sparse.distribute.extended_spmv): xfull is [x | halo] widened to
 * binary64 (a double word's hi + lo), each row sums its products in entry
 * order from +0.0 — np.bincount's order — and the result is stored in y's
 * representation: rounded to float32, split into a double word, or as is.
 * reps is x's (and halo's) representation plus 3 times y's; a lo pointer is
 * used only for a double word.  xfull holds n + halo_rows doubles. */
void repro_xspmv(int64_t n, int64_t halo_rows, int64_t reps, const int64_t *row_ptr,
                 const int32_t *cols, const double *vals, const double *diag, const void *x,
                 const float *x_lo, const void *halo, const float *halo_lo, void *y,
                 float *y_lo, double *xfull)
{
    int64_t xrep = reps % 3, yrep = reps / 3;
    for (int64_t part = 0; part < 2; part++) {
        const void *v = part ? halo : x;
        const float *lo = part ? halo_lo : x_lo;
        int64_t m = part ? halo_rows : n;
        double *w = xfull + (part ? n : 0);
        if (m == 0)
            continue;
        if (xrep == R64)
            memcpy(w, v, (size_t)m * sizeof(double));
        else if (xrep == RDW)
            for (int64_t i = 0; i < m; i++)
                w[i] = (double)((const float *)v)[i] + (double)lo[i];
        else
            for (int64_t i = 0; i < m; i++)
                w[i] = (double)((const float *)v)[i];
    }
    for (int64_t i = 0; i < n; i++) {
        double sum = 0.0;
        for (int64_t e = row_ptr[i]; e < row_ptr[i + 1]; e++)
            sum += vals[e] * xfull[cols[e]];
        double r = diag[i] * xfull[i] + sum;
        if (yrep == R64) {
            ((double *)y)[i] = r;
        } else if (yrep == RDW) {
            dw p = split64(r);
            ((float *)y)[i] = p.h;
            y_lo[i] = p.l;
        } else {
            ((float *)y)[i] = (float)r;
        }
    }
}

/* -- The block-local factorizations ----------------------------------------- */

/* One tile's ILU(0) (mode 0) or DILU (mode 1) over its local block, in the
 * order of repro.solvers.ilu's _factor_ilu0 and _factor_dilu, which keep a
 * dict per row from local column to entry position: a column's first entry
 * in CRS order fixes where the row's iteration visits it, its last entry is
 * the position the dict holds, and halo columns (col >= n) are not in it.
 * uniq[e] is that last position at a column's first entry, -1 at every
 * other entry; pos[c] is row i's dict while row i is factored, -1 outside.
 *
 * ILU(0): for each lower column k of row i in increasing order,
 * l = vals[ik] / diag[k] replaces vals[ik], then each upper column j > k of
 * row k updates diag[i] (j == i) or vals[ij] (j in row i) by - l * vals[kj].
 * DILU: for each lower column k of row i in dict order with an entry
 * vals[ki], diag[i] = diag[i] - vals[ik] * vals[ki] / diag[k]; vals stay.
 * Every operation is one float32 operation, the product rounded before it
 * is subtracted.  After each row the pivot diag[i] is checked: zero or not
 * finite stops the factorization with out = {flops so far, i}; a complete
 * one ends with out = {flops, -1}.
 *
 * row_ptr[n + 1] indexes cols and vals; scratch holds n + nnz + the
 * longest row's entries, the first n -1 (pos, which each row leaves -1
 * again; the caller fills it, as repro_levels explains). */
static void repro_factor_f32(int64_t mode, int64_t n, const int64_t *row_ptr, const int64_t *cols,
                      float *vals, float *diag, int64_t *scratch, int64_t *out)
{
    int64_t *pos = scratch, *uniq = scratch + n, *lower = uniq + row_ptr[n];
    int64_t flops = 0;
    for (int64_t i = 0; i < n; i++) {
        for (int64_t e = row_ptr[i]; e < row_ptr[i + 1]; e++)
            if (cols[e] < n)
                pos[cols[e]] = e;
        for (int64_t e = row_ptr[i]; e < row_ptr[i + 1]; e++) {
            int64_t c = cols[e];
            uniq[e] = -1;
            if (c < n) { /* the first entry of c takes its last position */
                uniq[e] = pos[c];
                pos[c] = -1;
            }
        }
    }
    for (int64_t i = 0; i < n; i++) {
        int64_t m = 0;
        for (int64_t e = row_ptr[i]; e < row_ptr[i + 1]; e++) {
            if (uniq[e] < 0)
                continue;
            int64_t k = cols[e];
            pos[k] = uniq[e];
            if (k >= i)
                continue;
            if (mode == 1) {
                int64_t ki = -1;
                for (int64_t f = row_ptr[k]; f < row_ptr[k + 1]; f++)
                    if (uniq[f] >= 0 && cols[f] == i)
                        ki = uniq[f];
                if (ki >= 0) {
                    diag[i] = diag[i] - vals[uniq[e]] * vals[ki] / diag[k];
                    flops += 3;
                }
            } else {
                int64_t t = m++;
                for (; t > 0 && lower[t - 1] > k; t--)
                    lower[t] = lower[t - 1];
                lower[t] = k;
            }
        }
        for (int64_t t = 0; t < m; t++) {
            int64_t k = lower[t];
            float l = vals[pos[k]] / diag[k];
            vals[pos[k]] = l;
            flops += 1;
            for (int64_t f = row_ptr[k]; f < row_ptr[k + 1]; f++) {
                int64_t j = cols[f];
                if (uniq[f] < 0 || j <= k)
                    continue;
                if (j == i) {
                    diag[i] = diag[i] - l * vals[uniq[f]];
                    flops += 2;
                } else if (pos[j] >= 0) {
                    vals[pos[j]] = vals[pos[j]] - l * vals[uniq[f]];
                    flops += 2;
                }
            }
        }
        for (int64_t e = row_ptr[i]; e < row_ptr[i + 1]; e++)
            if (uniq[e] >= 0)
                pos[cols[e]] = -1;
        if (diag[i] == 0.0f || !isfinite(diag[i])) {
            out[0] = flops;
            out[1] = i;
            return;
        }
    }
    out[0] = flops;
    out[1] = -1;
}

/* -- The dependency levels --------------------------------------------------- */

/* level[i] = 1 + the largest level of the rows cols[e] row i depends on
 * (rows[e] == i), or 0 when it depends on none, rows taken in increasing
 * order (backward == 0) or decreasing order: repro.sparse.levelset's
 * _levels_directional.  The m edges come in any order; a counting sort
 * groups them by row, keeping their order within a row, into scratch
 * (n + 2 + m int64s, the first n + 2 zero).  level comes in zero, so a
 * dependency on a row not yet reached reads 0.  (The caller zeroes both:
 * a zeroing loop here would become a memset call, and its new PLT entry
 * would shift every kernel of the library off its old alignment.) */
static void repro_levels(int64_t n, int64_t backward, int64_t m, const int64_t *rows,
                  const int64_t *cols, int64_t *level, int64_t *scratch)
{
    int64_t *ptr = scratch, *grouped = scratch + n + 2;
    for (int64_t e = 0; e < m; e++)
        ptr[rows[e] + 2]++;
    for (int64_t i = 0; i < n; i++)
        ptr[i + 2] += ptr[i + 1];
    for (int64_t e = 0; e < m; e++) /* then row i's edges are ptr[i] .. ptr[i + 1] */
        grouped[ptr[rows[e] + 1]++] = cols[e];
    for (int64_t t = 0; t < n; t++) {
        int64_t i = backward ? n - 1 - t : t, top = -1;
        for (int64_t e = ptr[i]; e < ptr[i + 1]; e++)
            if (level[grouped[e]] > top)
                top = level[grouped[e]];
        level[i] = top + 1;
    }
}

/* -- The runner ------------------------------------------------------------ */

/* Entry kinds, in the order of repro.solvers.native's EVAL, COPY, SPMV,
 * SWEEP, DWEVAL, XSPMV, FACTOR, LEVELS, REPEAT, WHILE, IF, LOG, and the
 * number of arguments each takes. */
enum { RUN_EVAL, RUN_COPY, RUN_SPMV, RUN_SWEEP, RUN_DWEVAL, RUN_XSPMV, RUN_FACTOR, RUN_LEVELS,
       RUN_REPEAT, RUN_WHILE, RUN_IF, RUN_LOG, RUN_KINDS };
static const int64_t WIDTH[RUN_KINDS] = {10, 5, 12, 10, 11, 14, 8, 7, 3, 6, 6, 4};

#define ARG(k) ((void *)(intptr_t)a[k])

/* The address after the next n entries of table (a control entry's body
 * entries are among the n). */
static const int64_t *skip(int64_t n, const int64_t *table)
{
    for (int64_t e = 0; e < n; e++)
        table += 1 + WIDTH[table[0]];
    return table;
}

/* A loop or branch condition, as the engine reads it: the float32 value,
 * plus its double word's lo half when lo is not NULL, in binary64. */
static double condition(const float *hi, const float *lo)
{
    double v = (double)*hi;
    if (lo)
        v += (double)*lo;
    return v;
}

/* Count n body runs into *runs, unless runs is NULL. */
static void count(int64_t *runs, int64_t n)
{
    if (runs)
        *runs += n;
}

/* Run the next n entries of table in order (a control entry's body entries
 * are among the n).  A leaf entry is its kind, then the arguments of that
 * kind's function, each one int64 (an address, 0 for NULL): 10 for
 * repro_eval_f32, 5 for repro_copy_f32, 12 for repro_spmv_f32, 10 for
 * repro_sweep_f32, 11 for repro_eval_dw, 14 for repro_xspmv, 8 for
 * repro_factor_f32 and 7 for repro_levels.  The control kinds, each adding
 * its body runs to an int64 counter (NULL: none):
 *
 *   REPEAT count nbody runs: the next nbody entries, count times;
 *   WHILE cond lo max before nbody runs: the engine's RepeatWhile: while
 *     condition(cond, lo) != 0.0 (tested before the first run only when
 *     before != 0), at most max runs of the next nbody entries;
 *   IF cond lo nthen nelse then_runs else_runs: the next nthen entries when
 *     condition(cond, lo) != 0.0 (NaN included), else the nelse after them;
 *   LOG src buffer cursor capacity: buffer[*cursor] = *src, then ++*cursor,
 *     while *cursor < capacity.
 *
 * The runner does no arithmetic of its own; a later entry reads what an
 * earlier one wrote, and tables are built by repro.solvers.native.Table,
 * which checks every body's extent. */
static void run(int64_t n, const int64_t *table)
{
    for (int64_t e = 0; e < n; e++) {
        if (table[0] < 0 || table[0] >= RUN_KINDS) /* tables hold the twelve kinds only */
            return;
        const int64_t *a = table + 1, *next = a + WIDTH[table[0]];
        switch (table[0]) {
        case RUN_EVAL:
            repro_eval_f32(a[0], ARG(1), ARG(2), ARG(3), ARG(4), ARG(5), ARG(6), ARG(7), ARG(8),
                           ARG(9));
            break;
        case RUN_COPY:
            repro_copy_f32(a[0], ARG(1), ARG(2), ARG(3), ARG(4));
            break;
        case RUN_SPMV:
            repro_spmv_f32(a[0], a[1], a[2], ARG(3), ARG(4), ARG(5), ARG(6), ARG(7), ARG(8),
                           ARG(9), ARG(10), ARG(11));
            break;
        case RUN_SWEEP:
            repro_sweep_f32(a[0], ARG(1), ARG(2), ARG(3), ARG(4), ARG(5), ARG(6), ARG(7), ARG(8),
                            ARG(9));
            break;
        case RUN_DWEVAL:
            repro_eval_dw(a[0], ARG(1), ARG(2), ARG(3), ARG(4), ARG(5), ARG(6), ARG(7), ARG(8),
                          ARG(9), ARG(10));
            break;
        case RUN_XSPMV:
            repro_xspmv(a[0], a[1], a[2], ARG(3), ARG(4), ARG(5), ARG(6), ARG(7), ARG(8),
                        ARG(9), ARG(10), ARG(11), ARG(12), ARG(13));
            break;
        case RUN_FACTOR:
            repro_factor_f32(a[0], a[1], ARG(2), ARG(3), ARG(4), ARG(5), ARG(6), ARG(7));
            break;
        case RUN_LEVELS:
            repro_levels(a[0], a[1], a[2], ARG(3), ARG(4), ARG(5), ARG(6));
            break;
        case RUN_REPEAT: {
            int64_t i = 0;
            for (; i < a[0]; i++)
                run(a[1], next);
            count(ARG(2), i);
            next = skip(a[1], next);
            e += a[1];
            break;
        }
        case RUN_WHILE: {
            int64_t i = 0;
            for (;;) {
                if ((a[3] || i > 0) && condition(ARG(0), ARG(1)) == 0.0)
                    break;
                if (i >= a[2])
                    break;
                i++;
                run(a[4], next);
            }
            count(ARG(5), i);
            next = skip(a[4], next);
            e += a[4];
            break;
        }
        case RUN_IF:
            if (condition(ARG(0), ARG(1)) != 0.0) {
                run(a[2], next);
                count(ARG(4), 1);
            } else {
                run(a[3], skip(a[2], next));
                count(ARG(5), 1);
            }
            next = skip(a[2] + a[3], next);
            e += a[2] + a[3];
            break;
        case RUN_LOG: {
            int64_t *cursor = ARG(2);
            if (*cursor < a[3])
                ((float *)ARG(1))[(*cursor)++] = *(const float *)ARG(0);
            break;
        }
        }
        table = next;
    }
}

/* Run the n entries of table in order: one call per fused kernel, or per
 * folded loop. */
void repro_run(int64_t n, const int64_t *table)
{
    run(n, table);
}
