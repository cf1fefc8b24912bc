/* The package's native kernels, in numpy's summation order.
 *
 * repro_sweep_f32 is the level loop of repro.solvers.sweeps.SweepPlan.run,
 * repro_spmv_f32 the whole-device SpMV of the fused kernels
 * (repro.sparse.sell.DeviceSpmv.run).  Both sum a row's products as
 * np.add.reduceat does: the first product plus numpy's pairwise sum of the
 * rest (pairwise_sum in numpy's loops_utils.h.src), all in float32.  An
 * empty row sums to +0.0.
 *
 * Built with -O2 -ffp-contract=off and never -ffast-math: a contracted
 * multiply-add or a reassociated sum would change the last bit, and
 * -ffast-math also sets flush-to-zero for the whole process.
 */

#include <stdint.h>
#include <string.h>

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
