/* The level loop of repro.solvers.sweeps.SweepPlan.run, in numpy's order.
 *
 * One call runs every level of a plan.  Per level it takes all products
 * vals[e] * x[cols[e]] before any row of the level is written (a
 * Gauss-Seidel row reads same-level neighbours, which must still be the
 * old values), then per row: the sum of its products, subtracted from
 * rhs[row], divided by diag[row], written to x[row].
 *
 * Each row's sum is np.add.reduceat over its own entries: the first
 * product plus numpy's pairwise sum of the rest (pairwise_sum in numpy's
 * loops_utils.h.src), all in float32.  An empty row sums to +0.0, a level
 * without entries subtracts nothing, diag == NULL divides by nothing.
 *
 * Built with -O2 -ffp-contract=off and never -ffast-math: a contracted
 * multiply-add or a reassociated sum would change the last bit, and
 * -ffast-math also sets flush-to-zero for the whole process.
 */

#include <stdint.h>

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

/* level_ptr[levels + 1] indexes rows; entry_ptr[rows + 1] indexes cols and
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
