/*
 * Native body of repro.sc.kernels.fused_conv_counts.
 *
 * One loop serves every accumulation mode through the OR-group table
 * group_k (G, S) of repro.sc.kernels.group_structure. For each sample n
 * and output position q of the caller's [p_lo, p_hi) span:
 *
 *   1. gather: for every group member kk whose quantized activation
 *      value v is non-zero (value 0 is the all-zero stream, so it is
 *      skipped for free) and is not the APC padding sentinel K, keep a
 *      pointer to its stream table + (act_rows[kk] * levels + v) * words;
 *   2. for each group with live members and each word, OR the products
 *      a & w of the positive and negative weight channels in the
 *      accumulator row (weights are laid out (K, words, 2 * Cout), so
 *      the inner loop runs contiguously over the channels);
 *   3. add popcount(positive) - popcount(negative) of each merged word
 *      to the channel's signed count.
 *
 * Every index is bounds-checked: a value outside [0, levels) (a NaN
 * activation quantizes to INT64_MIN) or a table row outside [0, rows)
 * returns an error code before any out-of-range read.
 */
#include <stdint.h>
#include <stdlib.h>
#include <string.h>

enum { SC_OK = 0, SC_BAD_VALUE = 1, SC_BAD_ROW = 2, SC_NO_MEMORY = 3 };

int sc_group_counts(
    const uint64_t *table, int64_t rows, int64_t levels, int64_t words,
    const int64_t *act_rows,  /* (K,) table row of each activation SNG */
    const int64_t *cols,      /* (N, K, P) quantized activation values */
    const uint64_t *weights,  /* (K, words, 2 * Cout): wp channels, wn channels */
    const int64_t *group_k,   /* (G, S) flat kernel index, sentinel K */
    int64_t n, int64_t k, int64_t p, int64_t cout, int64_t g, int64_t s,
    int64_t p_lo, int64_t p_hi,
    int64_t *counts,          /* (N, Cout, P) signed counts, written */
    int64_t *nnz)             /* non-zero activation values seen, written */
{
    const int64_t m = 2 * cout;
    int64_t live = 0;
    int rc = SC_OK;
    for (int64_t j = 0; j < k; j++) {
        if (act_rows[j] < 0 || act_rows[j] >= rows) {
            *nnz = 0;
            return SC_BAD_ROW;
        }
    }
    const uint64_t **act = malloc((size_t)(g * s + 1) * sizeof *act);
    const uint64_t **wrow = malloc((size_t)(g * s + 1) * sizeof *wrow);
    int64_t *ends = malloc((size_t)(g + 1) * sizeof *ends);
    uint64_t *acc = malloc((size_t)(words * m + 1) * sizeof *acc);
    int64_t *total = malloc((size_t)(cout + 1) * sizeof *total);
    if (!act || !wrow || !ends || !acc || !total) {
        rc = SC_NO_MEMORY;
        goto done;
    }
    for (int64_t i = 0; i < n; i++) {
        const int64_t *col = cols + i * k * p;
        for (int64_t q = p_lo; q < p_hi; q++) {
            int64_t used = 0;
            for (int64_t gi = 0; gi < g; gi++) {
                for (int64_t j = 0; j < s; j++) {
                    const int64_t kk = group_k[gi * s + j];
                    if (kk == k)
                        continue;
                    const int64_t v = col[kk * p + q];
                    if ((uint64_t)v >= (uint64_t)levels) {
                        rc = SC_BAD_VALUE;
                        goto done;
                    }
                    if (v == 0)
                        continue;
                    act[used] = table + (act_rows[kk] * levels + v) * words;
                    wrow[used] = weights + kk * words * m;
                    used++;
                }
                ends[gi] = used;
            }
            live += used;
            memset(total, 0, (size_t)cout * sizeof *total);
            int64_t start = 0;
            for (int64_t gi = 0; gi < g; gi++) {
                const int64_t end = ends[gi];
                if (end == start)
                    continue;
                for (int64_t w = 0; w < words; w++) {
                    const uint64_t a = act[start][w];
                    const uint64_t *wr = wrow[start] + w * m;
                    uint64_t *ac = acc + w * m;
                    for (int64_t c = 0; c < m; c++)
                        ac[c] = a & wr[c];
                }
                for (int64_t e = start + 1; e < end; e++) {
                    for (int64_t w = 0; w < words; w++) {
                        const uint64_t a = act[e][w];
                        const uint64_t *wr = wrow[e] + w * m;
                        uint64_t *ac = acc + w * m;
                        for (int64_t c = 0; c < m; c++)
                            ac[c] |= a & wr[c];
                    }
                }
                for (int64_t w = 0; w < words; w++) {
                    const uint64_t *ac = acc + w * m;
                    for (int64_t c = 0; c < cout; c++)
                        total[c] += __builtin_popcountll(ac[c])
                                    - __builtin_popcountll(ac[cout + c]);
                }
                start = end;
            }
            for (int64_t c = 0; c < cout; c++)
                counts[(i * cout + c) * p + q] = total[c];
        }
    }
done:
    free(act);
    free(wrow);
    free(ends);
    free(acc);
    free(total);
    *nnz = live;
    return rc;
}
