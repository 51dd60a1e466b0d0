/* The two SGD loops of spacerank and the ranker's scores, built and called by native.py. */
#include <math.h>
#include <stdint.h>

/* On x86-64 glibc, which supplies ifunc, each kernel is built for AVX2 and for the base ISA, and
 * the loader picks one by CPU. Same bits: each sum keeps its order, -ffp-contract=off bars FMA. */
#if defined(__x86_64__) && defined(__GLIBC__) && defined(__has_attribute)
#if __has_attribute(target_clones)
#define CLONED __attribute__((target_clones("avx2", "default")))
#endif
#endif
#ifndef CLONED
#define CLONED
#endif

/* One shard of one hierarchical-softmax training pass: hs_train_step for
 * observations perm[start:end], with train_space's learning-rate schedule.
 *
 * matrix (items x d) and nodes (internal nodes x d) are float32 and updated
 * in place. Token t's path is path[offsets[t]:offsets[t + 1]] with code bits
 * code[...]. grad is d floats of scratch. */
CLONED void hs_pass(float *matrix, float *nodes, int64_t d, const int64_t *perm, int64_t start,
                    int64_t end, const int64_t *rows, const int32_t *tokens, const int64_t *offsets,
                    const int32_t *path, const uint8_t *code, int64_t pass_base, int64_t total_steps,
                    double alpha0, double alpha_min, float *grad)
{
    for (int64_t k = start; k < end; k++) {
        int64_t i = perm[k], t = tokens[i];
        double alpha = alpha0 * (1.0 - (double)(pass_base + k) / (double)total_steps);
        float a = (float)(alpha < alpha_min ? alpha_min : alpha);
        float *v = matrix + rows[i] * d;
        for (int64_t c = 0; c < d; c++)
            grad[c] = 0.0f;
        for (int64_t p = offsets[t]; p < offsets[t + 1]; p++) {
            float *n = nodes + (int64_t)path[p] * d;
            float part[8] = {0}, dot = 0.0f;  /* eight lanes, summed in a fixed order */
            int64_t c = 0;
            for (; c + 8 <= d; c += 8)
                for (int j = 0; j < 8; j++)
                    part[j] += n[c + j] * v[c + j];
            for (int j = 0; j < 8; j++)
                dot += part[j];
            for (; c < d; c++)
                dot += n[c] * v[c];
            double x = dot < -500.0 ? -500.0 : dot > 500.0 ? 500.0 : dot;
            float e = (float)(1.0 / (1.0 + exp(-x)) - (1.0 - code[p]));
            float g = a * e;
            for (c = 0; c < d; c++) {  /* grad against the node row before its update */
                grad[c] += e * n[c];
                n[c] -= g * v[c];
            }
        }
        for (int64_t c = 0; c < d; c++)
            v[c] -= a * grad[c];
    }
}

/* One user's hyperplane and scores on float32 rows (cf, cb), each value widened to double before
 * any arithmetic, so a row gives the bits of its exact double cast. hyperplane_pass is
 * ranker.train_hyperplane's per-pair loop over a stream of T row pairs (a, b) of the matrix
 * (items x d), updating w (d, apart from the matrix) in place. Dots sum in eight lanes, as in
 * hs_pass. Sweep k applies pair k - 1's update and takes pair k's dot, each block of w updated
 * before it enters that dot; a last loop applies pair T - 1's update. scores sets scores[i] to
 * w . (row i) for the n rows. */
CLONED void hyperplane_pass_float32(double *restrict w, int64_t d, const float *matrix,
                                    const int32_t *rows, int64_t T, double alpha0)
{
    if (T < 1)
        return;
    const float *a = matrix + (int64_t)rows[0] * d, *b = a;
    double step = -0.0;  /* sweep 0's update: w + -0.0 * (b - a) is w, a -0.0 entry too */
    for (int64_t k = 0; k < T; k++) {
        const float *na = matrix + (int64_t)rows[2 * k] * d;
        const float *nb = matrix + (int64_t)rows[2 * k + 1] * d;
        double lane[8] = {0}, dot = 0.0;
        int64_t c = 0;
        for (; c + 8 <= d; c += 8)
            for (int j = 0; j < 8; j++) {
                w[c + j] += step * ((double)b[c + j] - (double)a[c + j]);
                lane[j] += w[c + j] * ((double)nb[c + j] - (double)na[c + j]);
            }
        for (int j = 0; j < 8; j++)
            dot += lane[j];
        for (; c < d; c++) {
            w[c] += step * ((double)b[c] - (double)a[c]);
            dot += w[c] * ((double)nb[c] - (double)na[c]);
        }
        double rate = alpha0 * (1.0 - (double)k / (double)T);
        step = rate / (1.0 + exp(dot > 500.0 ? 500.0 : dot));  /* NaN stays NaN */
        a = na, b = nb;
    }
    for (int64_t c = 0; c < d; c++)
        w[c] += step * ((double)b[c] - (double)a[c]);
}

CLONED void scores_float32(double *restrict scores, const double *w, int64_t d, const float *matrix,
                           int64_t n)
{
    for (int64_t i = 0; i < n; i++) {
        const float *v = matrix + i * d;
        double lane[8] = {0}, dot = 0.0;
        int64_t c = 0;
        for (; c + 8 <= d; c += 8)
            for (int j = 0; j < 8; j++)
                lane[j] += w[c + j] * (double)v[c + j];
        for (int j = 0; j < 8; j++)
            dot += lane[j];
        for (; c < d; c++)
            dot += w[c] * (double)v[c];
        scores[i] = dot;
    }
}

/* The same on int8 levels (vsm), row i standing for the doubles levels[i][c] * scale[i]: the bits
 * of those float64 rows. Each sweep widens pair k's v_b - v_a CHUNK columns at a time into a buffer
 * that stays in L1 and runs the eight-lane loop over it, applying pair k - 1's update from before
 * (d doubles of scratch), where pair k's chunk then goes. Levels widened inside the eight-lane loop
 * are not vectorized, and a whole row's buffer leaves L1: both ran slower. scores widens each row
 * CHUNK columns at a time. */
#define CHUNK 256 /* a multiple of 8, so each column keeps its lane */

CLONED void hyperplane_pass_int8(double *restrict w, int64_t d, const int8_t *levels,
                                 const double *scale, const int32_t *rows, int64_t T, double alpha0,
                                 double *restrict before)
{
    if (T < 1)
        return;
    double step = -0.0, now[CHUNK];  /* sweep 0's update: w + -0.0 * 0.0 is w, a -0.0 entry too */
    int64_t whole = d - d % 8;
    for (int64_t c = 0; c < d; c++)
        before[c] = 0.0;
    for (int64_t k = 0; k < T; k++) {
        const int8_t *a = levels + (int64_t)rows[2 * k] * d, *b = levels + (int64_t)rows[2 * k + 1] * d;
        double sa = scale[rows[2 * k]], sb = scale[rows[2 * k + 1]], lane[8] = {0}, dot = 0.0;
        for (int64_t start = 0; start < whole; start += CHUNK) {
            int64_t m = whole - start < CHUNK ? whole - start : CHUNK;
            for (int64_t i = 0; i < m; i++)
                now[i] = (double)b[start + i] * sb - (double)a[start + i] * sa;
            for (int64_t i = 0; i < m; i += 8)
                for (int j = 0; j < 8; j++) {
                    w[start + i + j] += step * before[start + i + j];
                    lane[j] += w[start + i + j] * now[i + j];
                }
            for (int64_t i = 0; i < m; i++)
                before[start + i] = now[i];
        }
        for (int j = 0; j < 8; j++)
            dot += lane[j];
        for (int64_t c = whole; c < d; c++) {
            double next = (double)b[c] * sb - (double)a[c] * sa;
            w[c] += step * before[c];
            dot += w[c] * next;
            before[c] = next;
        }
        double rate = alpha0 * (1.0 - (double)k / (double)T);
        step = rate / (1.0 + exp(dot > 500.0 ? 500.0 : dot));  /* NaN stays NaN */
    }
    for (int64_t c = 0; c < d; c++)
        w[c] += step * before[c];
}

CLONED void scores_int8(double *restrict scores, const double *w, int64_t d, const int8_t *levels,
                        const double *scale, int64_t n)
{
    double row[CHUNK];
    int64_t whole = d - d % 8;
    for (int64_t i = 0; i < n; i++) {
        const int8_t *v = levels + i * d;
        double s = scale[i], lane[8] = {0}, dot = 0.0;
        for (int64_t start = 0; start < whole; start += CHUNK) {
            int64_t m = whole - start < CHUNK ? whole - start : CHUNK;
            for (int64_t c = 0; c < m; c++)
                row[c] = (double)v[start + c] * s;
            for (int64_t c = 0; c < m; c += 8)
                for (int j = 0; j < 8; j++)
                    lane[j] += w[start + c + j] * row[c + j];
        }
        for (int j = 0; j < 8; j++)
            dot += lane[j];
        for (int64_t c = whole; c < d; c++)
            dot += w[c] * ((double)v[c] * s);
        scores[i] = dot;
    }
}
