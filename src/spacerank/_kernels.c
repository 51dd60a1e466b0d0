/* The two SGD loops of spacerank, built and called by native.py. */
#include <math.h>
#include <stdint.h>

/* One shard of one hierarchical-softmax training pass: hs_train_step for
 * observations perm[start:end], with train_space's learning-rate schedule.
 *
 * matrix (items x d) and nodes (internal nodes x d) are float32 and updated
 * in place. Token t's path is path[offsets[t]:offsets[t + 1]] with code bits
 * code[...]. grad is d floats of scratch. */
void hs_pass(float *matrix, float *nodes, int64_t d, const int64_t *perm, int64_t start,
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

/* One user's hyperplane: ranker.train_hyperplane's per-pair loop over a stream of T row pairs
 * (a, b) of the float64 matrix (items x d), updating w (d, apart from the matrix) in place. Dots
 * sum in eight lanes, as in hs_pass, and pair k's update shares one sweep over w with pair k + 1's
 * dot: each block of w is updated before it enters that dot, so the sums are those of the update
 * and then the dot. */
void hyperplane_pass(double *restrict w, int64_t d, const double *matrix, const int32_t *rows,
                     int64_t T, double alpha0)
{
    if (T < 1)
        return;
    const double *a = matrix + (int64_t)rows[0] * d, *b = matrix + (int64_t)rows[1] * d;
    double part[8] = {0}, dot = 0.0;  /* pair 0's dot, summed as the sweeps sum the others */
    int64_t c = 0;
    for (; c + 8 <= d; c += 8)
        for (int j = 0; j < 8; j++)
            part[j] += w[c + j] * (b[c + j] - a[c + j]);
    for (int j = 0; j < 8; j++)
        dot += part[j];
    for (; c < d; c++)
        dot += w[c] * (b[c] - a[c]);
    for (int64_t k = 0; k < T; k++) {
        double rate = alpha0 * (1.0 - (double)k / (double)T);
        double step = rate / (1.0 + exp(dot > 500.0 ? 500.0 : dot));  /* NaN stays NaN */
        int64_t n = k + 1 < T ? k + 1 : k;  /* the last sweep's dot goes unused */
        const double *na = matrix + (int64_t)rows[2 * n] * d, *nb = matrix + (int64_t)rows[2 * n + 1] * d;
        double lane[8] = {0};
        dot = 0.0;
        for (c = 0; c + 8 <= d; c += 8)
            for (int j = 0; j < 8; j++) {
                w[c + j] += step * (b[c + j] - a[c + j]);
                lane[j] += w[c + j] * (nb[c + j] - na[c + j]);
            }
        for (int j = 0; j < 8; j++)
            dot += lane[j];
        for (; c < d; c++) {
            w[c] += step * (b[c] - a[c]);
            dot += w[c] * (nb[c] - na[c]);
        }
        a = na, b = nb;
    }
}
