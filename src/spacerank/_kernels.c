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
 * sum in eight lanes, as in hs_pass. Sweep k applies pair k - 1's update and takes pair k's dot,
 * each block of w updated before it enters that dot; a last loop applies pair T - 1's update. */
void hyperplane_pass(double *restrict w, int64_t d, const double *matrix, const int32_t *rows,
                     int64_t T, double alpha0)
{
    if (T < 1)
        return;
    const double *a = matrix + (int64_t)rows[0] * d, *b = a;
    double step = -0.0;  /* sweep 0's update: w + -0.0 * (b - a) is w, a -0.0 entry too */
    for (int64_t k = 0; k < T; k++) {
        const double *na = matrix + (int64_t)rows[2 * k] * d, *nb = matrix + (int64_t)rows[2 * k + 1] * d;
        double lane[8] = {0}, dot = 0.0;
        int64_t c = 0;
        for (; c + 8 <= d; c += 8)
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
        double rate = alpha0 * (1.0 - (double)k / (double)T);
        step = rate / (1.0 + exp(dot > 500.0 ? 500.0 : dot));  /* NaN stays NaN */
        a = na, b = nb;
    }
    for (int64_t c = 0; c < d; c++)
        w[c] += step * (b[c] - a[c]);
}
