/* k explicit steps of the finite-difference oracle (frontsim/oracle.py).
 *
 * oracle._stepper states the step and its checks.  Each step here performs
 * its IEEE operations in its order, and so gives the same bits; build it
 * with -ffp-contract=off and without -ffast-math, so that no product and
 * sum fuse and nothing is reordered.
 *
 * U is u's row with two ghost cells a side (n + 4 values), V is v's n
 * values, W a scratch row of n values, and c the ten step constants of
 * oracle._step_constants, in its order.  New u lands in W and is copied
 * into U once every neighbour of the old one is read, in the pass that
 * takes the extremes the checks read; v is updated in place, since its new
 * value reads only its own cell.  The three rows do not overlap.
 *
 * The checks keep numpy's semantics: min(v) is nan once any v is; the
 * clamp acts as np.maximum(v, 0) does (nan stays, -0.0 becomes +0.0); and
 * once any u is nan, max(u) and min(u) are nan and fail their comparisons.
 * The pole check returns 1 and the |u| check 2, with *done the number of
 * the failing step (1 for the first of this call) and *v_min its min(v);
 * on 0, all k steps were taken and *done is k.
 */

#include <math.h>

int fhn_steps(double *restrict U, double *restrict V, double *restrict W, long n,
              const double *restrict c, long k, long *done, double *v_min)
{
    const double r1 = c[0], r2 = c[1], kv = c[2], p3 = c[3], p2 = c[4],
                 p1 = c[5], dt_g1 = c[6], dt_g2 = c[7], g3 = c[8], g4 = c[9];
    double *u = U + 2;

    for (long step = 1; step <= k; step++) {
        U[0] = U[4];
        U[1] = U[3];
        U[n + 3] = U[n - 1];
        U[n + 2] = U[n];
        for (long i = 0; i < n; i++) {
            double ui = u[i], vi = V[i];
            double s = (u[i + 1] + u[i - 1]) * r1 - (u[i + 2] + u[i - 2]) * r2;
            double t = ((ui * p3 + p2) * ui + p1) * ui + s;
            double z = ui * dt_g1 - vi / (vi * g3 + g4) * dt_g2;
            W[i] = t - vi * kv;
            V[i] = vi + z;
        }
        /* the extremes of the non-nan values, and whether any is nan */
        double vm = V[0], um = W[0], uM = W[0];
        int v_nan = 0, u_nan = 0;
        for (long i = 0; i < n; i++) {
            double x = V[i], y = W[i];
            vm = x < vm ? x : vm;
            um = y < um ? y : um;
            uM = y > uM ? y : uM;
            v_nan |= x != x;
            u_nan |= y != y;
            u[i] = y;
        }
        if (v_nan)
            vm = NAN;
        if (!(vm * g3 + g4 > 0.0)) {
            *done = step;
            *v_min = vm;
            return 1;
        }
        if (!(vm > 0.0)) {
            for (long i = 0; i < n; i++)
                if (!(V[i] > 0.0) && V[i] == V[i])
                    V[i] = 0.0;
        }
        if (!u_nan && (uM > 10.0 || um < -10.0)) {
            *done = step;
            *v_min = vm;
            return 2;
        }
    }
    *done = k;
    return 0;
}
