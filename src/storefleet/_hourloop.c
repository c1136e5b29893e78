/* The hour loop of storefleet.engine.simulate for a Policy, in C, and
 * the two passes of sizing.min_single_store_capacity (at the end).
 *
 * A port of policies._step_kernel (all three kinds, cross-charging
 * included) and of simulate's Python loop around it, with the same
 * float operations in the same order, so that every output is
 * bit-identical to the Python specification.  Its rate and level check
 * and clamp port fleet's one check, the step that fleet.apply_step and
 * every Python hour walk take.  The engine builds it with
 * -O2 -ffp-contract=off: a fused multiply-add rounds once where the
 * specification rounds twice.
 *
 * Priority orders are stable insertion sorts that keep index order
 * among equal keys, as sorted(..., reverse=True) does.  An hour this
 * loop cannot step exactly as the specification does stops it with -1,
 * and the caller replays the run on the Python loop, which raises the
 * specification's own error:
 *   - a rate or level outside its store's bounds (RateViolation,
 *     CapacityViolation);
 *   - an exp that overflows, where math.exp raises OverflowError;
 *   - a NaN sort key, where Python's sort order is its own algorithm's;
 *   - cross-charging past 2 * n transfers (the termination assert).
 */
#include <math.h>
#include <stdint.h>

enum { VALUE = 0, GGDDF = 1, GRTEF = 2 }; /* index in Policy._KINDS */

/* Sort store indices by key, highest first when descending, else lowest
 * first; equal keys keep index order.  Returns -1 on a NaN key. */
static int rank(int64_t n, const double *key, int64_t *order, int descending)
{
    for (int64_t i = 0; i < n; i++) {
        double k = key[i];
        if (isnan(k))
            return -1;
        int64_t j = i;
        while (j > 0 && (descending ? key[order[j - 1]] < k : key[order[j - 1]] > k)) {
            order[j] = order[j - 1];
            j--;
        }
        order[j] = i;
    }
    return 0;
}

/* Step the fleet through values[0..steps) and return the number of hours
 * stepped (fewer than steps once the cumulative unserved energy exceeds
 * limit), or -1 for a run the caller must replay in Python.
 *
 * spec holds four doubles per store: capacity, output power, input
 * power and efficiency; lambdas the value policy's decay rates.  levels
 * enters as the initial levels and leaves as the final ones.  rates and
 * level_traces are steps x n, row-major; unserved_cum and spill_cum have
 * steps entries; served (n, zeroed) and *cross accumulate.  scratch holds
 * 8 * n doubles and order n indices. */
int64_t simulate_hours(int64_t n, int64_t steps, int64_t kind, const double *spec,
                       const double *lambdas, const double *values, double limit,
                       double slack, double eps, double *levels, double *rates,
                       double *level_traces, double *unserved_cum, double *spill_cum,
                       double *served, double *cross_out, double *scratch, int64_t *order)
{
    double *capacity = scratch, *out_power = scratch + n, *in_power = scratch + 2 * n;
    double *eta = scratch + 3 * n, *max_charge = scratch + 4 * n, *inv_out = scratch + 5 * n;
    double *v = scratch + 6 * n, *key = scratch + 7 * n;
    for (int64_t i = 0; i < n; i++) {
        capacity[i] = spec[4 * i];
        out_power[i] = spec[4 * i + 1];
        in_power[i] = spec[4 * i + 2];
        eta[i] = spec[4 * i + 3];
        max_charge[i] = eta[i] * in_power[i];
        inv_out[i] = isinf(out_power[i]) ? 0.0 : 1.0 / out_power[i];
    }
    int value = kind == VALUE && n > 1;
    /* One store, or grtef's fixed efficiency order, is ranked once. */
    int ranked_each_hour = n > 1 && kind != GRTEF;
    order[0] = 0;
    if (kind == GRTEF && rank(n, eta, order, 1))
        return -1;

    double cross = 0.0, cum_unserved = 0.0, cum_spill = 0.0;
    int64_t t = 0;
    while (t < steps) {
        double re = values[t];
        double *rate = rates + t * n;
        if (value) {
            for (int64_t i = 0; i < n; i++) {
                double x = -lambdas[i] * levels[i] * inv_out[i];
                v[i] = exp(x);
                if (isinf(v[i]) && isfinite(x))
                    return -1;
            }
        }
        for (int64_t i = 0; i < n; i++)
            rate[i] = 0.0;

        if (re >= 0.0) {
            if (ranked_each_hour) {
                for (int64_t i = 0; i < n; i++)
                    key[i] = value ? eta[i] * v[i] : (capacity[i] - levels[i]) * inv_out[i];
                if (rank(n, key, order, 1))
                    return -1;
            }
            double budget = re;
            for (int64_t k = 0; k < n; k++) {
                int64_t i = order[k];
                if (budget <= 0.0)
                    break;
                double e = eta[i];
                double draw = (capacity[i] - levels[i]) / e;
                if (in_power[i] < draw)
                    draw = in_power[i];
                if (budget < draw)
                    draw = budget;
                if (draw > 0.0) {
                    rate[i] = e * draw;
                    budget -= draw;
                }
            }
        } else {
            if (ranked_each_hour) {
                if (value) {
                    if (rank(n, v, order, 0))
                        return -1;
                } else {
                    for (int64_t i = 0; i < n; i++)
                        key[i] = levels[i] * inv_out[i];
                    if (rank(n, key, order, 1))
                        return -1;
                }
            }
            double demand = -re;
            for (int64_t k = 0; k < n; k++) {
                int64_t i = order[k];
                if (demand <= 0.0)
                    break;
                double d = levels[i];
                if (out_power[i] < d)
                    d = out_power[i];
                if (demand < d)
                    d = demand;
                if (d > 0.0) {
                    rate[i] = -d;
                    demand -= d;
                }
            }
        }

        if (value) {
            int64_t transfers = 0;
            for (;;) {
                int64_t s = -1;
                double sv = INFINITY;
                for (int64_t i = 0; i < n; i++) {
                    double r = rate[i];
                    if (r <= 0.0 && r + out_power[i] > eps && levels[i] + r > eps && v[i] < sv) {
                        s = i;
                        sv = v[i];
                    }
                }
                if (s < 0)
                    break;
                int64_t g = -1;
                double best_priority = -INFINITY;
                for (int64_t j = 0; j < n; j++) {
                    if (j == s)
                        continue;
                    double r = rate[j];
                    if (r >= 0.0 && max_charge[j] - r > eps && capacity[j] - levels[j] - r > eps) {
                        double priority = eta[j] * v[j];
                        if (priority > best_priority) {
                            best_priority = priority;
                            g = j;
                        }
                    }
                }
                if (g < 0 || !(sv < best_priority))
                    break;
                double eta_g = eta[g];
                /* min() of four: the first of equal values wins. */
                double x = levels[s] + rate[s];
                double y = out_power[s] + rate[s];
                if (y < x)
                    x = y;
                y = (capacity[g] - levels[g] - rate[g]) / eta_g;
                if (y < x)
                    x = y;
                y = in_power[g] - rate[g] / eta_g;
                if (y < x)
                    x = y;
                if (x <= eps)
                    break;
                rate[s] -= x;
                rate[g] += eta_g * x;
                if (++transfers > 2 * n)
                    return -1;
            }
        }

        double u = re;
        for (int64_t i = 0; i < n; i++) {
            double r = rate[i];
            if (r < 0.0)
                u -= r;
            else
                u -= r / eta[i];
        }
        /* max(u, 0.0) + 0.0: the + 0.0 turns -0.0 into 0.0. */
        double spill = 0.0, unserved = 0.0;
        if (re >= 0.0) {
            spill = (u < 0.0 ? 0.0 : u) + 0.0;
        } else {
            u = -u;
            unserved = (u < 0.0 ? 0.0 : u) + 0.0;
        }

        double *level_row = level_traces + t * n;
        for (int64_t i = 0; i < n; i++) {
            double r = rate[i];
            if (r < -out_power[i] - slack || r > max_charge[i] + slack)
                return -1;
            double level = levels[i] + r;
            if (level < -slack || level > capacity[i] + slack)
                return -1;
            if (level < 0.0)
                level = 0.0;
            else if (level > capacity[i])
                level = capacity[i];
            levels[i] = level;
            level_row[i] = level;
        }
        cum_unserved += unserved;
        cum_spill += spill;
        unserved_cum[t] = cum_unserved;
        spill_cum[t] = cum_spill;

        if (re < 0.0) {
            /* Store output splits between demand and cross-charge draw. */
            double output = 0.0, draw = 0.0;
            for (int64_t i = 0; i < n; i++) {
                double r = rate[i];
                if (r < 0.0)
                    output -= r;
                else if (r > 0.0)
                    draw += r / eta[i];
            }
            if (draw > 0.0)
                cross += draw;
            double served_total = output - draw;
            if (output > 0.0 && served_total > 0.0) {
                double share = served_total / output;
                for (int64_t i = 0; i < n; i++)
                    if (rate[i] < 0.0)
                        served[i] -= rate[i] * share;
            }
        } else {
            /* Any discharge during a surplus hour feeds other stores. */
            for (int64_t i = 0; i < n; i++)
                if (rate[i] < 0.0)
                    cross -= rate[i];
        }

        t++;
        if (cum_unserved > limit)
            break;
    }
    *cross_out = cross;
    return t;
}

/* The two passes of storefleet.sizing.min_single_store_capacity, ports of
 * its Python loops (_sequent_peak and _shortfall) with the same float
 * operations in the same order.  Python's max(0.0, x) returns x only when
 * x > 0.0, and min(x, capacity) returns capacity only when capacity < x;
 * the conditionals below keep those picks, so a -0.0 comes out as it does
 * in Python. */

/* The backward sequent-peak pass over values[0..steps): out[0] is the
 * largest level any hour must start with to serve every later hour,
 * out[1] the level hour 0 must start with. */
void sequent_peak(int64_t steps, const double *values, double efficiency, double *out)
{
    double need = 0.0, peak = 0.0;
    for (int64_t t = steps - 1; t >= 0; t--) {
        double re = values[t];
        if (re < 0.0) {
            need -= re;
        } else {
            double x = need - efficiency * re;
            need = x > 0.0 ? x : 0.0;
        }
        if (need > peak)
            peak = need;
    }
    out[0] = peak;
    out[1] = need;
}

/* The forward greedy check: the largest hourly shortfall beyond 1e-9 MWh
 * of a store of this capacity starting at initial, with unconstrained
 * power; the level is followed on below zero past a shortfall. */
double shortfall(int64_t steps, const double *values, double efficiency, double capacity,
                 double initial)
{
    double level = initial, worst = 0.0;
    for (int64_t t = 0; t < steps; t++) {
        double re = values[t];
        if (re >= 0.0) {
            double x = level + efficiency * re;
            level = capacity < x ? capacity : x;
        } else {
            if (level < -re - 1e-9 && -re - level > worst)
                worst = -re - level;
            level += re;
        }
    }
    return worst;
}
