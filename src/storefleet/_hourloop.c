/* The hour loop of storefleet.engine.simulate for a Policy, in C, the
 * two passes of sizing.min_single_store_capacity, the normal draws and
 * AR(1) noise of traces.synthesize and the row writer of
 * engine.write_simulation_csv (at the end), which prints each
 * cell exactly as Python's repr does with Schubfach (R. Giulietti, "The
 * Schubfach way to render doubles", 2020).  The writer formats a file's
 * rows in chunks on the calling thread and one helper thread, and the
 * calling thread writes the chunks to the file in row order.  No
 * function here keeps writable static state.
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
#include <errno.h>
#include <math.h>
#include <pthread.h>
#include <stdint.h>
#include <string.h>
#include <unistd.h>

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
 * 9 * n doubles and order n indices.
 *
 * The value policy's v[i] = exp(-lambda * level / P) is computed again
 * only for a store whose level has other bits than at its last
 * computation: the same inputs give the same v. */
int64_t simulate_hours(int64_t n, int64_t steps, int64_t kind, const double *spec,
                       const double *lambdas, const double *values, double limit,
                       double slack, double eps, double *levels, double *rates,
                       double *level_traces, double *unserved_cum, double *spill_cum,
                       double *served, double *cross_out, double *scratch, int64_t *order)
{
    double *capacity = scratch, *out_power = scratch + n, *in_power = scratch + 2 * n;
    double *eta = scratch + 3 * n, *max_charge = scratch + 4 * n, *inv_out = scratch + 5 * n;
    double *v = scratch + 6 * n, *key = scratch + 7 * n, *v_level = scratch + 8 * n;
    for (int64_t i = 0; i < n; i++) {
        v_level[i] = NAN; /* validate_state admits no NaN level */
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
                if (memcmp(&levels[i], &v_level[i], sizeof(double)) == 0)
                    continue;
                double x = -lambdas[i] * levels[i] * inv_out[i];
                v[i] = exp(x);
                if (isinf(v[i]) && isfinite(x))
                    return -1;
                v_level[i] = levels[i];
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

/* The wind noise of storefleet.traces.synthesize, a port of traces._ar1:
 * out[0] = x0, then x = a * x + sd * eps[t] for each later hour t, two
 * products and their sum rounded one at a time, as Python rounds them. */
void ar1(int64_t n, const double *eps, double a, double sd, double x0, double *out)
{
    double x = x0;
    out[0] = x;
    for (int64_t t = 1; t < n; t++) {
        x = a * x + sd * eps[t];
        out[t] = x;
    }
}

/* The normal draws of storefleet.traces.synthesize: out[0..n) is
 * numpy.random.default_rng(seed).standard_normal(n), bit for bit, where
 * words[0..nwords) are the seed's 32-bit words, least significant first
 * ([0] for seed 0).  The seed is mixed as numpy's SeedSequence mixes it
 * and steps PCG64 (M. E. O'Neill, "PCG: A family of simple fast
 * space-efficient statistically good algorithms for random number
 * generation", 2014), ported here; the draws are made by numpy's own
 * ziggurat sampler (Marsaglia & Tsang, "The ziggurat method for
 * generating random variables", 2000), random_standard_normal_fill from
 * the libnpyrandom.a archive numpy ships for C users.  The engine links
 * that archive and defines STOREFLEET_NPYRANDOM where it finds it;
 * without it this returns -1 and the caller draws through numpy.random. */
#ifdef STOREFLEET_NPYRANDOM
/* numpy/random/bitgen.h's bit generator: the sampler calls next_uint64
 * and next_double only. */
typedef struct bitgen {
    void *state;
    uint64_t (*next_uint64)(void *st);
    uint32_t (*next_uint32)(void *st);
    double (*next_double)(void *st);
    uint64_t (*next_raw)(void *st);
} bitgen_t;

void random_standard_normal_fill(bitgen_t *bitgen_state, intptr_t cnt, double *out);

typedef unsigned __int128 u128;

typedef struct {
    u128 state, inc;
} pcg64_t;

/* One PCG64 step and its XSL-RR output. */
static uint64_t pcg64_next64(void *st)
{
    pcg64_t *rng = st;
    rng->state = rng->state * ((u128)UINT64_C(0x2360ed051fc65da4) << 64 | UINT64_C(0x4385df649fccf645))
                 + rng->inc;
    uint64_t x = (uint64_t)(rng->state >> 64) ^ (uint64_t)rng->state;
    unsigned rot = (unsigned)(rng->state >> 122);
    return x >> rot | x << (-rot & 63);
}

static double pcg64_next_double(void *st)
{
    return (pcg64_next64(st) >> 11) * (1.0 / 9007199254740992.0);
}

/* SeedSequence's hashmix and mix on 32-bit words. */
static uint32_t hashmix(uint32_t value, uint32_t *hash)
{
    value ^= *hash;
    *hash *= UINT32_C(0x931e8875);
    value *= *hash;
    return value ^ value >> 16;
}

static uint32_t mix(uint32_t x, uint32_t y)
{
    uint32_t r = UINT32_C(0xca01f9dd) * x - UINT32_C(0x4973f715) * y;
    return r ^ r >> 16;
}

int64_t normal_draws(int64_t nwords, const uint32_t *words, int64_t n, double *out)
{
    /* SeedSequence(seed): a pool of 4 words mixed from the seed's words. */
    uint32_t pool[4], hash = UINT32_C(0x43b0d7e5);
    for (int i = 0; i < 4; i++)
        pool[i] = hashmix(i < nwords ? words[i] : 0, &hash);
    for (int src = 0; src < 4; src++)
        for (int dst = 0; dst < 4; dst++)
            if (src != dst)
                pool[dst] = mix(pool[dst], hashmix(pool[src], &hash));
    for (int64_t src = 4; src < nwords; src++)
        for (int dst = 0; dst < 4; dst++)
            pool[dst] = mix(pool[dst], hashmix(words[src], &hash));
    /* generate_state(4, uint64): 8 words from the pool, paired low first. */
    uint64_t seed[4] = {0};
    hash = UINT32_C(0x8b51f9dd);
    for (int i = 0; i < 8; i++) {
        uint32_t value = pool[i % 4] ^ hash;
        hash *= UINT32_C(0x58f38ded);
        value *= hash;
        seed[i / 2] |= (uint64_t)(value ^ value >> 16) << (i % 2 * 32);
    }
    /* PCG64(seed): pcg_setseq_128_srandom_r with state seed[0:2] and
     * sequence seed[2:4], each 128-bit value high word first. */
    pcg64_t rng = {0, ((u128)seed[2] << 64 | seed[3]) << 1 | 1};
    pcg64_next64(&rng);
    rng.state += (u128)seed[0] << 64 | seed[1];
    pcg64_next64(&rng);
    bitgen_t bitgen = {&rng, pcg64_next64, NULL, pcg64_next_double, pcg64_next64};
    random_standard_normal_fill(&bitgen, (intptr_t)n, out);
    return 0;
}
#else
int64_t normal_draws(int64_t nwords, const uint32_t *words, int64_t n, double *out)
{
    (void)nwords;
    (void)words;
    (void)n;
    (void)out;
    return -1;
}
#endif

/* The rows of storefleet.engine.write_simulation_csv, each cell exactly as
 * Python's repr(float) prints it.  repr prints the shortest decimal that
 * reads back as the same double, the one closest to it among those, ties
 * to the even digit; Schubfach (R. Giulietti, "The Schubfach way to
 * render doubles", 2020) finds that decimal with integer arithmetic.
 * Its table g of 128-bit powers of ten comes from the caller: row e + 292
 * holds g(e) = floor(10^e * 2^-r) + 1 with r = floor(log2 10^e) - 127,
 * for e = -292..324, as {high, low} 64-bit halves. */

/* The top 64 bits of the 192-bit product g * cp, rounded to odd: or-ed
 * with 1 when the middle 64 bits exceed 1 (Schubfach's rop). */
static uint64_t round_to_odd(const uint64_t *g, uint64_t cp)
{
    unsigned __int128 low = (unsigned __int128)g[1] * cp;
    unsigned __int128 mid = (unsigned __int128)g[0] * cp + (uint64_t)(low >> 64);
    return (uint64_t)(mid >> 64) | ((uint64_t)mid > 1);
}

/* The shortest round-trip decimal of the finite nonzero double with
 * biased exponent be and significand field f: digits * 10^exp10. */
static uint64_t shortest(const uint64_t (*g)[2], int be, uint64_t f, int *exp10)
{
    uint64_t c;
    int q;
    if (be != 0) {
        c = f | (UINT64_C(1) << 52);
        q = be - 1075;
        /* An integer below 2^53 is its own shortest decimal. */
        if (-52 <= q && q <= 0 && (c & ((UINT64_C(1) << -q) - 1)) == 0) {
            *exp10 = 0;
            return c >> -q;
        }
    } else {
        c = f;
        q = -1074;
    }
    /* The rounding interval [cbl, cbr] / 4 * 2^q around cb / 4 * 2^q; at a
     * power of two the lower neighbour is half as far away. */
    int lower_closer = f == 0 && be > 1;
    uint64_t cb = c << 2, cbr = cb + 2, cbl = lower_closer ? cb - 1 : cb - 2;
    /* k = floor(log10 2^q), or floor(log10(3/4 * 2^q)); arithmetic shifts. */
    int k = (q * 1262611 - (lower_closer ? 524031 : 0)) >> 22;
    int h = q + ((-k * 1741647) >> 19) + 1; /* in [1, 4] */
    const uint64_t *gk = g[-k + 292];
    uint64_t vbl = round_to_odd(gk, cbl << h);
    uint64_t vb = round_to_odd(gk, cb << h);
    uint64_t vbr = round_to_odd(gk, cbr << h);
    /* The interval's ends belong to it only for an even significand. */
    uint64_t odd = c & 1, lower = vbl + odd, upper = vbr - odd;

    uint64_t s = vb >> 2;
    if (s >= 10) {
        /* One digit fewer: at most one of sp and sp + 1 lies inside. */
        uint64_t sp = s / 10;
        int up_inside = lower <= 40 * sp, wp_inside = 40 * sp + 40 <= upper;
        if (up_inside != wp_inside) {
            *exp10 = k + 1;
            return sp + wp_inside;
        }
    }
    int u_inside = lower <= 4 * s, w_inside = 4 * s + 4 <= upper;
    *exp10 = k;
    if (u_inside != w_inside)
        return s + w_inside;
    /* Both inside: the nearer, and on a tie the even one. */
    uint64_t mid = 4 * s + 2;
    return s + (vb > mid || (vb == mid && (s & 1)));
}

/* Two decimal digits per entry, "00" to "99". */
static const char digit_pairs[201] =
    "0001020304050607080910111213141516171819"
    "2021222324252627282930313233343536373839"
    "4041424344454647484950515253545556575859"
    "6061626364656667686970717273747576777879"
    "8081828384858687888990919293949596979899";

/* Write the decimal digits of d to end just before end; return where they
 * start.  Two digits come from each division by 100; above 10^8 the low
 * eight digits are split off with one division and run in 32 bits. */
static char *digits_before(uint64_t d, char *end)
{
    char *p = end;
    while (d >= 100000000) {
        uint32_t low = (uint32_t)(d % 100000000);
        d /= 100000000;
        for (int i = 0; i < 4; i++) {
            p -= 2;
            memcpy(p, digit_pairs + 2 * (low % 100), 2);
            low /= 100;
        }
    }
    uint32_t high = (uint32_t)d;
    while (high >= 100) {
        p -= 2;
        memcpy(p, digit_pairs + 2 * (high % 100), 2);
        high /= 100;
    }
    if (high >= 10) {
        p -= 2;
        memcpy(p, digit_pairs + 2 * high, 2);
    } else {
        *--p = (char)('0' + high);
    }
    return p;
}

/* Write x as repr(x) prints it; return the end of the text.  Byte loops
 * lay the digits out, so nothing is written past the text's end. */
static char *format_double(const uint64_t (*g)[2], double x, char *p)
{
    uint64_t bits;
    memcpy(&bits, &x, sizeof bits);
    int be = (int)(bits >> 52) & 0x7ff;
    uint64_t f = bits & ((UINT64_C(1) << 52) - 1);
    if (be == 0x7ff && f != 0) {
        memcpy(p, "nan", 3); /* never signed */
        return p + 3;
    }
    if (bits >> 63)
        *p++ = '-';
    if (be == 0x7ff) {
        memcpy(p, "inf", 3);
        return p + 3;
    }
    if (be == 0 && f == 0) {
        memcpy(p, "0.0", 3);
        return p + 3;
    }
    int e;
    char digits[20];
    char *last = digits + sizeof digits;
    char *first = digits_before(shortest(g, be, f, &e), last);
    /* Trailing zeros move into the exponent; the first digit is nonzero. */
    while (last[-1] == '0') {
        last--;
        e++;
    }
    int n = (int)(last - first);
    int point = e + n; /* digits before the decimal point */
    if (-4 < point && point <= 16) {
        if (point <= 0) {
            *p++ = '0';
            *p++ = '.';
            for (int i = point; i < 0; i++)
                *p++ = '0';
        } else if (point < n) {
            for (int i = 0; i < point; i++)
                *p++ = *first++;
            *p++ = '.';
        } else {
            while (first < last)
                *p++ = *first++;
            for (int i = n; i < point; i++)
                *p++ = '0';
            *p++ = '.';
            *p++ = '0';
        }
        while (first < last)
            *p++ = *first++;
        return p;
    }
    *p++ = *first++;
    if (first < last) {
        *p++ = '.';
        while (first < last)
            *p++ = *first++;
    }
    int exponent = point - 1;
    *p++ = 'e';
    *p++ = exponent < 0 ? '-' : '+';
    if (exponent < 0)
        exponent = -exponent;
    if (exponent >= 100) {
        *p++ = (char)('0' + exponent / 100);
        exponent %= 100;
    }
    memcpy(p, digit_pairs + 2 * exponent, 2);
    return p + 2;
}

/* Write the lines of hours first_hour to first_hour + rows - 1 to out and
 * return the number of bytes written: one chunk of write_rows.  The first
 * row is always formatted; a later cell with the same bits as the cell
 * above copies that cell's text, found through spans. */
static int64_t format_block(int64_t rows, int64_t cols, int64_t first_hour,
                            const double *const *bases, const int64_t *strides, char *out,
                            int64_t *spans, const uint64_t (*g)[2])
{
    char *p = out;
    for (int64_t r = 0; r < rows; r++) {
        int64_t t = first_hour + r;
        char digits[20];
        char *first = digits_before((uint64_t)t, digits + sizeof digits);
        size_t n = (size_t)(digits + sizeof digits - first);
        memcpy(p, first, n);
        p += n;
        for (int64_t j = 0; j < cols; j++) {
            *p++ = ',';
            const double *cell = bases[j] + t * strides[j];
            int64_t *span = spans + 2 * j;
            if (r > 0 && memcmp(cell, cell - strides[j], sizeof(double)) == 0) {
                memcpy(p, out + span[0], (size_t)span[1]);
                p += span[1];
            } else {
                char *start = p;
                p = format_double(g, *cell, p);
                span[0] = start - out;
                span[1] = p - start;
            }
        }
        *p++ = '\n';
    }
    return p - out;
}

/* One file's rows in chunks of chunk_rows rows (the last may be shorter),
 * shared by the calling thread and one helper.  Chunk k is formatted into
 * slot k % slots of the buffer, each slot chunk_rows * (20 + 25 * cols)
 * bytes, and its slot is free again once chunk k - slots is written.  The
 * fields below the lock change only under it. */
typedef struct {
    int64_t chunks, chunk_rows, rows, cols, first_hour, slots, slot_bytes;
    const double *const *bases;
    const int64_t *strides;
    char *buffer;
    const uint64_t (*g)[2];
    int64_t *helper_spans;
    pthread_mutex_t lock;
    pthread_cond_t changed;
    int64_t claimed; /* chunks handed out, in order */
    int64_t written; /* chunks written to the file, in order */
    int64_t *ready;  /* per slot: the chunk whose text is finished there, or -1 */
    int64_t *sizes;  /* per slot: that text's length */
    int stop;        /* a write failed: the helper takes no more chunks */
} rows_t;

/* Format chunk k into its slot with this thread's spans; return its length. */
static int64_t format_chunk(rows_t *f, int64_t k, int64_t *spans)
{
    int64_t first = k * f->chunk_rows, rows = f->rows - first;
    if (rows > f->chunk_rows)
        rows = f->chunk_rows;
    return format_block(rows, f->cols, f->first_hour + first, f->bases, f->strides,
                        f->buffer + k % f->slots * f->slot_bytes, spans, f->g);
}

/* Under the lock: record chunk k's text as finished. */
static void finish_chunk(rows_t *f, int64_t k, int64_t size)
{
    f->ready[k % f->slots] = k;
    f->sizes[k % f->slots] = size;
}

/* The helper: take the next chunk whose slot is free, format it, repeat
 * until every chunk is taken or a write has failed.  It waits only for
 * the calling thread to write a slot out. */
static void *rows_helper(void *arg)
{
    rows_t *f = arg;
    pthread_mutex_lock(&f->lock);
    for (;;) {
        while (!f->stop && f->claimed < f->chunks && f->claimed >= f->written + f->slots)
            pthread_cond_wait(&f->changed, &f->lock);
        if (f->stop || f->claimed >= f->chunks)
            break;
        int64_t k = f->claimed++;
        pthread_mutex_unlock(&f->lock);
        int64_t size = format_chunk(f, k, f->helper_spans);
        pthread_mutex_lock(&f->lock);
        finish_chunk(f, k, size);
        pthread_cond_signal(&f->changed);
    }
    pthread_mutex_unlock(&f->lock);
    return NULL;
}

/* Write size bytes from p to fd, through short writes and EINTR; return 0
 * or the errno of the write that failed. */
static int write_all(int fd, const char *p, int64_t size)
{
    while (size > 0) {
        ssize_t done = write(fd, p, (size_t)size);
        if (done < 0) {
            if (errno == EINTR)
                continue;
            return errno;
        }
        if (done == 0)
            return EIO;
        p += done;
        size -= done;
    }
    return 0;
}

/* Write the lines of hours first_hour to first_hour + rows - 1 to the
 * file descriptor fd, at its offset: the hour, then each of the cols
 * columns' cell as repr prints it, comma separated.  Column j's cell of
 * hour t is the double at bases[j] + t * strides[j] (a stride counted in
 * doubles), so the result arrays are read where they lie.  Returns the
 * number of bytes written, or minus the errno of a failed write (then
 * the rows before it may be in the file).
 *
 * The rows go in chunks of chunk_rows rows.  The calling thread and one
 * helper thread take chunks in order from a shared count, each chunk
 * into its slot of buffer, which holds slots * chunk_rows * (20 + 25 *
 * cols) bytes: an hour takes at most 19 digits and a cell at most 24
 * bytes (-2.2250738585072014e-308).  The calling thread writes finished
 * chunks in row order while the helper formats, and it waits only for a
 * chunk the helper has begun: a chunk no thread has taken it formats
 * itself.  So where the helper gets no CPU, or cannot be started, the
 * calling thread writes the file alone, at the serial cost.
 *
 * A cell with the same bits as the cell above it prints the same text,
 * so that text is copied instead of formatted again; the first row of
 * each chunk is formatted, so chunks share nothing.  Bits, not ==,
 * decide: -0.0 and 0.0 compare equal but print differently, and NaNs
 * with different payloads are each formatted.  spans keeps, per column,
 * the offset in the chunk's text and the length of the text last
 * formatted there, which is the text of the cell above: 2 * cols entries
 * per thread (any count of columns), the helper's 16 entries (128 bytes)
 * past the calling thread's, so that the two threads never write to one
 * cache line; 4 * cols + 16 in all.  slot_state holds 2 * slots entries,
 * the state of each slot.  g is the table of powers of ten described
 * above. */
int64_t write_rows(int64_t fd, int64_t rows, int64_t cols, int64_t first_hour,
                   const double *const *bases, const int64_t *strides, int64_t chunk_rows,
                   int64_t slots, char *buffer, int64_t *spans, int64_t *slot_state,
                   const uint64_t (*g)[2])
{
    rows_t f = {.chunks = (rows + chunk_rows - 1) / chunk_rows, .chunk_rows = chunk_rows,
                .rows = rows, .cols = cols, .first_hour = first_hour, .slots = slots,
                .slot_bytes = chunk_rows * (20 + 25 * cols), .bases = bases, .strides = strides,
                .buffer = buffer, .g = g, .helper_spans = spans + 2 * cols + 16,
                .ready = slot_state, .sizes = slot_state + slots};
    for (int64_t s = 0; s < slots; s++)
        f.ready[s] = -1;
    pthread_mutex_init(&f.lock, NULL);
    pthread_cond_init(&f.changed, NULL);
    pthread_t helper;
    int helped = f.chunks > 1 && slots > 1 && pthread_create(&helper, NULL, rows_helper, &f) == 0;

    int err = 0;
    int64_t total = 0;
    pthread_mutex_lock(&f.lock);
    while (f.written < f.chunks) {
        int64_t j = f.written, s = j % slots;
        if (f.ready[s] == j) {
            int64_t size = f.sizes[s];
            pthread_mutex_unlock(&f.lock);
            err = write_all((int)fd, buffer + s * f.slot_bytes, size);
            pthread_mutex_lock(&f.lock);
            if (err) {
                f.stop = 1;
                pthread_cond_signal(&f.changed);
                break;
            }
            total += size;
            f.written++;
            pthread_cond_signal(&f.changed);
        } else if (f.claimed < f.chunks && f.claimed < f.written + slots) {
            int64_t k = f.claimed++;
            pthread_mutex_unlock(&f.lock);
            int64_t size = format_chunk(&f, k, spans);
            pthread_mutex_lock(&f.lock);
            finish_chunk(&f, k, size);
        } else {
            /* Chunk j is the helper's and under way. */
            pthread_cond_wait(&f.changed, &f.lock);
        }
    }
    pthread_mutex_unlock(&f.lock);
    if (helped)
        pthread_join(helper, NULL);
    pthread_cond_destroy(&f.changed);
    pthread_mutex_destroy(&f.lock);
    return err ? -err : total;
}
