/* The engine's two hot paths, compiled: the task draw and the slot loop,
 * which keeps the run's sums and completions as it goes; and the rank draw
 * of the Monte Carlo estimate's k values.
 *
 * mecsched_draw_tasks and mecsched_draw_ranks draw through numpy's bit
 * generator interface (bitgen_t, declared as in numpy/random/bitgen.h),
 * calling the same next_uint32 and next_double that Generator.integers
 * and Generator.random call, so they follow their stream by construction.
 *
 * The slot loop is a transcription of the Python loop in
 * engine._python_slot_loop and of policy.decide; those stay the
 * reference.  Built with -ffp-contract=off and without -ffast-math, every
 * cost is the same IEEE double sum and product Python computes, so every
 * comparison (and every decision) is bit for bit the same.  An action is
 * returned as a bit mask of its flags (local_first, local_second,
 * mec_first, mec_second) = bits 0..3.
 */
#include <stdint.h>

typedef struct {
    void *state;
    uint64_t (*next_uint64)(void *st);
    uint32_t (*next_uint32)(void *st);
    double (*next_double)(void *st);
    uint64_t (*next_raw)(void *st);
} bitgen_t;

/* The number of cdf entries <= u, for u in [0, 1), through the guide
 * table of n_buckets + 1 entries built by catalog.guide_table: one
 * comparison in buckets holding at most one cdf entry, a binary search
 * between the bucket's bounds in wider ones. */
static inline int64_t rank(double u, const int32_t *guide, int64_t n_buckets, const double *cdf)
{
    int64_t bucket = (int64_t)(u * (double)n_buckets);
    int64_t below = guide[bucket];  /* cdf entries <= u */
    int64_t hi = guide[bucket + 1];  /* and at most this many */
    if (hi - below > 1) {
        while (below < hi) {
            int64_t mid = below + (hi - below) / 2;
            if (cdf[mid] <= u) below = mid + 1;
            else hi = mid;
        }
    } else {
        below += cdf[below] <= u;
    }
    return below;
}

/* Draws n next_double uniforms and stores each one's rank(u) in out:
 * Generator.random(n) ranked as searchsorted(cdf, u, side="right"). */
void mecsched_draw_ranks(bitgen_t *rng, int64_t n, const int32_t *guide, int64_t n_buckets,
                         const double *cdf, int64_t *out)
{
    for (int64_t i = 0; i < n; i++) out[i] = rank(rng->next_double(rng->state), guide, n_buckets, cdf);
}

/* Draws n_tasks tasks in turn.  With draw_k, task i's k is
 * Generator.integers(k_lo, k_lo + span + 1), numpy's 32-bit Lemire
 * rejection (span < 2**32 - 1), and is stored in ks[i]; otherwise k is
 * ks[i].  Its k contents are k next_double uniforms, each ranked through
 * the catalog's guide table, and distinct[i] gets the number of distinct
 * ranks above capacity.  stamp holds one zero per content; stamp[rank - 1]
 * is the tag of the last task that drew rank. */
void mecsched_draw_tasks(bitgen_t *rng, int64_t n_tasks, int draw_k, int64_t k_lo, uint32_t span,
                         int64_t *ks, const int32_t *guide, int64_t n_buckets, const double *cdf,
                         int64_t capacity, int64_t *stamp, int64_t *distinct)
{
    const uint64_t k_range = (uint64_t)span + 1;
    const uint32_t threshold = (UINT32_MAX - span) % k_range;
    for (int64_t i = 0; i < n_tasks; i++) {
        int64_t k = ks[i];
        if (draw_k) {
            k = k_lo;
            if (span) {
                uint64_t m = (uint64_t)rng->next_uint32(rng->state) * k_range;
                while ((uint32_t)m < threshold) m = (uint64_t)rng->next_uint32(rng->state) * k_range;
                k += (int64_t)(m >> 32);
            }
            ks[i] = k;
        }
        const int64_t tag = i + 1;
        int64_t count = 0;
        for (int64_t j = 0; j < k; j++) {
            int64_t below = rank(rng->next_double(rng->state), guide, n_buckets, cdf);
            /* Must stay branch-free.  At the defaults (Zipf 0.8, 1000
             * contents, cache 50) 42% of draws are cached, so a
             * conditional jump on the cache test, as gcc 12 -O2 makes of
             * "below >= capacity ? below + 1 : 0", is a coin flip: 0.9 us
             * per task against 0.3 us without it. */
            count += (stamp[below] != tag) & (below >= capacity);
            stamp[below] = tag;
        }
        distinct[i] = count;
    }
}

enum { LYAPUNOV, MEC_ONLY, LOCAL_ONLY };
enum { LF = 1, LS = 2, MF = 4, MS = 8 };
enum { IDLE = 0, FIRST_LOCAL = LF, FIRST_MEC = MF, SPLIT_LOCAL_MEC = LF | MS, SPLIT_MEC_LOCAL = LS | MF };

static inline int decide(int kind, double v, int64_t busy_local, int64_t busy_mec, int64_t q_len,
                         double head_local, double head_mec, double second_local, double second_mec)
{
    if (q_len < 1 || (busy_local && busy_mec)) return IDLE;
    if (kind == MEC_ONLY) return busy_mec ? IDLE : FIRST_MEC;
    if (kind == LOCAL_ONLY) return busy_local ? IDLE : FIRST_LOCAL;

    int single;
    double cost;
    if (busy_local) { single = FIRST_MEC; cost = -(double)q_len + v * head_mec; }
    else { single = FIRST_LOCAL; cost = -(double)q_len + v * head_local; }
    if (cost > 0.0) { single = IDLE; cost = 0.0; }
    if (q_len < 2 || busy_local || busy_mec) return single;

    /* 2.0 * (double)q_len rounds as (double)(2 * q_len) does, without the overflow. */
    int split = SPLIT_LOCAL_MEC;
    double bits = head_local + second_mec;
    if (bits > second_local + head_mec) { split = SPLIT_MEC_LOCAL; bits = second_local + head_mec; }
    return -(2.0 * (double)q_len) + v * bits <= cost ? split : single;
}

int mecsched_decide(int kind, double v, int64_t busy_local, int64_t busy_mec, int64_t q_len,
                    double head_local, double head_mec, double second_local, double second_mec)
{
    return decide(kind, v, busy_local, busy_mec, q_len, head_local, head_mec, second_local, second_mec);
}

/* Runs slots [0, horizon) and keeps the run's sums as it goes.
 *
 * arrival holds the tasks' arrival slots followed by horizon, so
 * arrival[arrived] is the next task's arrival slot and stays in bounds.
 * Each processor keeps the done slot of the task it serves (-1 before its
 * first) and that task's arrival slot; it is busy in slot t while
 * done >= t.  A task finishing in slot t writes its delay t - a + 1 and
 * its arrival slot a at delays[completions] and delay_arrival[completions],
 * the local processor's before the server's.  When series is not NULL,
 * series[t] gets the queue before slot t.
 *
 * counts gets (head, arrived, completions, done_local, done_mec,
 * queue_sum, drift_violations) and then queue_sum, arrived and head as
 * they stood before slot warmup_slots (0 if the loop never reaches it);
 * bits gets the bits charged at start over the run, and before slot
 * warmup_slots.  Every partial bit sum is an integer below 2**53, so both
 * are exact. */
void mecsched_slot_loop(int kind, double v, int64_t horizon, int64_t warmup_slots,
                        const int64_t *arrival, const double *local_bits, const double *mec_bits,
                        const int64_t *n_local, const int64_t *n_mec,
                        int64_t *delays, int64_t *delay_arrival, int64_t *series,
                        int64_t *counts, double *bits)
{
    int64_t head = 0, arrived = 0, completions = 0, queue_sum = 0, drift_violations = 0;
    int64_t done_local = -1, done_mec = -1, from_local = 0, from_mec = 0;
    int64_t warm_queue_sum = 0, warm_arrived = 0, warm_head = 0;
    double tx_bits = 0.0, warm_tx_bits = 0.0;
    for (int64_t t = 0; t < horizon; t++) {
        int64_t q_len = arrived - head;
        if (t == warmup_slots) {
            warm_queue_sum = queue_sum;
            warm_arrived = arrived;
            warm_head = head;
            warm_tx_bits = tx_bits;
        }
        if (series) series[t] = q_len;
        queue_sum += q_len;
        int action = decide(kind, v, done_local >= t, done_mec >= t, q_len,
                            q_len > 0 ? local_bits[head] : 0.0, q_len > 0 ? mec_bits[head] : 0.0,
                            q_len > 1 ? local_bits[head + 1] : 0.0, q_len > 1 ? mec_bits[head + 1] : 0.0);
        if (action & (LF | LS)) {
            int64_t task = head + ((action & LS) != 0);
            done_local = t + n_local[task] - 1;
            from_local = arrival[task];
            tx_bits += local_bits[task];
        }
        if (action & (MF | MS)) {
            int64_t task = head + ((action & MS) != 0);
            done_mec = t + n_mec[task] - 1;
            from_mec = arrival[task];
            tx_bits += mec_bits[task];
        }
        if (done_local == t) {
            delays[completions] = t - from_local + 1;
            delay_arrival[completions++] = from_local;
        }
        if (done_mec == t) {
            delays[completions] = t - from_mec + 1;
            delay_arrival[completions++] = from_mec;
        }
        /* The drift audit's precondition: no more starts than queued tasks.
         * Then departures from the head, and the slot's arrival at the tail. */
        int64_t started = ((action & (LF | LS)) != 0) + ((action & (MF | MS)) != 0);
        drift_violations += started > q_len;
        head += started;
        arrived += arrival[arrived] == t;
    }
    int64_t out[] = {head, arrived, completions, done_local, done_mec, queue_sum, drift_violations,
                     warm_queue_sum, warm_arrived, warm_head};
    for (int i = 0; i < 10; i++) counts[i] = out[i];
    bits[0] = tx_bits;
    bits[1] = warm_tx_bits;
}
