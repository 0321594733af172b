/* The engine's two hot paths, compiled: the task draw and the slot loop,
 * which keeps the run's sums and completions as it goes; and the Monte
 * Carlo estimate's two draws, of its k values and of its slot counts.
 *
 * mecsched_draw_tasks and mecsched_draw_ranks step numpy's PCG64 (O'Neill's
 * XSL-RR 128/64 generator) themselves, on the PCG64.state that
 * workload._pcg64_words packs into six words and stores back after the
 * call.  A uniform is the word's top 53 bits times 2**-53, and a 32-bit
 * value is the low half of a word, whose high half is kept for the next
 * one, as numpy's next_double and next_uint32 make them; so the draws
 * follow Generator.random and Generator.integers bit for bit.  Each word is
 * ranked in integers (see rank).
 *
 * A task's busy-slot count in either mode is busy_slots, the formula of
 * dynamics._busy_slots with its operations in the same order; the slot
 * loop computes it when a task starts, the estimate for every sample.
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

typedef unsigned __int128 u128;

/* PCG64: the state s steps to s * PCG64_MULTIPLIER + inc (mod 2**128),
 * and the stepped state's output is rotr64(high ^ low, high >> 58). */
#define PCG64_MULTIPLIER (((u128)2549297995355413924ULL << 64) + 4865540595714422341ULL)

/* has_uint32 and uinteger are numpy's buffered high half. */
typedef struct {
    u128 state, inc;
    uint64_t has_uint32, uinteger;
} pcg64_t;

/* words: the state's high and low word, inc's high and low word,
 * has_uint32 and uinteger. */
static pcg64_t pcg64_load(const uint64_t *words)
{
    pcg64_t rng = {(u128)words[0] << 64 | words[1], (u128)words[2] << 64 | words[3], words[4], words[5]};
    return rng;
}

static void pcg64_store(const pcg64_t *rng, uint64_t *words)
{
    words[0] = (uint64_t)(rng->state >> 64);
    words[1] = (uint64_t)rng->state;
    words[4] = rng->has_uint32;
    words[5] = rng->uinteger;
}

static inline uint64_t pcg64_next64(pcg64_t *rng)
{
    rng->state = rng->state * PCG64_MULTIPLIER + rng->inc;
    const uint64_t high = (uint64_t)(rng->state >> 64);
    const uint64_t x = high ^ (uint64_t)rng->state;
    const unsigned rot = (unsigned)(high >> 58);
    return (x >> rot) | (x << ((-rot) & 63));
}

static inline uint32_t pcg64_next32(pcg64_t *rng)
{
    if (rng->has_uint32) {
        rng->has_uint32 = 0;
        return (uint32_t)rng->uinteger;
    }
    const uint64_t word = pcg64_next64(rng);
    rng->has_uint32 = 1;
    rng->uinteger = word >> 32;
    return (uint32_t)word;
}

/* The number of cdf entries <= u for the uniform u = (word >> 11) * 2**-53,
 * through the guide table of B + 1 entries built by catalog.guide_table,
 * B = 2**(64 - shift): one comparison in buckets holding at most one cdf
 * entry, a binary search between the bucket's bounds in wider ones.  It
 * runs in integers: u's bucket floor(u * B) is word >> shift, and
 * cdf[i] <= u exactly when edge[i] <= word >> 11, edge being
 * catalog.rank_edges(cdf).  The last edge is 2**53, above every word, so
 * each lookup stays in bounds. */
static inline int64_t rank(uint64_t word, const int32_t *guide, int shift, const uint64_t *edge)
{
    const uint64_t m = word >> 11;
    const int64_t bucket = (int64_t)(word >> shift);
    int64_t below = guide[bucket];  /* cdf entries <= u */
    int64_t hi = guide[bucket + 1];  /* and at most this many */
    if (hi - below > 1) {
        while (below < hi) {
            int64_t mid = below + (hi - below) / 2;
            if (edge[mid] <= m) below = mid + 1;
            else hi = mid;
        }
    } else {
        below += edge[below] <= m;
    }
    return below;
}

/* Ranks one content's word for the task tagged tag; returns 1 if its rank
 * lies above capacity and the task has not drawn it before, else 0.
 * stamp holds one zero per content; stamp[rank - 1] is the tag of the last
 * task that drew rank. */
static inline int64_t count(uint64_t word, int64_t tag, const int32_t *guide, int shift, const uint64_t *edge,
                            int64_t capacity, int64_t *stamp)
{
    const int64_t below = rank(word, guide, shift, edge);
    /* Must stay branch-free.  At the defaults (Zipf 0.8, 1000 contents,
     * cache 50) 42% of draws are cached, so a conditional jump on the
     * cache test, as gcc 12 -O2 makes of "below >= capacity ? below + 1 :
     * 0", is a coin flip: 0.9 us per task against 0.3 us without it. */
    const int64_t fresh = (stamp[below] != tag) & (below >= capacity);
    stamp[below] = tag;
    return fresh;
}

/* Whole slots a processor of f_dt cycles per slot and a link of rate_dt
 * bits per slot take on a task of total bits that ships shipped of them:
 * ceil(total * cycles_per_bit / f_dt + shipped / rate_dt), at least 1 and
 * at most 2**62, as dynamics._busy_slots takes it with numpy's ceil,
 * maximum and fmin.  A duration that is NaN (0/0 once a divisor underflows
 * to 0) stays NaN through the max, as in np.maximum, and the cap then
 * takes it, as np.fmin does.  No libm call: the library is not linked
 * against it, so ceil is made here. */
static inline int64_t busy_slots(double total, double shipped, double cycles_per_bit, double f_dt, double rate_dt)
{
    double s = total * cycles_per_bit / f_dt + shipped / rate_dt;
    /* ceil: every double from 2**52 up is whole, and below it the
     * truncation is exact.  s is never negative; the lower bound only keeps
     * the cast defined. */
    if (s > -0x1p52 && s < 0x1p52) {
        const double whole = (double)(int64_t)s;
        s = whole < s ? whole + 1.0 : whole;
    }
    if (s < 1.0) s = 1.0;
    if (!(s <= 0x1p62)) s = 0x1p62;
    return (int64_t)s;
}

/* Draws n uniforms, Generator.random(n), and stores each one's rank in
 * out, as searchsorted(cdf, u, side="right") ranks it. */
void mecsched_draw_ranks(uint64_t *pcg64, int64_t n, const int32_t *guide, int shift, const uint64_t *edge,
                         int64_t *out)
{
    pcg64_t rng = pcg64_load(pcg64);
    for (int64_t i = 0; i < n; i++) out[i] = rank(pcg64_next64(&rng), guide, shift, edge);
    pcg64_store(&rng, pcg64);
}

/* Draws n_tasks tasks in turn.  With draw_k, task i's k is
 * Generator.integers(k_lo, k_lo + span + 1), numpy's 32-bit Lemire
 * rejection (span < 2**32 - 1), and is stored in ks[i]; otherwise k is
 * ks[i].  Its k contents are Generator.random(k), and distinct[i] gets the
 * number of distinct ranks above capacity among them. */
void mecsched_draw_tasks(uint64_t *pcg64, int64_t n_tasks, int draw_k, int64_t k_lo, uint32_t span,
                         int64_t *ks, const int32_t *guide, int shift, const uint64_t *edge,
                         int64_t capacity, int64_t *stamp, int64_t *distinct)
{
    pcg64_t rng = pcg64_load(pcg64);
    const uint64_t k_range = (uint64_t)span + 1;
    const uint32_t threshold = (UINT32_MAX - span) % k_range;
    for (int64_t i = 0; i < n_tasks; i++) {
        int64_t k = ks[i];
        if (draw_k) {
            k = k_lo;
            if (span) {
                uint64_t m = (uint64_t)pcg64_next32(&rng) * k_range;
                while ((uint32_t)m < threshold) m = (uint64_t)pcg64_next32(&rng) * k_range;
                k += (int64_t)(m >> 32);
            }
            ks[i] = k;
        }
        int64_t n_distinct = 0;
        for (int64_t j = 0; j < k; j++)
            n_distinct += count(pcg64_next64(&rng), i + 1, guide, shift, edge, capacity, stamp);
        distinct[i] = n_distinct;
    }
    pcg64_store(&rng, pcg64);
}

/* mecsched_draw_tasks for given k values, on the given words in place of
 * the generator's: task i's contents are the next ks[i] words. */
void mecsched_count_words(int64_t n_tasks, const int64_t *ks, const uint64_t *words, const int32_t *guide,
                          int shift, const uint64_t *edge, int64_t capacity, int64_t *stamp, int64_t *distinct)
{
    for (int64_t i = 0; i < n_tasks; i++) {
        int64_t n_distinct = 0;
        for (int64_t j = 0; j < ks[i]; j++)
            n_distinct += count(*words++, i + 1, guide, shift, edge, capacity, stamp);
        distinct[i] = n_distinct;
    }
}

/* The Monte Carlo estimate's slot counts, on the stream of
 * mecsched_draw_tasks for given k values: task i's contents are the next
 * ks[i] words, and with its bits size_bits * distinct (a local run) and
 * size_bits * ks[i] (an offload), local_counts[i] and mec_counts[i] get
 * busy_slots of each, as dynamics.task_bits, slots_local and slots_mec
 * give them. */
void mecsched_estimate_slots(uint64_t *pcg64, int64_t n_tasks, const int64_t *ks, const int32_t *guide, int shift,
                             const uint64_t *edge, int64_t capacity, int64_t *stamp, double size_bits,
                             double cycles_per_bit, double f_local_dt, double f_mec_dt, double rate_dt,
                             double *local_counts, double *mec_counts)
{
    pcg64_t rng = pcg64_load(pcg64);
    for (int64_t i = 0; i < n_tasks; i++) {
        int64_t n_distinct = 0;
        for (int64_t j = 0; j < ks[i]; j++)
            n_distinct += count(pcg64_next64(&rng), i + 1, guide, shift, edge, capacity, stamp);
        const double local_bits = size_bits * (double)n_distinct, mec_bits = size_bits * (double)ks[i];
        local_counts[i] = (double)busy_slots(mec_bits, local_bits, cycles_per_bit, f_local_dt, rate_dt);
        mec_counts[i] = (double)busy_slots(mec_bits, mec_bits, cycles_per_bit, f_mec_dt, rate_dt);
    }
    pcg64_store(&rng, pcg64);
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
 * done >= t.  A task started in slot t on the device is done in slot
 * t + n - 1, n being busy_slots of its bits with f_local_dt, and on the
 * server likewise with f_mec_dt; the divisors are the processor speeds and
 * the rate times the slot length.  A task finishing in slot t writes its
 * delay t - a + 1 and its arrival slot a at delays[completions] and
 * delay_arrival[completions], the local processor's before the server's.  When series is not NULL,
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
                        double cycles_per_bit, double f_local_dt, double f_mec_dt, double rate_dt,
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
            done_local = t + busy_slots(mec_bits[task], local_bits[task], cycles_per_bit, f_local_dt, rate_dt) - 1;
            from_local = arrival[task];
            tx_bits += local_bits[task];
        }
        if (action & (MF | MS)) {
            int64_t task = head + ((action & MS) != 0);
            done_mec = t + busy_slots(mec_bits[task], mec_bits[task], cycles_per_bit, f_mec_dt, rate_dt) - 1;
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
