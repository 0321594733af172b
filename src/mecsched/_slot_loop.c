/* The engine's two hot paths, compiled: the task draw and the
 * decide-and-start slot loop.
 *
 * mecsched_draw_tasks draws through numpy's bit generator interface
 * (bitgen_t, declared as in numpy/random/bitgen.h), calling the same
 * next_uint32 and next_double that Generator.integers and
 * Generator.random call, so it follows their stream by construction.
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

/* Draws n_tasks tasks in turn.  With draw_k, task i's k is
 * Generator.integers(k_lo, k_lo + span + 1), numpy's 32-bit Lemire
 * rejection (span < 2**32 - 1), and is stored in ks[i]; otherwise k is
 * ks[i].  Its k contents are k next_double uniforms, each ranked through
 * the catalog's guide table (a binary search in wide buckets only), and
 * distinct[i] gets the number of distinct ranks above capacity.  stamp
 * holds n_contents + 1 zeros; stamp[rank] is the tag of the last task that
 * drew rank, and every cached rank maps to stamp[0], which holds the
 * current task's tag, so the count needs no branch. */
void mecsched_draw_tasks(bitgen_t *rng, int64_t n_tasks, int draw_k, int64_t k_lo, uint32_t span,
                         int64_t *ks, const int32_t *guide, const uint8_t *guide_wide,
                         int64_t n_buckets, const double *cdf, int64_t n_contents,
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
        stamp[0] = tag;
        for (int64_t j = 0; j < k; j++) {
            double u = rng->next_double(rng->state);
            int64_t bucket = (int64_t)(u * (double)n_buckets);
            int64_t below = guide[bucket];  /* cdf entries <= u */
            if (guide_wide[bucket]) {
                int64_t hi = n_contents - 1;  /* cdf[n_contents - 1] is 1 > u */
                while (below < hi) {
                    int64_t mid = below + (hi - below) / 2;
                    if (cdf[mid] <= u) below = mid + 1;
                    else hi = mid;
                }
            } else {
                below += cdf[below] <= u;
            }
            int64_t slot = below >= capacity ? below + 1 : 0;
            count += stamp[slot] != tag;
            stamp[slot] = tag;
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

/* Runs every slot of arriving[0, horizon); fills start_slot and on_mec for
 * the tasks started and leaves (head, arrived, busy_local, busy_mec) in state. */
void mecsched_slot_loop(int kind, double v, int64_t horizon, const uint8_t *arriving,
                        const double *local_bits, const double *mec_bits,
                        const int64_t *n_local, const int64_t *n_mec,
                        int64_t *start_slot, uint8_t *on_mec, int64_t *state)
{
    int64_t head = 0, arrived = 0, busy_local = 0, busy_mec = 0;
    for (int64_t t = 0; t < horizon; t++) {
        int64_t q_len = arrived - head;
        int action = decide(kind, v, busy_local, busy_mec, q_len,
                            q_len > 0 ? local_bits[head] : 0.0, q_len > 0 ? mec_bits[head] : 0.0,
                            q_len > 1 ? local_bits[head + 1] : 0.0, q_len > 1 ? mec_bits[head + 1] : 0.0);
        if (action & (LF | LS)) {
            int64_t task = head + ((action & LS) != 0);
            start_slot[task] = t;
            busy_local = n_local[task] - 1;
        } else if (busy_local) {
            busy_local -= 1;
        }
        if (action & (MF | MS)) {
            int64_t task = head + ((action & MS) != 0);
            start_slot[task] = t;
            on_mec[task] = 1;
            busy_mec = n_mec[task] - 1;
        } else if (busy_mec) {
            busy_mec -= 1;
        }
        /* Departures from the head, then the slot's arrival at the tail. */
        head += ((action & (LF | LS)) != 0) + ((action & (MF | MS)) != 0);
        arrived += arriving[t];
    }
    state[0] = head;
    state[1] = arrived;
    state[2] = busy_local;
    state[3] = busy_mec;
}
