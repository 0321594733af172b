/* The engine's two hot paths, compiled: the task draw and the slot loop,
 * which keeps the run's sums and completions as it goes; and the Monte
 * Carlo estimate, which draws its k values and contents and counts its
 * tasks' busy slots.  One entry per hot call, and four for the tests.
 *
 * mecsched_draw_tasks and mecsched_estimate_slots step numpy's PCG64
 * (O'Neill's XSL-RR 128/64 generator) themselves, on the PCG64.state that
 * workload._pcg64_words packs into six words and stores back after the
 * call.  A uniform is the word's top 53 bits times 2**-53, and a 32-bit
 * value is the low half of a word, whose high half is kept for the next
 * one, as numpy's next_double and next_uint32 make them; so the draws
 * follow Generator.random and Generator.integers bit for bit.  Each word is
 * ranked in integers (see rank).
 *
 * The draws take their words from one of two sources, chosen once, when
 * the library loads: on an x86-64 processor with AVX-512F (and a GNU C
 * compiler), sixteen lanes; everywhere else, the fused scalar loops, one
 * pcg64_next64 step per word.  The lanes hold the states 1..16 steps past
 * the generator's, two vectors of eight, and step each 16 steps at a
 * time; they fill a block of 64 words and their ranks (vrank, through
 * gathers), which the draws read in order: the task draw's k the words,
 * with next32's buffered half, and the contents their ranks.  The
 * estimate first fills the block with ranks through its k cdf's tables,
 * then starts it afresh for the contents.  At the end a draw moves the
 * generator past the words it took by PCG64's jump (Brown 1994), the
 * O(log n) map PCG64.advance uses, so the words the lanes made ahead are
 * dropped and the end state is the scalar loops' own.  Both sources give
 * the same words, ranks and end state; mecsched_select_word_source lets
 * the tests run both.
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

/* Counts one content of rank below + 1 for the task tagged tag; returns 1
 * if the rank lies above capacity and the task has not drawn it before,
 * else 0.  stamp holds one zero per content; stamp[rank - 1] is the tag of
 * the last task that drew rank. */
static inline int64_t tally(int64_t below, int64_t tag, int64_t capacity, int64_t *stamp)
{
    /* Must stay branch-free.  At the defaults (Zipf 0.8, 1000 contents,
     * cache 50) 42% of draws are cached, so a conditional jump on the
     * cache test, as gcc 12 -O2 makes of "below >= capacity ? below + 1 :
     * 0", is a coin flip: 0.9 us per task against 0.3 us without it. */
    const int64_t fresh = (stamp[below] != tag) & (below >= capacity);
    stamp[below] = tag;
    return fresh;
}

/* tally of one content's word. */
static inline int64_t count(uint64_t word, int64_t tag, const int32_t *guide, int shift, const uint64_t *edge,
                            int64_t capacity, int64_t *stamp)
{
    return tally(rank(word, guide, shift, edge), tag, capacity, stamp);
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

#if defined(__x86_64__) && defined(__GNUC__)
#define MECSCHED_AVX512 1
#include <immintrin.h>
#define AVX512 __attribute__((target("avx512f")))

/* PCG64's jump (Brown 1994): n steps take a state s to s * mult + plus,
 * found in O(log n) squarings, as numpy's PCG64.advance finds them. */
static void pcg64_jump(u128 inc, uint64_t n, u128 *mult, u128 *plus)
{
    u128 acc_mult = 1, acc_plus = 0, cur_mult = PCG64_MULTIPLIER, cur_plus = inc;
    for (; n; n >>= 1) {
        if (n & 1) {
            acc_mult *= cur_mult;
            acc_plus = acc_plus * cur_mult + cur_plus;
        }
        cur_plus = (cur_mult + 1) * cur_plus;
        cur_mult *= cur_mult;
    }
    *mult = acc_mult;
    *plus = acc_plus;
}

/* Moves rng n steps on. */
static void pcg64_advance(pcg64_t *rng, uint64_t n)
{
    u128 mult, plus;
    pcg64_jump(rng->inc, n, &mult, &plus);
    rng->state = rng->state * mult + plus;
}

/* Whether the draws take their words from the AVX-512 lanes below: chosen
 * once, when the library loads, from the processor's features. */
static int avx512_words;

__attribute__((constructor)) static void choose_word_source(void)
{
    __builtin_cpu_init();
    avx512_words = __builtin_cpu_supports("avx512f") != 0;
}

/* Sixteen PCG64 streams in lanes: two vectors of eight states each, kept as
 * their high and low words.  Lane j (vector j / 8, element j % 8) starts
 * j + 1 steps past the generator's state, so the lanes' outputs, vector 0
 * then vector 1, are its next 16 words; each step moves every lane 16
 * steps on, by the 16-step map s * mult + plus.  mult_hi_top and
 * mult_lo_top are mult's two words shifted right by 32: the high halves
 * that _mm512_mul_epu32's 32-bit partial products take. */
typedef struct {
    __m512i hi[2], lo[2];
    __m512i mult_hi, mult_hi_top, mult_lo, mult_lo_top, plus_hi, plus_lo;
} lanes_t;

AVX512 static inline lanes_t lanes_load(const pcg64_t *rng)
{
    uint64_t hi[16], lo[16];
    u128 state = rng->state, mult, plus;
    for (int j = 0; j < 16; j++) {
        state = state * PCG64_MULTIPLIER + rng->inc;
        hi[j] = (uint64_t)(state >> 64);
        lo[j] = (uint64_t)state;
    }
    pcg64_jump(rng->inc, 16, &mult, &plus);
    const uint64_t mult_hi = (uint64_t)(mult >> 64), mult_lo = (uint64_t)mult;
    lanes_t lanes = {
        {_mm512_loadu_si512(hi), _mm512_loadu_si512(hi + 8)},
        {_mm512_loadu_si512(lo), _mm512_loadu_si512(lo + 8)},
        _mm512_set1_epi64((int64_t)mult_hi), _mm512_set1_epi64((int64_t)(mult_hi >> 32)),
        _mm512_set1_epi64((int64_t)mult_lo), _mm512_set1_epi64((int64_t)(mult_lo >> 32)),
        _mm512_set1_epi64((int64_t)(uint64_t)(plus >> 64)), _mm512_set1_epi64((int64_t)(uint64_t)plus),
    };
    return lanes;
}

/* The low 64 bits of a * b; a_top and b_top are their high 32 bits. */
AVX512 static inline __m512i mullo64(__m512i a, __m512i a_top, __m512i b, __m512i b_top)
{
    const __m512i cross = _mm512_add_epi64(_mm512_mul_epu32(a, b_top), _mm512_mul_epu32(a_top, b));
    return _mm512_add_epi64(_mm512_mul_epu32(a, b), _mm512_slli_epi64(cross, 32));
}

/* Vector v's word, XSL-RR as pcg64_next64 makes it. */
AVX512 static inline __m512i lanes_output(const lanes_t *lanes, int v)
{
    return _mm512_rorv_epi64(_mm512_xor_si512(lanes->hi[v], lanes->lo[v]), _mm512_srli_epi64(lanes->hi[v], 58));
}

/* Steps vector v's eight states 16 steps on: s * mult + plus mod 2**128.
 * Only the low word's product with mult's low word is needed in full; its
 * high word gathers the four 32-bit partial products and the carry of
 * their middle sum, and the two cross products add their low 64 bits. */
AVX512 static inline void lanes_step(lanes_t *lanes, int v)
{
    const __m512i hi = lanes->hi[v], lo = lanes->lo[v], lo_top = _mm512_srli_epi64(lo, 32);
    const __m512i low32 = _mm512_set1_epi64(0xffffffff);
    const __m512i p00 = _mm512_mul_epu32(lo, lanes->mult_lo), p01 = _mm512_mul_epu32(lo, lanes->mult_lo_top);
    const __m512i p10 = _mm512_mul_epu32(lo_top, lanes->mult_lo), p11 = _mm512_mul_epu32(lo_top, lanes->mult_lo_top);
    const __m512i mid = _mm512_add_epi64(_mm512_srli_epi64(p00, 32),
                                         _mm512_add_epi64(_mm512_and_si512(p01, low32), _mm512_and_si512(p10, low32)));
    const __m512i prod_lo = _mm512_or_si512(_mm512_slli_epi64(mid, 32), _mm512_and_si512(p00, low32));
    __m512i prod_hi = _mm512_add_epi64(_mm512_add_epi64(p11, _mm512_srli_epi64(mid, 32)),
                                       _mm512_add_epi64(_mm512_srli_epi64(p01, 32), _mm512_srli_epi64(p10, 32)));
    prod_hi = _mm512_add_epi64(prod_hi, mullo64(lo, lo_top, lanes->mult_hi, lanes->mult_hi_top));
    prod_hi = _mm512_add_epi64(prod_hi, mullo64(hi, _mm512_srli_epi64(hi, 32), lanes->mult_lo, lanes->mult_lo_top));
    const __m512i next_lo = _mm512_add_epi64(prod_lo, lanes->plus_lo);
    const __mmask8 carry = _mm512_cmplt_epu64_mask(next_lo, lanes->plus_lo);
    const __m512i next_hi = _mm512_add_epi64(prod_hi, lanes->plus_hi);
    lanes->hi[v] = _mm512_mask_sub_epi64(next_hi, carry, next_hi, _mm512_set1_epi64(-1));
    lanes->lo[v] = next_lo;
}

/* rank of eight words at once, through gathers, for the lanes whose bucket
 * holds at most one cdf entry; *wide marks the others, which rank8 hands
 * to rank.  ASan does not instrument gathers, so their bounds are kept
 * here: a bucket is at most B - 1, so the 8-byte read of guide[bucket] and
 * guide[bucket + 1] ends within guide's B + 1 entries; and below =
 * guide[bucket] counts the cdf entries <= bucket / B < 1, which the last
 * entry, exactly 1, is not among, so below <= n - 1 and edge[below] lies
 * within edge's n entries. */
AVX512 static inline __m512i vrank(__m512i word, const int32_t *guide, int shift, const uint64_t *edge, __mmask8 *wide)
{
    const __m512i bucket = _mm512_srl_epi64(word, _mm_cvtsi32_si128(shift));
    /* guide[bucket] in the low half, guide[bucket + 1] in the high half. */
    const __m512i pair = _mm512_i64gather_epi64(bucket, guide, 4);
    const __m512i below = _mm512_and_si512(pair, _mm512_set1_epi64(0xffffffff));
    *wide = _mm512_cmpgt_epi64_mask(_mm512_sub_epi64(_mm512_srli_epi64(pair, 32), below), _mm512_set1_epi64(1));
    const __m512i edge_below = _mm512_i64gather_epi64(below, edge, 8);
    const __mmask8 up = _mm512_cmple_epu64_mask(edge_below, _mm512_srli_epi64(word, 11));
    return _mm512_mask_sub_epi64(below, up, below, _mm512_set1_epi64(-1));
}

/* Stores the ranks of eight words in out[0..8). */
AVX512 static inline void rank8(__m512i word, const int32_t *guide, int shift, const uint64_t *edge, int64_t *out)
{
    __mmask8 wide;
    _mm512_storeu_si512(out, vrank(word, guide, shift, edge, &wide));
    if (wide) {
        uint64_t words[8];
        _mm512_storeu_si512(words, word);
        for (int j = 0; j < 8; j++)
            if (wide >> j & 1) out[j] = rank(words[j], guide, shift, edge);
    }
}

/* The stream's words a block at a time, with their ranks: word[pos] is the
 * next one, and generated counts the words the lanes have made.  The
 * lanes run up to 63 words ahead of the draw; block_end drops those. */
enum { BLOCK = 64 };
typedef struct {
    uint64_t word[BLOCK];
    int64_t rank[BLOCK];
    lanes_t lanes;
    uint64_t generated;
    int pos;
} block_t;

AVX512 static inline void block_start(block_t *block, const pcg64_t *rng)
{
    block->lanes = lanes_load(rng);
    block->generated = 0;
    block->pos = BLOCK;
}

AVX512 static void block_fill(block_t *block, const int32_t *guide, int shift, const uint64_t *edge)
{
#pragma GCC unroll 8
    for (int i = 0; i < BLOCK; i += 8) {
        const int v = i / 8 % 2;
        const __m512i word = lanes_output(&block->lanes, v);
        _mm512_storeu_si512(block->word + i, word);
        rank8(word, guide, shift, edge, block->rank + i);
        lanes_step(&block->lanes, v);
    }
    block->generated += BLOCK;
    block->pos = 0;
}

/* Moves rng, still at the state the block started from, past the words
 * the draw took: those generated, less the block's unread ones. */
AVX512 static inline void block_end(const block_t *block, pcg64_t *rng)
{
    pcg64_advance(rng, block->generated - (uint64_t)(BLOCK - block->pos));
}

/* pcg64_next32 on the block's words. */
AVX512 static inline uint32_t block_next32(block_t *block, pcg64_t *rng, const int32_t *guide, int shift,
                                           const uint64_t *edge)
{
    if (rng->has_uint32) {
        rng->has_uint32 = 0;
        return (uint32_t)rng->uinteger;
    }
    if (block->pos == BLOCK) block_fill(block, guide, shift, edge);
    const uint64_t word = block->word[block->pos++];
    rng->has_uint32 = 1;
    rng->uinteger = word >> 32;
    return (uint32_t)word;
}

/* The tally of the block's next k ranks for the task tagged tag. */
AVX512 static inline int64_t block_count(block_t *block, int64_t k, int64_t tag, const int32_t *guide, int shift,
                                         const uint64_t *edge, int64_t capacity, int64_t *stamp)
{
    int64_t n_distinct = 0;
    while (k > 0) {
        if (block->pos == BLOCK) block_fill(block, guide, shift, edge);
        const int64_t left = BLOCK - block->pos, stop = block->pos + (k < left ? k : left);
        k -= stop - block->pos;
        for (int64_t j = block->pos; j < stop; j++) n_distinct += tally(block->rank[j], tag, capacity, stamp);
        block->pos = (int)stop;
    }
    return n_distinct;
}

AVX512 static void draw_tasks_avx512(uint64_t *pcg64, int64_t n_tasks, int64_t k_lo, uint32_t span, int64_t *ks,
                                     const int32_t *guide, int shift, const uint64_t *edge, int64_t capacity,
                                     int64_t *stamp, int64_t *distinct)
{
    pcg64_t rng = pcg64_load(pcg64);
    block_t block;
    block_start(&block, &rng);
    const uint64_t k_range = (uint64_t)span + 1;
    const uint32_t threshold = (UINT32_MAX - span) % k_range;
    for (int64_t i = 0; i < n_tasks; i++) {
        int64_t k = k_lo;
        if (span) {
            uint64_t m = (uint64_t)block_next32(&block, &rng, guide, shift, edge) * k_range;
            while ((uint32_t)m < threshold) m = (uint64_t)block_next32(&block, &rng, guide, shift, edge) * k_range;
            k += (int64_t)(m >> 32);
        }
        ks[i] = k;
        distinct[i] = block_count(&block, k, i + 1, guide, shift, edge, capacity, stamp);
    }
    block_end(&block, &rng);
    pcg64_store(&rng, pcg64);
}

AVX512 static void estimate_slots_avx512(uint64_t *pcg64, int64_t n_tasks, int64_t k_lo, const int32_t *k_guide,
                                         int k_shift, const uint64_t *k_edge, int64_t *ks, const int32_t *guide,
                                         int shift, const uint64_t *edge, int64_t capacity, int64_t *stamp,
                                         double size_bits, double cycles_per_bit, double f_local_dt, double f_mec_dt,
                                         double rate_dt, double *local_counts, double *mec_counts)
{
    pcg64_t rng = pcg64_load(pcg64);
    block_t block;
    block_start(&block, &rng);
    for (int64_t i = 0; i < n_tasks; i++) {
        if (block.pos == BLOCK) block_fill(&block, k_guide, k_shift, k_edge);
        ks[i] = k_lo + block.rank[block.pos++];
    }
    /* The unread words' ranks are k ranks: the contents take a block of
     * their own. */
    block_end(&block, &rng);
    block_start(&block, &rng);
    for (int64_t i = 0; i < n_tasks; i++) {
        const int64_t n_distinct = block_count(&block, ks[i], i + 1, guide, shift, edge, capacity, stamp);
        const double local_bits = size_bits * (double)n_distinct, mec_bits = size_bits * (double)ks[i];
        local_counts[i] = (double)busy_slots(mec_bits, local_bits, cycles_per_bit, f_local_dt, rate_dt);
        mec_counts[i] = (double)busy_slots(mec_bits, mec_bits, cycles_per_bit, f_mec_dt, rate_dt);
    }
    block_end(&block, &rng);
    pcg64_store(&rng, pcg64);
}

/* mecsched_count_words with rank8's ranks: the given words, eight at a
 * time, the last eight padded with zero words. */
AVX512 static void count_words_avx512(int64_t n_tasks, const int64_t *ks, const uint64_t *words, const int32_t *guide,
                                      int shift, const uint64_t *edge, int64_t capacity, int64_t *stamp,
                                      int64_t *distinct)
{
    int64_t ranks[8], left = 0;
    for (int64_t i = 0; i < n_tasks; i++) left += ks[i] > 0 ? ks[i] : 0;
    int pos = 8;
    for (int64_t i = 0; i < n_tasks; i++) {
        int64_t n_distinct = 0;
        for (int64_t j = 0; j < ks[i]; j++) {
            if (pos == 8) {
                const __mmask8 given = left >= 8 ? 0xff : (__mmask8)((1u << left) - 1);
                rank8(_mm512_maskz_loadu_epi64(given, words), guide, shift, edge, ranks);
                words += 8;
                left -= 8;
                pos = 0;
            }
            n_distinct += tally(ranks[pos++], i + 1, capacity, stamp);
        }
        distinct[i] = n_distinct;
    }
}
#endif

/* The draws' word source: 1 for the AVX-512 lanes, 0 for pcg64_next64. */
int mecsched_word_source(void)
{
#ifdef MECSCHED_AVX512
    return avx512_words;
#else
    return 0;
#endif
}

/* Selects the AVX-512 lanes (avx512 = 1) when the processor has them, or
 * pcg64_next64 (avx512 = 0), so that tests can run both; returns the
 * source now in use. */
int mecsched_select_word_source(int avx512)
{
#ifdef MECSCHED_AVX512
    avx512_words = avx512 && __builtin_cpu_supports("avx512f") != 0;
#else
    (void)avx512;
#endif
    return mecsched_word_source();
}

/* Draws n_tasks tasks in turn.  Task i's k is Generator.integers(k_lo,
 * k_lo + span + 1), numpy's 32-bit Lemire rejection (span < 2**32 - 1),
 * and is stored in ks[i].  Its k contents are Generator.random(k), and
 * distinct[i] gets the number of distinct ranks above capacity among
 * them. */
void mecsched_draw_tasks(uint64_t *pcg64, int64_t n_tasks, int64_t k_lo, uint32_t span, int64_t *ks,
                         const int32_t *guide, int shift, const uint64_t *edge, int64_t capacity, int64_t *stamp,
                         int64_t *distinct)
{
#ifdef MECSCHED_AVX512
    if (avx512_words) {
        draw_tasks_avx512(pcg64, n_tasks, k_lo, span, ks, guide, shift, edge, capacity, stamp, distinct);
        return;
    }
#endif
    pcg64_t rng = pcg64_load(pcg64);
    const uint64_t k_range = (uint64_t)span + 1;
    const uint32_t threshold = (UINT32_MAX - span) % k_range;
    for (int64_t i = 0; i < n_tasks; i++) {
        int64_t k = k_lo;
        if (span) {
            uint64_t m = (uint64_t)pcg64_next32(&rng) * k_range;
            while ((uint32_t)m < threshold) m = (uint64_t)pcg64_next32(&rng) * k_range;
            k += (int64_t)(m >> 32);
        }
        ks[i] = k;
        int64_t n_distinct = 0;
        for (int64_t j = 0; j < k; j++)
            n_distinct += count(pcg64_next64(&rng), i + 1, guide, shift, edge, capacity, stamp);
        distinct[i] = n_distinct;
    }
    pcg64_store(&rng, pcg64);
}

/* mecsched_draw_tasks' content count for given k values, on the given
 * words in place of the generator's: task i's contents are the next ks[i]
 * words. */
void mecsched_count_words(int64_t n_tasks, const int64_t *ks, const uint64_t *words, const int32_t *guide,
                          int shift, const uint64_t *edge, int64_t capacity, int64_t *stamp, int64_t *distinct)
{
#ifdef MECSCHED_AVX512
    if (avx512_words) {
        count_words_avx512(n_tasks, ks, words, guide, shift, edge, capacity, stamp, distinct);
        return;
    }
#endif
    for (int64_t i = 0; i < n_tasks; i++) {
        int64_t n_distinct = 0;
        for (int64_t j = 0; j < ks[i]; j++)
            n_distinct += count(*words++, i + 1, guide, shift, edge, capacity, stamp);
        distinct[i] = n_distinct;
    }
}

/* The Monte Carlo estimate's n_tasks samples.  Their k values come first:
 * Generator.random(n_tasks), each ranked through k_guide, k_shift and
 * k_edge, the tables of the k cdf, as searchsorted(cdf, u, side="right")
 * ranks it; ks[i] gets k_lo plus the rank.  Then task i's contents are the
 * next ks[i] words, and with its bits size_bits * distinct (a local run)
 * and size_bits * ks[i] (an offload), local_counts[i] and mec_counts[i]
 * get busy_slots of each, as dynamics.task_bits, slots_local and
 * slots_mec give them. */
void mecsched_estimate_slots(uint64_t *pcg64, int64_t n_tasks, int64_t k_lo, const int32_t *k_guide, int k_shift,
                             const uint64_t *k_edge, int64_t *ks, const int32_t *guide, int shift,
                             const uint64_t *edge, int64_t capacity, int64_t *stamp, double size_bits,
                             double cycles_per_bit, double f_local_dt, double f_mec_dt, double rate_dt,
                             double *local_counts, double *mec_counts)
{
#ifdef MECSCHED_AVX512
    if (avx512_words) {
        estimate_slots_avx512(pcg64, n_tasks, k_lo, k_guide, k_shift, k_edge, ks, guide, shift, edge, capacity,
                              stamp, size_bits, cycles_per_bit, f_local_dt, f_mec_dt, rate_dt, local_counts,
                              mec_counts);
        return;
    }
#endif
    pcg64_t rng = pcg64_load(pcg64);
    for (int64_t i = 0; i < n_tasks; i++) ks[i] = k_lo + rank(pcg64_next64(&rng), k_guide, k_shift, k_edge);
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
