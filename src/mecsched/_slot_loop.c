/* The engine's two hot paths, compiled: the task draw and the slot loop,
 * which keeps the run's sums and completions as it goes; and the Monte
 * Carlo estimate, which draws its k values and contents and counts its
 * tasks' busy slots.  One entry per hot call, one that builds the rank
 * tables the draws read, and four for the tests.
 *
 * mecsched_draw_tasks and mecsched_estimate_slots step numpy's PCG64
 * (O'Neill's XSL-RR 128/64 generator) themselves, on the PCG64.state that
 * workload._pcg64_words packs into six words and stores back after the
 * call.  A uniform is the word's top 53 bits times 2**-53, and a 32-bit
 * value is the low half of a word, whose high half is kept for the next
 * one, as numpy's next_double and next_uint32 make them; so the draws
 * follow Generator.random and Generator.integers bit for bit.  Each word is
 * ranked in integers through one packed guide table read (see rank).
 *
 * The draws take their words from one of two sources, chosen once, when the
 * library loads: on an x86-64 processor with AVX-512F and AVX-512DQ (and a
 * GNU C compiler), sixteen lanes; everywhere else, the fused scalar loops,
 * one pcg64_next64 step per word.  The lanes hold the states 1..16 steps
 * past the generator's, two vectors of eight, and step each 16 steps at a
 * time; they fill a block of 256 words, rank each eight through one gather
 * (vrank) and keep, compressed, only the ranks above the cache capacity
 * (block_group), so the stamp test runs on uncached contents only.  The
 * draws read the block in order: the task draw's k the words, with next32's
 * buffered half, and the contents their kept ranks.  The estimate reads two
 * blocks side by side: one at the generator's state for its k values,
 * through the k cdf's tables with every rank kept, and one started n_tasks
 * words on for the contents, further on by the contents of the samples
 * before its chunk.  At the end a draw moves the generator past the words it
 * took by PCG64's jump (Brown 1994), the O(log n) map PCG64.advance uses, so
 * the words the lanes made ahead are dropped and the end state is the scalar
 * loops' own.  The scalar estimate reads its two streams the same way, from
 * two generators, 256 k values at a time.  Both sources give the same words,
 * ranks and end state; mecsched_select_word_source lets the tests run both.
 *
 * The estimate is the one entry that starts threads: it splits its samples
 * into fixed-size chunks, starts the threads it is asked for less one
 * (pthreads, joined before it returns), and the caller and they take the
 * chunks from one atomic counter, each tallying on a stamp row of its own.
 * A chunk jumps both streams to its first sample by PCG64's jump, so the
 * counts and the end state are the same for any chunk size and any number
 * of threads.  No other entry starts a thread or keeps state between
 * calls.
 *
 * mecsched_pack_guide builds catalog.packed_guide's tables in one pass
 * over the cdf and one over the buckets.
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
#include <pthread.h>
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

/* The number of cdf entries <= u for the uniform u = (word >> 11) * 2**-53,
 * through the packed guide table of B + 1 entries built by
 * catalog.packed_guide, B = 2**L, L = 64 - shift.  It runs in integers:
 * u's bucket j = floor(u * B) is word >> shift, and cdf[i] <= u exactly
 * when edge[i] <= m = word >> 11, edge[i] being ceil(cdf[i] * 2**53).
 * Bucket j's entry packs three fields: in its low L + 10 bits, below, the
 * number of cdf entries <= j / B; at bit L + 10, a flag set when the
 * bucket holds more than one of them (a wide bucket); and in its top
 * shift - 11 bits, edge[below]'s offset from the bucket's first m,
 * j * 2**(shift - 11), less 1 and capped at the bucket's width less 1.
 * word << L holds m's own offset in the same top bits, over word's low
 * 11 bits, so in a narrow bucket the count is below, plus 1 when the entry
 * with its low L + 11 bits all set lies below word << L, that is when its
 * offset is below m's: one load.  A wide bucket binary-searches edge
 * between its below and the next entry's. */
static inline int64_t rank(uint64_t word, const uint64_t *guide, int shift, const uint64_t *edge)
{
    const uint64_t bucket = word >> shift, entry = guide[bucket];
    const uint64_t wide = (uint64_t)1 << (74 - shift), below_bits = wide - 1;
    int64_t below = (int64_t)(entry & below_bits);
    /* Wide buckets are rare: without this hint the scalar draw and
     * estimate measured 3-13% slower. */
    if (__builtin_expect((entry & wide) != 0, 0)) {
        const uint64_t m = word >> 11;
        int64_t hi = (int64_t)(guide[bucket + 1] & below_bits);  /* at most this many */
        while (below < hi) {
            int64_t mid = below + (hi - below) / 2;
            if (edge[mid] <= m) below = mid + 1;
            else hi = mid;
        }
    } else {
        below += (entry | (2 * wide - 1)) < word << (64 - shift);
    }
    return below;
}

/* Stamps rank below + 1 for the task tagged tag: returns 1 if the task has
 * not drawn it before, else 0.  stamp holds one zero per content;
 * stamp[rank - 1] is the tag of the last task that drew rank. */
static inline int64_t stamp_fresh(int64_t below, int64_t tag, int64_t *stamp)
{
    const int64_t fresh = stamp[below] != tag;
    stamp[below] = tag;
    return fresh;
}

/* Counts one content of rank below + 1 for the task tagged tag: 1 if the
 * rank lies above capacity and the task has not drawn it before, else 0.
 * The AVX-512 draws drop the cached ranks first and stamp only the rest. */
static inline int64_t tally(int64_t below, int64_t tag, int64_t capacity, int64_t *stamp)
{
    /* Must stay branch-free.  At the defaults (Zipf 0.8, 1000 contents,
     * cache 50) 42% of draws are cached, so a conditional jump on the
     * cache test, as gcc 12 -O2 makes of "below >= capacity ? below + 1 :
     * 0", is a coin flip: 0.9 us per task against 0.3 us without it. */
    return stamp_fresh(below, tag, stamp) & (below >= capacity);
}

/* tally of one content's word. */
static inline int64_t count(uint64_t word, int64_t tag, const uint64_t *guide, int shift, const uint64_t *edge,
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

/* One mecsched_estimate_slots call, shared by the threads that run it: its
 * arguments, the generator's state at the call (rng), the number of chunks
 * and each one's content-word offset (offset, see chunk_offsets), and the
 * two counters the threads take their chunks and stamp rows from.  Only
 * the counters change while the threads run. */
typedef struct {
    pcg64_t rng;
    int64_t n_tasks, chunk, n_chunks, k_lo, capacity, n_contents;
    const uint64_t *k_guide, *k_edge, *guide, *edge, *offset;
    int k_shift, shift, avx512;
    int64_t *stamps;
    double size_bits, cycles_per_bit, f_local_dt, f_mec_dt, rate_dt;
    double *local_counts, *mec_counts;
    int64_t next_chunk, next_row;
} estimate_t;

/* Sample i's two counts: busy_slots of its bits size_bits * n_distinct (a
 * local run) and size_bits * k (an offload), as dynamics.task_bits,
 * slots_local and slots_mec give them. */
static inline void estimate_sample(const estimate_t *e, int64_t i, int64_t k, int64_t n_distinct)
{
    const double local_bits = e->size_bits * (double)n_distinct, mec_bits = e->size_bits * (double)k;
    e->local_counts[i] = (double)busy_slots(mec_bits, local_bits, e->cycles_per_bit, e->f_local_dt, e->rate_dt);
    e->mec_counts[i] = (double)busy_slots(mec_bits, mec_bits, e->cycles_per_bit, e->f_mec_dt, e->rate_dt);
}

#if defined(__x86_64__) && defined(__GNUC__)
#define MECSCHED_AVX512 1
#include <immintrin.h>
#define AVX512 __attribute__((target("avx512f,avx512dq")))

/* Whether the draws take their words from the AVX-512 lanes below: chosen
 * once, when the library loads, from the processor's features. */
static int avx512_words;

/* The lanes need AVX-512F, and AVX-512DQ for _mm512_mullo_epi64. */
static int has_avx512(void)
{
    return __builtin_cpu_supports("avx512f") && __builtin_cpu_supports("avx512dq");
}

__attribute__((constructor)) static void choose_word_source(void)
{
    __builtin_cpu_init();
    avx512_words = has_avx512();
}

/* Sixteen PCG64 streams in lanes: two vectors of eight states each, kept as
 * their high and low words.  Lane j (vector j / 8, element j % 8) starts
 * j + 1 steps past the generator's state, so the lanes' outputs, vector 0
 * then vector 1, are its next 16 words; each step moves every lane 16
 * steps on, by the 16-step map s * mult + plus.  mult_lo_top is mult's
 * low word shifted right by 32: the high half that _mm512_mul_epu32's
 * 32-bit partial products take. */
typedef struct {
    __m512i hi[2], lo[2];
    __m512i mult_hi, mult_lo, mult_lo_top, plus_hi, plus_lo;
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
        _mm512_set1_epi64((int64_t)mult_hi),
        _mm512_set1_epi64((int64_t)mult_lo), _mm512_set1_epi64((int64_t)(mult_lo >> 32)),
        _mm512_set1_epi64((int64_t)(uint64_t)(plus >> 64)), _mm512_set1_epi64((int64_t)(uint64_t)plus),
    };
    return lanes;
}

/* Vector v's word, XSL-RR as pcg64_next64 makes it. */
AVX512 static inline __m512i lanes_output(const lanes_t *lanes, int v)
{
    return _mm512_rorv_epi64(_mm512_xor_si512(lanes->hi[v], lanes->lo[v]), _mm512_srli_epi64(lanes->hi[v], 58));
}

/* Steps vector v's eight states 16 steps on: s * mult + plus mod 2**128.
 * Only the low word's product with mult's low word is needed in full; its
 * high word gathers the four 32-bit partial products and the carry of
 * their middle sum, and the two cross products add their low 64 bits
 * (_mm512_mullo_epi64: 0.87 ns per word on a 2-vCPU Xeon, against
 * 1.02-1.07 ns with each cross product made of three _mm512_mul_epu32). */
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
    prod_hi = _mm512_add_epi64(prod_hi, _mm512_mullo_epi64(lo, lanes->mult_hi));
    prod_hi = _mm512_add_epi64(prod_hi, _mm512_mullo_epi64(hi, lanes->mult_lo));
    const __m512i next_lo = _mm512_add_epi64(prod_lo, lanes->plus_lo);
    const __mmask8 carry = _mm512_cmplt_epu64_mask(next_lo, lanes->plus_lo);
    const __m512i next_hi = _mm512_add_epi64(prod_hi, lanes->plus_hi);
    lanes->hi[v] = _mm512_mask_sub_epi64(next_hi, carry, next_hi, _mm512_set1_epi64(-1));
    lanes->lo[v] = next_lo;
}

/* rank of eight words at once, for the lanes whose bucket is narrow: one
 * gather of their packed entries, then the same masks, shift and compare
 * as rank's; *wide marks the other lanes, which rank8 hands to rank.  ASan
 * does not instrument gathers, so their bounds are kept here: a bucket is
 * word >> shift <= B - 1, so the 8-byte read of guide[bucket] lies within
 * guide's B + 1 entries. */
AVX512 static inline __m512i vrank(__m512i word, const uint64_t *guide, int shift, __mmask8 *wide)
{
    const int64_t flag = (int64_t)1 << (74 - shift);
    const __m512i entry = _mm512_i64gather_epi64(_mm512_srl_epi64(word, _mm_cvtsi32_si128(shift)), guide, 8);
    const __m512i below = _mm512_and_si512(entry, _mm512_set1_epi64(flag - 1));
    *wide = _mm512_test_epi64_mask(entry, _mm512_set1_epi64(flag));
    const __mmask8 up = _mm512_cmplt_epu64_mask(_mm512_or_si512(entry, _mm512_set1_epi64(2 * flag - 1)),
                                                _mm512_sll_epi64(word, _mm_cvtsi32_si128(64 - shift)));
    return _mm512_mask_sub_epi64(below, up, below, _mm512_set1_epi64(-1));
}

/* The ranks of eight words: vrank's, and rank's in wide buckets. */
AVX512 static inline __m512i rank8(__m512i word, const uint64_t *guide, int shift, const uint64_t *edge)
{
    __mmask8 wide;
    __m512i ranks = vrank(word, guide, shift, &wide);
    if (wide) {
        uint64_t words[8];
        int64_t out[8];
        _mm512_storeu_si512(words, word);
        _mm512_storeu_si512(out, ranks);
        for (int j = 0; j < 8; j++)
            if (wide >> j & 1) out[j] = rank(words[j], guide, shift, edge);
        ranks = _mm512_loadu_si512(out);
    }
    return ranks;
}

/* The stream's words a block at a time, with the ranks of its uncached
 * contents: word[pos] is the next word, and generated counts the words
 * the lanes have made.  The lanes run up to BLOCK - 1 words ahead of the
 * draw; block_end drops those.  The ranks are taken through the block's
 * tables (guide, shift, edge) and only those >= capacity are kept, in
 * order: the kept ranks of group g, words [8g, 8g + 8), are
 * rank[first[g]..first[g + 1]), kept[g] marking which of its words they
 * belong to.  At capacity 0 every rank is kept, rank[j] being word[j]'s.
 * A block made for given words (the test hook) takes them from given,
 * left of them remaining, in place of the lanes.  A block of 256 splits
 * fewer tasks across refills than one of 64, whose draws and estimates
 * took 4-7% longer; 128 and 512 were no faster. */
enum { BLOCK = 256, GROUPS = BLOCK / 8 };
typedef struct {
    uint64_t word[BLOCK];
    int64_t rank[BLOCK];
    int32_t first[GROUPS + 1];
    uint8_t kept[GROUPS + 1];
    lanes_t lanes;
    const uint64_t *guide, *edge, *given;
    int shift;
    int64_t capacity, left;
    uint64_t generated;
    int pos;
} block_t;

AVX512 static inline void block_start(block_t *block, const pcg64_t *rng, const uint64_t *guide, int shift,
                                      const uint64_t *edge, int64_t capacity)
{
    block->lanes = lanes_load(rng);
    block->guide = guide;
    block->edge = edge;
    block->given = 0;
    block->shift = shift;
    block->capacity = capacity;
    block->generated = 0;
    block->pos = BLOCK;
}

/* Ranks group g's words and keeps the ranks >= capacity from rank[n] on;
 * returns n plus their number.  The compressed vector is stored whole: its
 * eight lanes end at rank[n + 8], and n <= 8 * g, so within rank's BLOCK
 * entries; the lanes past the kept ones are overwritten by the next group
 * or never read. */
AVX512 static inline int block_group(block_t *block, int g, __m512i word, int n, const uint64_t *guide, int shift,
                                     const uint64_t *edge, __m512i capacity)
{
    const __m512i ranks = rank8(word, guide, shift, edge);
    const __mmask8 kept = _mm512_cmpge_epi64_mask(ranks, capacity);
    _mm512_storeu_si512(block->rank + n, _mm512_maskz_compress_epi64(kept, ranks));
    block->first[g] = n;
    block->kept[g] = kept;
    return n + __builtin_popcount(kept);
}

AVX512 static void block_fill(block_t *block)
{
    const uint64_t *guide = block->guide, *edge = block->edge;
    const int shift = block->shift;
    const __m512i capacity = _mm512_set1_epi64(block->capacity);
    int n = 0;
    if (block->given) {
        const int64_t given = block->left < BLOCK ? block->left : BLOCK;
        for (int j = 0; j < BLOCK; j++) block->word[j] = j < given ? block->given[j] : 0;
        block->given += given;
        block->left -= given;
        for (int g = 0; g < GROUPS; g++)
            n = block_group(block, g, _mm512_loadu_si512(block->word + 8 * g), n, guide, shift, edge, capacity);
    } else {
#pragma GCC unroll 8
        for (int g = 0; g < GROUPS; g++) {
            const int v = g % 2;
            const __m512i word = lanes_output(&block->lanes, v);
            _mm512_storeu_si512(block->word + 8 * g, word);
            n = block_group(block, g, word, n, guide, shift, edge, capacity);
            lanes_step(&block->lanes, v);
        }
        block->generated += BLOCK;
    }
    block->first[GROUPS] = n;
    block->kept[GROUPS] = 0;
    block->pos = 0;
}

/* The number of kept ranks among the block's first p words. */
AVX512 static inline int block_kept(const block_t *block, int p)
{
    return block->first[p / 8] + __builtin_popcount(block->kept[p / 8] & ((1u << (p % 8)) - 1));
}

/* Moves rng, still at the state the block started from, past the words
 * the draw took: those generated, less the block's unread ones. */
AVX512 static inline void block_end(const block_t *block, pcg64_t *rng)
{
    pcg64_advance(rng, block->generated - (uint64_t)(BLOCK - block->pos));
}

/* pcg64_next32 on the block's words. */
AVX512 static inline uint32_t block_next32(block_t *block, pcg64_t *rng)
{
    if (rng->has_uint32) {
        rng->has_uint32 = 0;
        return (uint32_t)rng->uinteger;
    }
    if (block->pos == BLOCK) block_fill(block);
    const uint64_t word = block->word[block->pos++];
    rng->has_uint32 = 1;
    rng->uinteger = word >> 32;
    return (uint32_t)word;
}

/* The tally of the block's next k words for the task tagged tag: the
 * stamp test runs on their kept ranks only. */
AVX512 static inline int64_t block_count(block_t *block, int64_t k, int64_t tag, int64_t *stamp)
{
    int64_t n_distinct = 0;
    while (k > 0) {
        if (block->pos == BLOCK) block_fill(block);
        const int left = BLOCK - block->pos, stop = block->pos + (k < left ? (int)k : left);
        k -= stop - block->pos;
        const int end = block_kept(block, stop);
        for (int j = block_kept(block, block->pos); j < end; j++) n_distinct += stamp_fresh(block->rank[j], tag, stamp);
        block->pos = stop;
    }
    return n_distinct;
}

AVX512 static void draw_tasks_avx512(uint64_t *pcg64, int64_t n_tasks, int64_t k_lo, uint32_t span, int64_t *ks,
                                     const uint64_t *guide, int shift, const uint64_t *edge, int64_t capacity,
                                     int64_t *stamp, int64_t *distinct)
{
    pcg64_t rng = pcg64_load(pcg64);
    block_t block;
    block_start(&block, &rng, guide, shift, edge, capacity);
    const uint64_t k_range = (uint64_t)span + 1;
    const uint32_t threshold = (UINT32_MAX - span) % k_range;
    for (int64_t i = 0; i < n_tasks; i++) {
        int64_t k = k_lo;
        if (span) {
            uint64_t m = (uint64_t)block_next32(&block, &rng) * k_range;
            while ((uint32_t)m < threshold) m = (uint64_t)block_next32(&block, &rng) * k_range;
            k += (int64_t)(m >> 32);
        }
        ks[i] = k;
        distinct[i] = block_count(&block, k, i + 1, stamp);
    }
    block_end(&block, &rng);
    pcg64_store(&rng, pcg64);
}

/* chunk_offsets on the AVX-512 source: the k values from a block started at
 * the generator's state, ranked through the k tables at capacity 0, so
 * that each word's rank is kept in place. */
AVX512 static void chunk_offsets_avx512(const estimate_t *e, uint64_t *offset)
{
    block_t k_block;
    block_start(&k_block, &e->rng, e->k_guide, e->k_shift, e->k_edge, 0);
    uint64_t words = (uint64_t)e->n_tasks;
    for (int64_t c = 0, i = 0; c < e->n_chunks; c++) {
        offset[c] = words;
        for (const int64_t end = i + e->chunk < e->n_tasks ? i + e->chunk : e->n_tasks; i < end; i++) {
            if (k_block.pos == BLOCK) block_fill(&k_block);
            words += (uint64_t)(e->k_lo + k_block.rank[k_block.pos++]);
        }
    }
    offset[e->n_chunks] = words;
}

/* estimate_chunk on the AVX-512 source: the k values from a block started
 * at sample first's word, as chunk_offsets_avx512 ranks them, and the
 * contents from one started at the chunk's offset. */
AVX512 static void estimate_chunk_avx512(const estimate_t *e, int64_t first, int64_t size, uint64_t offset,
                                         int64_t *stamp)
{
    pcg64_t k_rng = e->rng, rng = e->rng;
    pcg64_advance(&k_rng, (uint64_t)first);
    pcg64_advance(&rng, offset);
    block_t k_block, block;
    block_start(&k_block, &k_rng, e->k_guide, e->k_shift, e->k_edge, 0);
    block_start(&block, &rng, e->guide, e->shift, e->edge, e->capacity);
    const int64_t k_lo = e->k_lo;
    for (int64_t i = first; i < first + size; i++) {
        if (k_block.pos == BLOCK) block_fill(&k_block);
        const int64_t k = k_lo + k_block.rank[k_block.pos++];
        estimate_sample(e, i, k, block_count(&block, k, i + 1, stamp));
    }
}

/* mecsched_count_words on the AVX-512 source: the task draw's block_count,
 * on a block that takes the given words. */
AVX512 static void count_words_avx512(int64_t n_tasks, const int64_t *ks, const uint64_t *words,
                                      const uint64_t *guide, int shift, const uint64_t *edge, int64_t capacity,
                                      int64_t *stamp, int64_t *distinct)
{
    block_t block = {.guide = guide, .edge = edge, .given = words, .shift = shift, .capacity = capacity, .pos = BLOCK};
    for (int64_t i = 0; i < n_tasks; i++) block.left += ks[i] > 0 ? ks[i] : 0;
    for (int64_t i = 0; i < n_tasks; i++) distinct[i] = block_count(&block, ks[i], i + 1, stamp);
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
    avx512_words = avx512 && has_avx512();
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
                         const uint64_t *guide, int shift, const uint64_t *edge, int64_t capacity, int64_t *stamp,
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
 * words.  The selected word source counts them as its draw does: on the
 * AVX-512 lanes a block at a time, with rank8, the kept ranks and
 * block_count, and otherwise one count per word. */
void mecsched_count_words(int64_t n_tasks, const int64_t *ks, const uint64_t *words, const uint64_t *guide,
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
        for (int64_t j = 0; j < ks[i]; j++) n_distinct += count(*words++, i + 1, guide, shift, edge, capacity, stamp);
        distinct[i] = n_distinct;
    }
}

/* Ranks the k stream once, to set offset[c], the number of words from the
 * generator's state to chunk c's first content: n_tasks, the k words, then
 * the contents of every sample before the chunk.  offset[n_chunks] is
 * where the whole call's contents end. */
static void chunk_offsets(const estimate_t *e, uint64_t *offset)
{
#ifdef MECSCHED_AVX512
    if (e->avx512) {
        chunk_offsets_avx512(e, offset);
        return;
    }
#endif
    pcg64_t k_rng = e->rng;
    uint64_t words = (uint64_t)e->n_tasks;
    for (int64_t c = 0, i = 0; c < e->n_chunks; c++) {
        offset[c] = words;
        for (const int64_t end = i + e->chunk < e->n_tasks ? i + e->chunk : e->n_tasks; i < end; i++)
            words += (uint64_t)(e->k_lo + rank(pcg64_next64(&k_rng), e->k_guide, e->k_shift, e->k_edge));
    }
    offset[e->n_chunks] = words;
}

/* Samples [first, first + size), whose first content is offset words past
 * the generator's state, tallied on stamp. */
static void estimate_chunk(const estimate_t *e, int64_t first, int64_t size, uint64_t offset, int64_t *stamp)
{
#ifdef MECSCHED_AVX512
    if (e->avx512) {
        estimate_chunk_avx512(e, first, size, offset, stamp);
        return;
    }
#endif
    /* The k values K_CHUNK at a time, then those samples' contents: with
     * each k drawn just before its sample's contents the estimate measured
     * about 4% slower. */
    enum { K_CHUNK = 256 };
    int64_t ks[K_CHUNK];
    const uint64_t *k_guide = e->k_guide, *k_edge = e->k_edge, *guide = e->guide, *edge = e->edge;
    const int k_shift = e->k_shift, shift = e->shift;
    const int64_t k_lo = e->k_lo, capacity = e->capacity;
    pcg64_t k_rng = e->rng, rng = e->rng;
    pcg64_advance(&k_rng, (uint64_t)first);
    pcg64_advance(&rng, offset);
    for (int64_t start = first; start < first + size; start += K_CHUNK) {
        const int64_t n = first + size - start < K_CHUNK ? first + size - start : K_CHUNK;
        for (int64_t j = 0; j < n; j++) ks[j] = k_lo + rank(pcg64_next64(&k_rng), k_guide, k_shift, k_edge);
        for (int64_t j = 0; j < n; j++) {
            int64_t n_distinct = 0;
            for (int64_t c = 0; c < ks[j]; c++)
                n_distinct += count(pcg64_next64(&rng), start + j + 1, guide, shift, edge, capacity, stamp);
            estimate_sample(e, start + j, ks[j], n_distinct);
        }
    }
}

/* One thread's share of the estimate: it takes a stamp row, then chunks
 * until none is left.  The counters need no order: offset and the
 * arguments were written before the threads started, and each chunk
 * writes its own samples' counts, which the caller reads after the joins. */
static void *estimate_chunks(void *arg)
{
    estimate_t *e = arg;
    int64_t *stamp = e->stamps + e->n_contents * __atomic_fetch_add(&e->next_row, 1, __ATOMIC_RELAXED);
    for (int64_t c; (c = __atomic_fetch_add(&e->next_chunk, 1, __ATOMIC_RELAXED)) < e->n_chunks;) {
        const int64_t first = c * e->chunk, size = e->n_tasks - first < e->chunk ? e->n_tasks - first : e->chunk;
        estimate_chunk(e, first, size, e->offset[c], stamp);
    }
    return 0;
}

/* The Monte Carlo estimate's n_tasks samples.  Their k values are
 * Generator.random(n_tasks), each ranked through k_guide, k_shift and
 * k_edge, the tables of the k cdf, as searchsorted(cdf, u, side="right")
 * ranks it, plus k_lo; the contents follow them: sample i's k contents
 * are the next k words.  So the k values and the contents are two
 * streams, the second started n_tasks words on, and sample i takes its k
 * from the first and its contents from the second; no k is stored.
 * local_counts[i] and mec_counts[i] get sample i's two counts
 * (estimate_sample), and pcg64 is left at the state after the last
 * content.
 *
 * The samples run in chunks of chunk samples (chunk >= 1), the last one
 * shorter.  chunk_offsets first ranks the k stream to place each chunk's
 * contents in offset (one word per chunk and one more); then the caller
 * and up to threads - 1 pthreads it starts take chunks, each thread on its
 * own row of stamps (threads rows of n_contents zeros), whose tags are the
 * samples' indices plus 1.  If a thread cannot be started, the threads
 * already running share the chunks. */
void mecsched_estimate_slots(uint64_t *pcg64, int64_t n_tasks, int64_t chunk, int threads, int64_t k_lo,
                             const uint64_t *k_guide, int k_shift, const uint64_t *k_edge, const uint64_t *guide,
                             int shift, const uint64_t *edge, int64_t capacity, int64_t n_contents, int64_t *stamps,
                             uint64_t *offset, double size_bits, double cycles_per_bit, double f_local_dt,
                             double f_mec_dt, double rate_dt, double *local_counts, double *mec_counts)
{
    estimate_t e = {
        .rng = pcg64_load(pcg64), .n_tasks = n_tasks, .chunk = chunk, .n_chunks = (n_tasks + chunk - 1) / chunk,
        .k_lo = k_lo, .capacity = capacity, .n_contents = n_contents, .k_guide = k_guide, .k_edge = k_edge,
        .guide = guide, .edge = edge, .offset = offset, .k_shift = k_shift, .shift = shift,
        .avx512 = mecsched_word_source(), .stamps = stamps, .size_bits = size_bits,
        .cycles_per_bit = cycles_per_bit, .f_local_dt = f_local_dt, .f_mec_dt = f_mec_dt, .rate_dt = rate_dt,
        .local_counts = local_counts, .mec_counts = mec_counts,
    };
    chunk_offsets(&e, offset);
    pthread_t workers[threads > 1 ? threads - 1 : 1];
    int started = 0;
    while (started < threads - 1 && pthread_create(&workers[started], 0, estimate_chunks, &e) == 0) started++;
    estimate_chunks(&e);
    for (int t = 0; t < started; t++) pthread_join(workers[t], 0);
    pcg64_t rng = e.rng;
    pcg64_advance(&rng, offset[e.n_chunks]);
    pcg64_store(&rng, pcg64);
}

/* catalog.packed_guide's tables for the n entries of cdf (n >= 1, the
 * last exactly 1), with B = 2**(64 - shift) buckets: the rank edges
 * ceil(cdf * 2**53) in edge, and the B + 1 packed entries in packed (see
 * rank).  The edges come in one pass over the cdf: scaling by a power of
 * two is exact, and so is the truncation of a double below 2**53 + 1.
 * Then one pass over the buckets: entry j's below, the number of entries
 * whose bucket ceil(cdf * B) = ceil(edge / 2**(53 - L)) is at most j,
 * walks the non-decreasing edges with one index.  Returns -1, or, leaving
 * the tables unfinished, the index of the first entry that is NaN, outside
 * [0, 1] or below the one before it. */
int64_t mecsched_pack_guide(const double *cdf, int64_t n, int shift, uint64_t *packed, uint64_t *edge)
{
    double before = 0.0;
    for (int64_t i = 0; i < n; i++) {
        const double c = cdf[i];
        if (!(c >= before && c <= 1.0)) return i;
        before = c;
        const double scaled = c * 0x1p53;
        const uint64_t whole = (uint64_t)scaled;
        edge[i] = whole + ((double)whole < scaled);
    }
    const int drop = shift - 11;  /* 53 - L */
    const uint64_t buckets = (uint64_t)1 << (64 - shift), width = (uint64_t)1 << drop;
    const uint64_t wide = (uint64_t)1 << (74 - shift);
    int64_t below = 0;
    while (below < n && edge[below] == 0) below++;
    for (uint64_t j = 0; j < buckets; j++) {
        int64_t next = below;
        while (next < n && (edge[next] + width - 1) >> drop <= j + 1) next++;
        const uint64_t offset = next == below ? width - 1 : (edge[below] - 1) & (width - 1);
        packed[j] = (uint64_t)below | (next - below > 1 ? wide : 0) | offset << (75 - shift);
        below = next;
    }
    packed[buckets] = (uint64_t)below;
    return -1;
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
