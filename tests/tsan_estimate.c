/* A ThreadSanitizer test program for the kernel's threads, built by
 * tests/test_kernel.py with -fsanitize=thread against the kernel's source.
 * On each word source the processor has, it runs mecsched_estimate_slots
 * (its counts 1, 2 and 8 bytes wide, and their sums, which the caller's
 * thread takes from the threads' counts) and mecsched_draw_tasks on 2 to 4
 * threads in chunks of 1 and 7 tasks and compares the results and the end
 * state with a run on one thread.  Then
 * it calls each entry many times in a row with more threads than chunks,
 * so that threads start after the last chunk was taken, and often after
 * the call has returned.  It prints "runs N" and exits 0 when all N runs
 * agree; TSan's reports go to stderr.
 */
#include "_slot_loop.c"

#include <stdio.h>
#include <string.h>

/* 50 contents with 40-60 draws per task repeat ranks in every task, so
 * threads that shared a stamp row would miscount.  One-bit contents, free
 * compute and a half-bit-per-slot link make the counts 2 * distinct and
 * 2 * k. */
enum { SAMPLES = 300, CONTENTS = 50, KS = 21, K_LO = 40, CAPACITY = 5, MAX_THREADS = 4, LATE_CALLS = 40 };

static double cdf[CONTENTS], k_cdf[KS];
static uint64_t guide[4 * CONTENTS * 2 + 1], edge[CONTENTS], k_guide[4 * KS * 2 + 1], k_edge[KS];
static int shift, k_shift;

/* catalog.packed_guide's shift: 64 - log2(B), B the least power of two >= 4n. */
static int shift_for(int64_t n)
{
    int log2_buckets = 0;
    while (((int64_t)1 << log2_buckets) < 4 * n) log2_buckets++;
    return 64 - log2_buckets;
}

/* The state both entries start from; the draw's has a 32-bit half
 * buffered. */
static const uint64_t start[6] = {0x0123456789abcdefULL, 0xfedcba9876543210ULL, 0x5851f42d4c957f2dULL,
                                  0x14057b7ef767814fULL, 0, 0};

/* The estimate's count widths: the counts (at most 120) fit each. */
static const int widths[] = {1, 2, 8};

/* Count i of counts, width bytes each. */
static uint64_t count_at(const uint8_t *counts, int width, int64_t i)
{
    switch (width) {
    case 1: return counts[i];
    case 2: return ((const uint16_t *)counts)[i];
    default: return ((const uint64_t *)counts)[i];
    }
}

/* An estimate with counts width bytes wide: its end state in words, its
 * counts in local and mec, and its four sums. */
static void estimate(int threads, int64_t chunk, int width, uint64_t *words, uint64_t *local, uint64_t *mec,
                     double *sums)
{
    int64_t stamps[MAX_THREADS * CONTENTS] = {0};
    uint64_t offset[SAMPLES + 1], local_counts[SAMPLES], mec_counts[SAMPLES];
    memcpy(words, start, sizeof start);
    mecsched_estimate_slots(words, SAMPLES, chunk, threads, K_LO, k_guide, k_shift, k_edge, guide, shift, edge,
                            CAPACITY, CONTENTS, stamps, offset, 1.0, 1.0, 1e300, 1e300, 0.5, local_counts, width,
                            mec_counts, width, sums);
    for (int64_t i = 0; i < SAMPLES; i++) {
        local[i] = count_at((const uint8_t *)local_counts, width, i);
        mec[i] = count_at((const uint8_t *)mec_counts, width, i);
    }
}

/* SAMPLES tasks with k in K_LO..K_LO + KS - 1, whose jump table is shorter
 * than the draw, so that it runs in chunks. */
static void draw(int threads, int64_t chunk, uint64_t *words, int64_t *ks, int64_t *distinct)
{
    int64_t stamps[MAX_THREADS * CONTENTS] = {0};
    memcpy(words, start, sizeof start);
    words[4] = 1;
    words[5] = 0x9e3779b9;
    mecsched_draw_tasks(words, SAMPLES, chunk, threads, K_LO, KS - 1, ks, guide, shift, edge, CAPACITY, CONTENTS,
                        stamps, distinct);
}

/* Whether estimates at every count width and a draw on threads threads in
 * chunks of chunk tasks equal the one-thread ones. */
static int agree(int threads, int64_t chunk, const uint64_t *local_one, const uint64_t *mec_one,
                 const double *sums_one, const uint64_t *words_one, const int64_t *ks_one,
                 const int64_t *distinct_one, const uint64_t *draw_words_one)
{
    uint64_t local[SAMPLES], mec[SAMPLES], words[6], draw_words[6];
    int64_t ks[SAMPLES], distinct[SAMPLES];
    double sums[4];
    for (int w = 0; w < 3; w++) {
        estimate(threads, chunk, widths[w], words, local, mec, sums);
        if (memcmp(local, local_one, sizeof local) || memcmp(mec, mec_one, sizeof mec) ||
            memcmp(sums, sums_one, sizeof sums) || memcmp(words, words_one, sizeof words))
            return 0;
    }
    draw(threads, chunk, draw_words, ks, distinct);
    return !memcmp(ks, ks_one, sizeof ks) && !memcmp(distinct, distinct_one, sizeof distinct) &&
           !memcmp(draw_words, draw_words_one, sizeof draw_words);
}

int main(void)
{
    /* Zipf 1 over the contents, k uniform over 21 values. */
    double total = 0.0, sum = 0.0;
    for (int i = 0; i < CONTENTS; i++) total += 1.0 / (i + 1);
    for (int i = 0; i < CONTENTS; i++) {
        sum += 1.0 / (i + 1);
        cdf[i] = sum / total < 1.0 ? sum / total : 1.0;
    }
    cdf[CONTENTS - 1] = 1.0;
    for (int i = 0; i < KS; i++) k_cdf[i] = (i + 1) / (double)KS;
    shift = shift_for(CONTENTS);
    k_shift = shift_for(KS);
    if (mecsched_pack_guide(cdf, CONTENTS, shift, guide, edge) != -1 ||
        mecsched_pack_guide(k_cdf, KS, k_shift, k_guide, k_edge) != -1) {
        puts("a cdf was refused");
        return 1;
    }
    const int64_t chunks[] = {1, 7};
    int runs = 0;
    for (int source = 0; source < 2; source++) {
        if (mecsched_select_word_source(source) != source) continue;
        uint64_t local_one[SAMPLES], mec_one[SAMPLES], words_one[6], draw_words_one[6];
        int64_t ks_one[SAMPLES], distinct_one[SAMPLES];
        double sums_one[4];
        estimate(1, SAMPLES, 8, words_one, local_one, mec_one, sums_one);
        draw(1, SAMPLES, draw_words_one, ks_one, distinct_one);
        for (int threads = 2; threads <= MAX_THREADS; threads++) {
            for (int c = 0; c < 2; c++) {
                if (!agree(threads, chunks[c], local_one, mec_one, sums_one, words_one, ks_one, distinct_one,
                           draw_words_one)) {
                    printf("source %d, %d threads, chunks of %lld: not the one-thread run\n", source, threads,
                           (long long)chunks[c]);
                    return 1;
                }
                runs++;
            }
        }
        /* Two chunks, then one (which the draw runs on the caller alone), for
         * four threads. */
        for (int call = 0; call < LATE_CALLS; call++) {
            if (!agree(MAX_THREADS, SAMPLES / 2 + (call % 2) * SAMPLES / 2, local_one, mec_one, sums_one, words_one,
                       ks_one, distinct_one, draw_words_one)) {
                printf("source %d, call %d with more threads than chunks: not the one-thread run\n", source, call);
                return 1;
            }
            runs++;
        }
    }
    printf("runs %d\n", runs);
    return 0;
}
