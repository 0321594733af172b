/* A ThreadSanitizer test program for the Monte Carlo estimate's threads,
 * built by tests/test_kernel.py with -fsanitize=thread against the kernel's
 * source.  On each word source the processor has, it runs
 * mecsched_estimate_slots on 2 to 4 threads in chunks of 1 and 7 samples and
 * compares the counts and the end state with a run on one thread in one
 * chunk.  It prints "runs N" and exits 0 when all N runs agree; TSan's
 * reports go to stderr.
 */
#include "_slot_loop.c"

#include <stdio.h>
#include <string.h>

/* 50 contents with 40-60 draws per task repeat ranks in every task, so
 * threads that shared a stamp row would miscount.  One-bit contents, free
 * compute and a half-bit-per-slot link make the counts 2 * distinct and
 * 2 * k. */
enum { SAMPLES = 300, CONTENTS = 50, KS = 21, K_LO = 40, CAPACITY = 5, MAX_THREADS = 4 };

static double cdf[CONTENTS], k_cdf[KS];
static uint64_t guide[4 * CONTENTS * 2 + 1], edge[CONTENTS], k_guide[4 * KS * 2 + 1], k_edge[KS];
static int shift, k_shift;

/* catalog.guide_table's shift: 64 - log2(B), B the least power of two >= 4n. */
static int shift_for(int64_t n)
{
    int log2_buckets = 0;
    while (((int64_t)1 << log2_buckets) < 4 * n) log2_buckets++;
    return 64 - log2_buckets;
}

static void estimate(int threads, int64_t chunk, uint64_t *words, double *local, double *mec)
{
    static const uint64_t start[6] = {0x0123456789abcdefULL, 0xfedcba9876543210ULL, 0x5851f42d4c957f2dULL,
                                      0x14057b7ef767814fULL, 0, 0};
    int64_t stamps[MAX_THREADS * CONTENTS] = {0};
    uint64_t offset[SAMPLES + 1];
    memcpy(words, start, sizeof start);
    mecsched_estimate_slots(words, SAMPLES, chunk, threads, K_LO, k_guide, k_shift, k_edge, guide, shift, edge,
                            CAPACITY, CONTENTS, stamps, offset, 1.0, 1.0, 1e300, 1e300, 0.5, local, mec);
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
        double local_one[SAMPLES], mec_one[SAMPLES], local[SAMPLES], mec[SAMPLES];
        uint64_t words_one[6], words[6];
        estimate(1, SAMPLES, words_one, local_one, mec_one);
        for (int threads = 2; threads <= MAX_THREADS; threads++) {
            for (int c = 0; c < 2; c++) {
                estimate(threads, chunks[c], words, local, mec);
                if (memcmp(local, local_one, sizeof local) || memcmp(mec, mec_one, sizeof mec) ||
                    memcmp(words, words_one, sizeof words)) {
                    printf("source %d, %d threads, chunks of %lld: not the one-thread run\n", source, threads,
                           (long long)chunks[c]);
                    return 1;
                }
                runs++;
            }
        }
    }
    printf("runs %d\n", runs);
    return 0;
}
