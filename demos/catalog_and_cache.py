"""
Content catalog, cache, and what a task costs to fetch
======================================================

Builds the reference catalog (1000 contents, Zipf 0.8, 5 Mbit each),
shows how much request mass a small cache captures, and compares the
closed-form expected fetch size of a locally executed task against the
full task size an offloaded task ships.
"""

from mecsched.analysis import expected_local_bits, expected_mec_bits, uniform_k_dist
from mecsched.catalog import CacheConfig, ContentCatalog

catalog = ContentCatalog.zipf(n_contents=1000, alpha=0.8, size_bits=5e6)

print("top of the popularity curve:")
for rank in range(1, 6):
    print(f"  rank {rank}: p = {catalog.popularity[rank - 1]:.4f}")
print(f"  rank 1000: p = {catalog.popularity[-1]:.6f}")

# mass captured by the first M ranks = cache hit probability per draw
for m in (0, 10, 50, 200, 500):
    cache = CacheConfig.for_catalog(catalog, m)
    hit = catalog.popularity[:m].sum()
    print(f"cache {m:3d} contents -> hit probability per content draw {hit:.3f}")

# a task of K~U[40,60] draws repeats contents; local execution fetches each
# distinct uncached content once, offloading always ships the whole task
dist = uniform_k_dist(40, 60)
full = expected_mec_bits(catalog.size_bits, dist)
print(f"\nmean task size (always shipped when offloaded): {full / 1e6:.1f} Mbit")
print("mean fetched bits when run locally:")
for m in (0, 50, 200):
    local = expected_local_bits(catalog.size_bits, catalog.popularity, m, dist)
    print(f"  cache {m:3d}: {local / 1e6:7.2f} Mbit  ({local / full:.0%} of the full task)")
