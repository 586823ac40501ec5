// Unit suite for the shared byte-budgeted LRU admission layer
// (src/util/lru_byte_cache.h) every session cache sits on. Pins the
// semantics the estimators rely on: exact LRU eviction order, byte
// accounting under replace/erase/SetBytes, selective EvictIf,
// zero-capacity and single-entry edge cases, and the monotone
// hit/miss/eviction counters that make ServeMetrics snapshots never
// move backwards across a graph rebind.

#include "util/lru_byte_cache.h"

#include <gtest/gtest.h>

#include <string>
#include <vector>

namespace geer {
namespace {

using Cache = LruByteCache<int, std::string>;

std::vector<int> KeysMruFirst(const Cache& cache) {
  std::vector<int> keys;
  cache.ForEach([&](int key, const std::string&) { keys.push_back(key); });
  return keys;
}

TEST(LruByteCacheTest, FindCountsHitsAndMissesAndBumpsRecency) {
  Cache cache(/*budget_bytes=*/100);
  EXPECT_EQ(cache.Find(1), nullptr);
  cache.Insert(1, "a", 10);
  cache.Insert(2, "b", 10);
  ASSERT_NE(cache.Find(1), nullptr);  // bumps 1 to MRU
  EXPECT_EQ(*cache.Find(1), "a");
  const CacheStats s = cache.stats();
  EXPECT_EQ(s.hits, 2u);
  EXPECT_EQ(s.misses, 1u);
  EXPECT_EQ(KeysMruFirst(cache), (std::vector<int>{1, 2}));
}

TEST(LruByteCacheTest, PeekNeitherCountsNorReorders) {
  Cache cache(100);
  cache.Insert(1, "a", 10);
  cache.Insert(2, "b", 10);
  ASSERT_NE(cache.Peek(1), nullptr);
  EXPECT_EQ(*cache.Peek(1), "a");
  EXPECT_EQ(cache.stats().hits, 0u);
  EXPECT_EQ(cache.stats().misses, 0u);
  EXPECT_EQ(KeysMruFirst(cache), (std::vector<int>{2, 1}));
}

TEST(LruByteCacheTest, EvictsInExactLruOrder) {
  Cache cache(30);
  cache.Insert(1, "a", 10);
  cache.Insert(2, "b", 10);
  cache.Insert(3, "c", 10);
  (void)cache.Find(1);  // LRU order is now (oldest first): 2, 3, 1
  cache.Insert(4, "d", 10);
  cache.EvictOverBudget();  // 40 resident, budget 30 → drop exactly 2
  EXPECT_EQ(cache.Peek(2), nullptr);
  EXPECT_NE(cache.Peek(3), nullptr);
  cache.Insert(5, "e", 10);
  cache.EvictOverBudget();  // next victim is 3
  EXPECT_EQ(cache.Peek(3), nullptr);
  EXPECT_NE(cache.Peek(1), nullptr);
  EXPECT_EQ(cache.stats().evictions, 2u);
  EXPECT_EQ(cache.bytes(), 30u);
}

TEST(LruByteCacheTest, ByteAccountingUnderReplaceEraseAndSetBytes) {
  Cache cache(1000);
  cache.Insert(1, "a", 10);
  cache.Insert(2, "b", 20);
  EXPECT_EQ(cache.bytes(), 30u);
  cache.Insert(1, "aa", 50);  // replace re-accounts, not accumulates
  EXPECT_EQ(cache.bytes(), 70u);
  EXPECT_EQ(cache.size(), 2u);
  EXPECT_EQ(*cache.Peek(1), "aa");
  cache.SetBytes(2, 5);  // payload shrank in place
  EXPECT_EQ(cache.bytes(), 55u);
  cache.SetBytes(99, 100);  // absent key: no-op
  EXPECT_EQ(cache.bytes(), 55u);
  EXPECT_TRUE(cache.Erase(1));
  EXPECT_EQ(cache.bytes(), 5u);
  EXPECT_EQ(cache.size(), 1u);
  EXPECT_FALSE(cache.Erase(1));  // already gone
}

TEST(LruByteCacheTest, ZeroCapacityRetainsNothingAfterEviction) {
  Cache cache(/*budget_bytes=*/0);
  cache.Insert(1, "a", 10);
  // Insert never evicts — the caller may hold the returned pointer.
  EXPECT_NE(cache.Peek(1), nullptr);
  cache.EvictOverBudget();
  EXPECT_EQ(cache.size(), 0u);
  EXPECT_EQ(cache.bytes(), 0u);
  // Zero-byte entries fit any budget, including zero.
  cache.Insert(2, "b", 0);
  cache.EvictOverBudget();
  EXPECT_NE(cache.Peek(2), nullptr);
}

TEST(LruByteCacheTest, SingleEntryLargerThanBudgetIsEvicted) {
  Cache cache(100);
  cache.Insert(1, "huge", 1000);
  EXPECT_EQ(cache.size(), 1u);
  cache.EvictOverBudget();
  EXPECT_EQ(cache.size(), 0u);
  EXPECT_EQ(cache.stats().evictions, 1u);
}

TEST(LruByteCacheTest, GetOrCreateStartsAtZeroBytesUntilSetBytes) {
  Cache cache(100);
  bool made = false;
  std::string* v = cache.GetOrCreate(7, [&] {
    made = true;
    return std::string("fresh");
  });
  ASSERT_NE(v, nullptr);
  EXPECT_TRUE(made);
  EXPECT_EQ(cache.bytes(), 0u);
  EXPECT_EQ(cache.stats().misses, 1u);
  made = false;
  std::string* again = cache.GetOrCreate(7, [&] {
    made = true;
    return std::string("never");
  });
  EXPECT_EQ(again, v);  // list-backed: pointer stable across the hit
  EXPECT_FALSE(made);
  EXPECT_EQ(cache.stats().hits, 1u);
  cache.SetBytes(7, 42);
  EXPECT_EQ(cache.bytes(), 42u);
}

TEST(LruByteCacheTest, ValuePointersSurviveOtherInsertions) {
  Cache cache(1 << 20);
  std::string* a = cache.Insert(1, "a", 8);
  for (int k = 2; k < 200; ++k) cache.Insert(k, "x", 8);
  // std::list storage: the first entry never moved despite 198 inserts
  // (the two-endpoints-held-at-once contract the estimators rely on).
  EXPECT_EQ(*a, "a");
  EXPECT_EQ(a, cache.Peek(1));
}

TEST(LruByteCacheTest, EvictIfRemovesExactlyTheMatchingEntries) {
  Cache cache(1000);
  cache.Insert(1, "a", 10);
  cache.Insert(2, "b", 10);
  cache.Insert(3, "c", 10);
  // Rebind-style selective invalidation: keys touching {1, 3} go.
  const std::size_t removed = cache.EvictIf(
      [](int key, const std::string&) { return key == 1 || key == 3; });
  EXPECT_EQ(removed, 2u);
  EXPECT_EQ(cache.Peek(1), nullptr);
  EXPECT_NE(cache.Peek(2), nullptr);
  EXPECT_EQ(cache.Peek(3), nullptr);
  EXPECT_EQ(cache.bytes(), 10u);
  EXPECT_EQ(cache.stats().evictions, 2u);
}

TEST(LruByteCacheTest, ClearResetsGaugesButKeepsMonotoneCounters) {
  Cache cache(20);
  (void)cache.Find(1);  // miss
  cache.Insert(1, "a", 10);
  cache.Insert(2, "b", 10);
  cache.Insert(3, "c", 30);
  (void)cache.Find(2);  // hit
  cache.EvictOverBudget();
  const CacheStats before = cache.stats();
  EXPECT_GT(before.evictions, 0u);
  cache.Clear();
  const CacheStats after = cache.stats();
  // Monotone counters survive the epoch flush (ServeMetrics contract)...
  EXPECT_EQ(after.hits, before.hits);
  EXPECT_EQ(after.misses, before.misses);
  EXPECT_EQ(after.evictions, before.evictions);
  // ...while the resident gauges reset.
  EXPECT_EQ(after.bytes, 0u);
  EXPECT_EQ(after.entries, 0u);
  // And the cache is fully usable after the flush.
  cache.Insert(4, "d", 5);
  EXPECT_NE(cache.Find(4), nullptr);
}

TEST(LruByteCacheTest, StatsAccumulateAcrossWorkers) {
  CacheStats total;
  Cache a(100);
  Cache b(100);
  a.Insert(1, "x", 10);
  (void)a.Find(1);
  (void)b.Find(9);
  total += a.stats();
  total += b.stats();
  EXPECT_EQ(total.hits, 1u);
  EXPECT_EQ(total.misses, 1u);
  EXPECT_EQ(total.entries, 1u);
  EXPECT_EQ(total.bytes, 10u);
}

}  // namespace
}  // namespace geer
