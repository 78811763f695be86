#include "malsched/service/cache.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <string>
#include <vector>

#include "malsched/support/thread_pool.hpp"

namespace msvc = malsched::service;
namespace ms = malsched::support;

namespace {

// Two completions => entry_weight == 3.
msvc::CachedSolve value_of(double objective) {
  msvc::CachedSolve value;
  value.objective = objective;
  value.makespan = objective / 2.0;
  value.completions = {objective, objective * 2.0};
  return value;
}

msvc::CachedSolve value_with_n(double objective, std::size_t n) {
  msvc::CachedSolve value;
  value.objective = objective;
  value.completions.assign(n, objective);
  return value;
}

}  // namespace

TEST(Cache, EntryWeightIsOnePlusCompletionLength) {
  EXPECT_EQ(msvc::entry_weight(value_of(1.0)), 3u);
  EXPECT_EQ(msvc::entry_weight(value_with_n(1.0, 500)), 501u);
  EXPECT_EQ(msvc::entry_weight(msvc::CachedSolve{}), 1u);
}

TEST(Cache, PutGetRoundTrip) {
  msvc::ResultCache cache(16);
  EXPECT_FALSE((cache.get("a") != nullptr));
  cache.put("a", value_of(3.0));
  const auto hit = cache.get("a");
  ASSERT_TRUE(hit != nullptr);
  EXPECT_DOUBLE_EQ(hit->objective, 3.0);
  EXPECT_DOUBLE_EQ(hit->makespan, 1.5);
  ASSERT_EQ(hit->completions.size(), 2u);

  const auto stats = cache.stats();
  EXPECT_EQ(stats.hits, 1u);
  EXPECT_EQ(stats.misses, 1u);
  EXPECT_EQ(stats.entries, 1u);
  EXPECT_EQ(stats.weight, 3u);
}

TEST(Cache, PutReplacesExistingKey) {
  msvc::ResultCache cache(16);
  cache.put("k", value_of(1.0));
  cache.put("k", value_with_n(9.0, 4));  // weight 3 -> 5, no double count
  EXPECT_DOUBLE_EQ(cache.get("k")->objective, 9.0);
  const auto stats = cache.stats();
  EXPECT_EQ(stats.entries, 1u);
  EXPECT_EQ(stats.weight, 5u);
}

TEST(Cache, SipHashMatchesTheReferenceVector) {
  // SipHash-2-4-128 reference vector 0: key 00 01 .. 0f, empty message.
  const auto digest = msvc::detail::siphash_2_4_128(
      "", 0x0706050403020100ULL, 0x0f0e0d0c0b0a0908ULL);
  EXPECT_EQ(digest[0], 0xe6a825ba047f81a3ULL);
  EXPECT_EQ(digest[1], 0x930255c71472f66dULL);
}

TEST(Cache, BinaryKeysWithEmbeddedNulsStayDistinct) {
  msvc::ResultCache cache(64);
  const std::string a("optimal\n\0\0\x01", 11);
  const std::string b("optimal\n\0\0\x02", 11);
  cache.put(a, value_of(1.0));
  cache.put(b, value_of(2.0));
  EXPECT_DOUBLE_EQ(cache.get(a)->objective, 1.0);
  EXPECT_DOUBLE_EQ(cache.get(b)->objective, 2.0);
  EXPECT_FALSE((cache.get(std::string("optimal\n\0", 9)) != nullptr));
}

TEST(Cache, HitOutlivesEvictionOfItsEntry) {
  msvc::ResultCache cache(3, /*shards=*/1);
  cache.put("a", value_of(4.0));
  const auto hit = cache.get("a");
  cache.put("b", value_of(5.0));  // evicts a while the hit still reads it
  EXPECT_FALSE((cache.get("a") != nullptr));
  ASSERT_TRUE(hit != nullptr);
  EXPECT_DOUBLE_EQ(hit->objective, 4.0);
  ASSERT_EQ(hit->completions.size(), 2u);
  EXPECT_DOUBLE_EQ(hit->completions[1], 8.0);
}

TEST(Cache, LruEvictionOrder) {
  // One shard makes the LRU order deterministic and observable.  Weight-3
  // entries with capacity 6: room for exactly two.
  msvc::ResultCache cache(6, /*shards=*/1);
  cache.put("a", value_of(1.0));
  cache.put("b", value_of(2.0));
  EXPECT_TRUE((cache.get("a") != nullptr));  // refresh a: b is now LRU
  cache.put("c", value_of(3.0));            // evicts b

  EXPECT_TRUE((cache.get("a") != nullptr));
  EXPECT_FALSE((cache.get("b") != nullptr));
  EXPECT_TRUE((cache.get("c") != nullptr));
  const auto stats = cache.stats();
  EXPECT_EQ(stats.evictions, 1u);
  EXPECT_EQ(stats.entries, 2u);
  EXPECT_EQ(stats.weight, 6u);
}

TEST(Cache, HeavyEntryEvictsAsManyLightOnesAsItWeighs) {
  // Size-aware eviction: one n = 8 entry (weight 9) displaces three weight-3
  // entries from a 12-unit shard, not just one.
  msvc::ResultCache cache(12, /*shards=*/1);
  cache.put("a", value_of(1.0));
  cache.put("b", value_of(2.0));
  cache.put("c", value_of(3.0));
  cache.put("d", value_of(4.0));  // weight 12: exactly full, no eviction
  EXPECT_EQ(cache.stats().evictions, 0u);

  cache.put("big", value_with_n(9.0, 8));  // weight 9: evicts a, b, c
  const auto stats = cache.stats();
  EXPECT_EQ(stats.evictions, 3u);
  EXPECT_EQ(stats.entries, 2u);
  EXPECT_EQ(stats.weight, 12u);
  EXPECT_TRUE((cache.get("big") != nullptr));
  EXPECT_TRUE((cache.get("d") != nullptr));
  EXPECT_FALSE((cache.get("a") != nullptr));
}

TEST(Cache, OversizedEntryIsAdmittedAlone) {
  // An entry heavier than the whole shard budget still caches (a 1-entry
  // memo beats re-solving a huge instance every time); the next put evicts
  // it normally.
  msvc::ResultCache cache(8, /*shards=*/1);
  cache.put("huge", value_with_n(1.0, 100));  // weight 101 > 8
  EXPECT_TRUE((cache.get("huge") != nullptr));
  EXPECT_EQ(cache.stats().weight, 101u);
  cache.put("small", value_of(2.0));  // evicts huge, shard back under budget
  EXPECT_FALSE((cache.get("huge") != nullptr));
  EXPECT_TRUE((cache.get("small") != nullptr));
  EXPECT_EQ(cache.stats().weight, 3u);
}

TEST(Cache, CapacityIsSpreadAcrossShards) {
  msvc::ResultCache cache(64, 8);
  EXPECT_EQ(cache.shard_count(), 8u);
  for (int i = 0; i < 64; ++i) {
    cache.put("key-" + std::to_string(i), value_of(i));
  }
  const auto stats = cache.stats();
  EXPECT_LE(stats.weight, 64u);
  EXPECT_EQ(stats.capacity, 64u);
}

TEST(Cache, ClearEmptiesEveryShard) {
  msvc::ResultCache cache(32, 4);
  for (int i = 0; i < 20; ++i) {
    cache.put("key-" + std::to_string(i), value_of(i));
  }
  cache.clear();
  EXPECT_EQ(cache.stats().entries, 0u);
  EXPECT_EQ(cache.stats().weight, 0u);
  EXPECT_FALSE((cache.get("key-3") != nullptr));
}

TEST(Cache, HitRateArithmetic) {
  msvc::ResultCache cache(8);
  EXPECT_DOUBLE_EQ(cache.stats().hit_rate(), 0.0);
  cache.put("x", value_of(1.0));
  (void)cache.get("x");
  (void)cache.get("x");
  (void)cache.get("y");
  EXPECT_NEAR(cache.stats().hit_rate(), 2.0 / 3.0, 1e-12);
}

TEST(Cache, TtlZeroExpiresEveryEntryAtTheNextLookup) {
  // ttl = 0 makes every entry stale the moment it is written: the lookup
  // that finds it evicts it (lazy expiry), reporting a miss and an
  // `expired` eviction — never a capacity eviction.
  msvc::CacheOptions options;
  options.capacity = 64;
  options.shards = 1;
  options.ttl = std::chrono::duration<double>(0.0);
  msvc::ResultCache cache(options);
  EXPECT_TRUE(cache.has_ttl());

  cache.put("k", value_of(1.0));
  EXPECT_EQ(cache.stats().entries, 1u);
  EXPECT_FALSE((cache.get("k") != nullptr));
  const auto stats = cache.stats();
  EXPECT_EQ(stats.entries, 0u);
  EXPECT_EQ(stats.weight, 0u);
  EXPECT_EQ(stats.expired, 1u);
  EXPECT_EQ(stats.evictions, 0u);
  EXPECT_EQ(stats.hits, 0u);
  EXPECT_EQ(stats.misses, 1u);
}

TEST(Cache, LongTtlKeepsServingHits) {
  msvc::CacheOptions options;
  options.capacity = 64;
  options.ttl = std::chrono::duration<double>(3600.0);
  msvc::ResultCache cache(options);
  cache.put("k", value_of(2.0));
  for (int i = 0; i < 3; ++i) {
    EXPECT_TRUE((cache.get("k") != nullptr));
  }
  EXPECT_EQ(cache.stats().hits, 3u);
  EXPECT_EQ(cache.stats().expired, 0u);
}

TEST(Cache, PutRefreshesTheTtlDeadline) {
  // Re-putting a key restarts its clock: with ttl = 0 the refreshed entry
  // expires again, proving the deadline is per-write, not per-key-creation.
  msvc::CacheOptions options;
  options.capacity = 64;
  options.shards = 1;
  options.ttl = std::chrono::duration<double>(0.0);
  msvc::ResultCache cache(options);
  cache.put("k", value_of(1.0));
  EXPECT_FALSE((cache.get("k") != nullptr));
  cache.put("k", value_of(9.0));  // re-insert after expiry eviction
  EXPECT_EQ(cache.stats().entries, 1u);
  EXPECT_FALSE((cache.get("k") != nullptr));
  EXPECT_EQ(cache.stats().expired, 2u);
}

TEST(Cache, NoTtlByDefault) {
  msvc::ResultCache cache(16);
  EXPECT_FALSE(cache.has_ttl());
  cache.put("k", value_of(1.0));
  EXPECT_TRUE((cache.get("k") != nullptr));
  EXPECT_EQ(cache.stats().expired, 0u);
}

namespace {

// One-shard admission cache: LRU order and contest outcomes deterministic.
msvc::CacheOptions admission_options(std::size_t capacity) {
  msvc::CacheOptions options;
  options.capacity = capacity;
  options.shards = 1;
  options.admission = true;
  options.admission_sketch.counters = 1 << 8;
  options.admission_sketch.sample_size = 1 << 16;  // no mid-test halving
  return options;
}

}  // namespace

TEST(Cache, AdmissionIsOffByDefaultAndCountersStayZero) {
  msvc::ResultCache cache(6, /*shards=*/1);
  EXPECT_FALSE(cache.has_admission());
  cache.put("a", value_of(1.0));
  cache.put("b", value_of(2.0));
  cache.put("c", value_of(3.0));  // legacy behavior: always admitted
  const auto stats = cache.stats();
  EXPECT_EQ(stats.admitted, 0u);
  EXPECT_EQ(stats.rejected, 0u);
  EXPECT_EQ(stats.evictions, 1u);
  EXPECT_TRUE((cache.get("c") != nullptr));
}

TEST(Cache, AdmissionProtectsPopularResidentsFromOneShotFloods) {
  // Weight-3 entries, capacity 6: room for two.  "hot" is looked up
  // repeatedly; a parade of fresh keys then tries to flush it.  Plain LRU
  // would evict hot after two inserts; the filter rejects every newcomer
  // whose victim is the strictly more popular resident.
  msvc::ResultCache cache(admission_options(6));
  EXPECT_TRUE(cache.has_admission());
  cache.put("hot", value_of(1.0));
  for (int i = 0; i < 8; ++i) {
    EXPECT_TRUE((cache.get("hot") != nullptr));
  }
  cache.put("warm", value_of(2.0));  // fills the second slot (no contest
                                     // needed: still under budget)
  for (int i = 0; i < 4; ++i) {
    EXPECT_TRUE((cache.get("warm") != nullptr));
  }

  for (int i = 0; i < 16; ++i) {
    cache.put("one-shot-" + std::to_string(i), value_of(9.0));
  }
  // Every flood key was seen once (its own put); the LRU victim "hot" has
  // 9 sightings: all 16 inserts lose the contest.
  const auto stats = cache.stats();
  EXPECT_EQ(stats.rejected, 16u);
  EXPECT_EQ(stats.evictions, 0u);
  EXPECT_EQ(stats.admitted, 2u);  // hot and warm themselves
  EXPECT_TRUE((cache.get("hot") != nullptr));
  EXPECT_TRUE((cache.get("warm") != nullptr));
  EXPECT_FALSE((cache.get("one-shot-3") != nullptr));
}

TEST(Cache, RecurringKeyEventuallyWinsTheContest) {
  // A rejected key is not banished: every arrival (get miss + re-put) adds
  // popularity, and once it ties the victim it displaces it.
  msvc::ResultCache cache(admission_options(6));
  cache.put("a", value_of(1.0));
  cache.put("b", value_of(2.0));
  for (int i = 0; i < 3; ++i) {
    (void)cache.get("b");  // b: 4 sightings
  }
  for (int i = 0; i < 4; ++i) {
    (void)cache.get("a");  // a: 5 sightings, and b is now the LRU victim
  }

  // Each round trip is a get miss plus a re-put: 2 sightings.  Rounds 1
  // (score 2 vs 4) is rejected; round 2 ties at 4 and displaces b.
  int attempts = 0;
  while (cache.get("newcomer") == nullptr) {
    cache.put("newcomer", value_of(7.0));
    ASSERT_LT(++attempts, 16) << "newcomer was never admitted";
  }
  // The newcomer displaced exactly the weaker resident.
  EXPECT_GE(attempts, 2);  // first attempt must have been rejected
  EXPECT_GT(cache.stats().rejected, 0u);
  EXPECT_GT(cache.stats().evictions, 0u);
  EXPECT_TRUE((cache.get("a") != nullptr)) << "the popular resident survives";
}

TEST(Cache, AdmissionRefreshOfResidentKeyBypassesTheContest) {
  msvc::ResultCache cache(admission_options(6));
  cache.put("k", value_of(1.0));
  for (int i = 0; i < 5; ++i) {
    (void)cache.get("k");
  }
  cache.put("k", value_with_n(9.0, 4));  // refresh: weight 3 -> 5, no contest
  const auto stats = cache.stats();
  EXPECT_EQ(stats.rejected, 0u);
  EXPECT_EQ(stats.admitted, 1u);  // only the original insert counted
  EXPECT_DOUBLE_EQ(cache.get("k")->objective, 9.0);
}

TEST(Cache, AdmissionTieAdmitsLikeLru) {
  // Fresh victim vs fresh candidate is a tie, and ties admit: a stream with
  // no recurring keys cycles through the cache exactly as plain LRU would.
  msvc::ResultCache cache(admission_options(6));
  for (int i = 0; i < 8; ++i) {
    cache.put("k-" + std::to_string(i), value_of(i));
  }
  const auto stats = cache.stats();
  EXPECT_EQ(stats.rejected, 0u);
  EXPECT_EQ(stats.admitted, 8u);
  EXPECT_EQ(stats.evictions, 6u);
  EXPECT_EQ(stats.entries, 2u);
}

TEST(Cache, AdmissionDoesNotDisturbTtlExpiry) {
  // TTL expiry is orthogonal to admission: expired entries still evict
  // lazily at lookup, counted in `expired` (not `rejected`), and the
  // re-insert after expiry passes through the contest machinery.
  auto options = admission_options(64);
  options.ttl = std::chrono::duration<double>(0.0);
  msvc::ResultCache cache(options);
  cache.put("k", value_of(1.0));
  EXPECT_FALSE((cache.get("k") != nullptr));
  cache.put("k", value_of(9.0));
  EXPECT_FALSE((cache.get("k") != nullptr));
  const auto stats = cache.stats();
  EXPECT_EQ(stats.expired, 2u);
  EXPECT_EQ(stats.evictions, 0u);
  EXPECT_EQ(stats.rejected, 0u);
  EXPECT_EQ(stats.admitted, 2u);  // both inserts were under budget
  EXPECT_EQ(stats.misses, 2u);
}

TEST(Cache, AdmissionOversizedEntryStillContestsItsVictims) {
  // An oversized newcomer must beat each resident it displaces; a fresh
  // giant against fresh residents ties every contest and is admitted alone,
  // exactly like the legacy oversized path.
  msvc::ResultCache cache(admission_options(8));
  cache.put("small", value_of(1.0));
  cache.put("huge", value_with_n(1.0, 100));  // weight 101 > 8
  EXPECT_TRUE((cache.get("huge") != nullptr));
  EXPECT_FALSE((cache.get("small") != nullptr));
  EXPECT_EQ(cache.stats().weight, 101u);
  EXPECT_EQ(cache.stats().evictions, 1u);
}

TEST(Cache, ConcurrentMixedTrafficStaysConsistent) {
  // Hammer a small cache from many workers: every get must observe either
  // a miss or the exact value put under that key, and the counters must
  // account for every operation.
  msvc::ResultCache cache(64, 8);
  ms::ThreadPool pool(4);
  const std::size_t ops = 4000;
  std::atomic<std::uint64_t> observed_hits{0};
  std::atomic<std::uint64_t> observed_misses{0};
  std::atomic<std::uint64_t> bad_values{0};

  pool.parallel_for(0, ops, [&](std::size_t i) {
    const int key_id = static_cast<int>(i % 97);
    const std::string key = "key-" + std::to_string(key_id);
    if (i % 3 == 0) {
      cache.put(key, value_of(static_cast<double>(key_id)));
    } else {
      const auto hit = cache.get(key);
      if (hit != nullptr) {
        observed_hits.fetch_add(1, std::memory_order_relaxed);
        if (hit->objective != static_cast<double>(key_id)) {
          bad_values.fetch_add(1, std::memory_order_relaxed);
        }
      } else {
        observed_misses.fetch_add(1, std::memory_order_relaxed);
      }
    }
  });

  EXPECT_EQ(bad_values.load(), 0u);
  const auto stats = cache.stats();
  EXPECT_EQ(stats.hits, observed_hits.load());
  EXPECT_EQ(stats.misses, observed_misses.load());
  EXPECT_EQ(stats.hits + stats.misses, ops - (ops + 2) / 3);
  // Weight-3 entries against a ceil(64/8) = 8 per-shard budget: every shard
  // settles at <= 8 weight after each put.
  EXPECT_LE(stats.weight, 64u);
}
