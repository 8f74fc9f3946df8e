// Oversubscription and pool-lifecycle stress.
//
// Correctness must not depend on lanes <= cores: the repo's contract is
// that `threads` is the paper's p, a partitioning parameter, while the
// pool's workers are an execution detail. These tests run lane counts far
// above the host's core count, hammer rapid back-to-back jobs (the window
// for the stale-worker recycling race fixed in threading.cpp — a worker
// from job N claiming lanes of job N+1 through the reset counter), and
// pin down the MP_CHECK rejection of nested fork-join.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <vector>

#include "core/mergepath.hpp"
#include "../test_support.hpp"
#include "util/data_gen.hpp"
#include "util/rng.hpp"
#include "util/threading.hpp"

namespace mp {
namespace {

TEST(Oversubscription, ManyLanesOnFewWorkersMergeCorrectly) {
  ThreadPool pool(3);  // lanes below run 11x-43x the worker count
  Xoshiro256 rng(0x0ec5ULL);
  for (const unsigned lanes : {32u, 64u, 128u}) {
    for (int iter = 0; iter < 6; ++iter) {
      const Dist dist = kAllDists[rng.bounded(std::size(kAllDists))];
      const std::size_t m = rng.bounded(20000);
      const std::size_t n = rng.bounded(20000);
      const std::uint64_t seed = rng();
      SCOPED_TRACE(::testing::Message()
                   << to_string(dist) << " m=" << m << " n=" << n
                   << " lanes=" << lanes << " seed=" << seed);
      const auto input = make_merge_input(dist, m, n, seed);
      const auto expected = test::reference_merge(input.a, input.b);
      std::vector<std::int32_t> out(m + n);
      parallel_merge(input.a.data(), m, input.b.data(), n, out.data(),
                     Executor{&pool, lanes});
      ASSERT_EQ(out, expected);
    }
  }
}

TEST(Oversubscription, SharedPoolAcceptsHugeLaneCounts) {
  const auto input = make_merge_input(Dist::kClustered, 50000, 50000, 0xabba);
  const auto expected = test::reference_merge(input.a, input.b);
  std::vector<std::int32_t> out(input.a.size() + input.b.size());
  parallel_merge(input.a.data(), input.a.size(), input.b.data(),
                 input.b.size(), out.data(), Executor{nullptr, 256});
  ASSERT_EQ(out, expected);
}

// Rapid back-to-back tiny jobs maximise the chance that a worker woken for
// job N arrives only after job N's lanes are all claimed — exactly the
// state from which the pre-fix pool could leak that worker into job N+1
// (dangling task pointer, double-claimed lane). TSan + this loop is the
// mechanical regression test for that fix; the lane-coverage assertions
// catch the double-claim symptom even without TSan.
TEST(Oversubscription, RapidBackToBackJobsNeverLeakLanesAcrossJobs) {
  ThreadPool pool(4);
  std::vector<std::atomic<std::uint32_t>> hits(8);
  for (std::uint32_t job = 0; job < 4000; ++job) {
    const unsigned lanes = 2 + job % 7;
    for (unsigned l = 0; l < lanes; ++l)
      hits[l].store(0, std::memory_order_relaxed);
    pool.parallel_for_lanes(lanes, [&](unsigned lane) {
      hits[lane].fetch_add(1, std::memory_order_relaxed);
    });
    for (unsigned l = 0; l < lanes; ++l)
      ASSERT_EQ(hits[l].load(std::memory_order_relaxed), 1u)
          << "job " << job << " lane " << l
          << " ran the wrong number of times";
  }
}

TEST(Oversubscription, AlternatingLaneCountsReusePoolCleanly) {
  ThreadPool pool(2);
  Xoshiro256 rng(0xa17eULL);
  for (int iter = 0; iter < 120; ++iter) {
    const unsigned lanes = static_cast<unsigned>(1 + rng.bounded(96));
    std::atomic<unsigned> ran{0};
    pool.parallel_for_lanes(lanes, [&](unsigned) {
      ran.fetch_add(1, std::memory_order_relaxed);
    });
    ASSERT_EQ(ran.load(), lanes) << "iter " << iter;
  }
}

#if defined(__SANITIZE_THREAD__)
#define MP_TSAN_ENABLED 1
#elif defined(__has_feature)
#if __has_feature(thread_sanitizer)
#define MP_TSAN_ENABLED 1
#endif
#endif

// threading.hpp: "Nested invocation from inside a lane is rejected with
// MP_CHECK." MP_CHECK aborts, so this is a death test. ThreadPool is the
// only executor: no algorithm forks inside a lane, so nesting is a caller
// bug, not a missing feature. The nested call must request >= 2 lanes on
// a pool with workers — the single-lane / zero-worker path legitimately
// runs inline instead.
TEST(Oversubscription, NestedForkJoinIsRejected) {
#ifdef MP_TSAN_ENABLED
  GTEST_SKIP() << "death tests fork; unreliable under TSan";
#else
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  ASSERT_DEATH(
      {
        ThreadPool pool(2);
        pool.parallel_for_lanes(3, [&](unsigned lane) {
          if (lane == 0)
            pool.parallel_for_lanes(2, [](unsigned) {});
        });
      },
      "check failed");
#endif
}

}  // namespace
}  // namespace mp
