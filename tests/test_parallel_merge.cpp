// Tests for core/parallel_merge.hpp (Algorithm 1): correctness against the
// stable reference across distributions, shapes and thread counts;
// stability; every entry point built on the same lane bodies (resilient,
// multiway, tiled, sort) at the sizes around the lane count;
// instrumentation invariants (perfect balance, O(N + p log N) work);
// exception safety.

#include "core/parallel_merge.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <span>
#include <stdexcept>
#include <string>
#include <tuple>

#include "core/multiway_merge.hpp"
#include "core/recovery.hpp"
#include "core/tiled_merge.hpp"
#include "test_support.hpp"
#include "util/data_gen.hpp"

namespace mp {
namespace {

class ParallelMergeCorrectness
    : public ::testing::TestWithParam<std::tuple<Dist, unsigned>> {};

TEST_P(ParallelMergeCorrectness, MatchesReference) {
  const auto [dist, threads] = GetParam();
  Executor exec{nullptr, threads};
  constexpr std::pair<std::size_t, std::size_t> kShapes[] = {
      {1000, 1000}, {1000, 37}, {37, 1000}, {1, 999}, {0, 512}, {512, 0}};
  for (const auto& [m, n] : kShapes) {
    const auto input = make_merge_input(dist, m, n, 97 + m + n);
    std::vector<std::int32_t> out(m + n);
    parallel_merge(input.a.data(), m, input.b.data(), n, out.data(), exec);
    EXPECT_EQ(out, test::reference_merge(input.a, input.b))
        << to_string(dist) << " m=" << m << " n=" << n << " p=" << threads;
  }
}

/// Records carrying `keys` with unique payloads first, first+1, ...
std::vector<KeyedRecord> with_payloads(const std::vector<std::int32_t>& keys,
                                       std::uint32_t first) {
  std::vector<KeyedRecord> out(keys.size());
  for (std::size_t i = 0; i < keys.size(); ++i)
    out[i] = {keys[i], first + static_cast<std::uint32_t>(i)};
  return out;
}

/// Runs `fn` on a fresh output buffer of `size` records and returns it.
template <typename Fn>
std::vector<KeyedRecord> produced(std::size_t size, Fn&& fn) {
  std::vector<KeyedRecord> out(size);
  fn(out.data());
  return out;
}

TEST_P(ParallelMergeCorrectness, EdgeSizesEveryEntryPoint) {
  // Sizes around the lane count, where degenerate inputs collapse to one
  // lane: every entry point, plain and resilient, stays byte-exact
  // against the std:: stable references, payloads included.
  const auto [dist, p] = GetParam();
  const Executor exec{nullptr, p};
  using Runs = std::vector<std::span<const KeyedRecord>>;
  for (const std::size_t total : {std::size_t{0}, std::size_t{1},
                                  std::size_t{p} - 1, std::size_t{p},
                                  std::size_t{p} + 1}) {
    for (std::size_t m = 0; m <= total; ++m) {
      const std::size_t n = total - m;
      const auto keys = make_merge_input(dist, m, n, 211 + 37 * total + m);
      const auto a = with_payloads(keys.a, 1);
      const auto b = with_payloads(keys.b, 1 + static_cast<std::uint32_t>(m));
      std::vector<KeyedRecord> want(total);
      std::merge(a.begin(), a.end(), b.begin(), b.end(), want.begin());
      const std::string at = to_string(dist) + " p=" + std::to_string(p) +
                             " m=" + std::to_string(m) +
                             " n=" + std::to_string(n);

      EXPECT_EQ(produced(total,
                         [&](KeyedRecord* out) {
                           parallel_merge(a.data(), m, b.data(), n, out, exec);
                         }),
                want)
          << "parallel_merge " << at;
      EXPECT_EQ(produced(total,
                         [&](KeyedRecord* out) {
                           resilient_parallel_merge(a.data(), m, b.data(), n,
                                                    out, exec);
                         }),
                want)
          << "resilient_parallel_merge " << at;
      EXPECT_EQ(produced(total,
                         [&](KeyedRecord* out) {
                           tiled_parallel_merge(a.data(), m, b.data(), n, out,
                                                1, exec);
                         }),
                want)
          << "tiled_parallel_merge " << at;

      // Splitting B at its midpoint gives a third run whose 3-way merge
      // (lower run wins ties) is the same stable sequence.
      const std::span<const KeyedRecord> bs(b);
      const Runs two{a, b};
      const Runs three{a, bs.first(n / 2), bs.subspan(n / 2)};
      for (const Runs* runs : {&two, &three}) {
        const std::span<const std::span<const KeyedRecord>> view(*runs);
        const std::string k = std::to_string(runs->size()) + " runs ";
        EXPECT_EQ(produced(total,
                           [&](KeyedRecord* out) {
                             parallel_multiway_merge(view, out, exec);
                           }),
                  want)
            << "parallel_multiway_merge " << k << at;
        EXPECT_EQ(produced(total,
                           [&](KeyedRecord* out) {
                             resilient_parallel_multiway_merge(view, out,
                                                               exec);
                           }),
                  want)
            << "resilient_parallel_multiway_merge " << k << at;
      }
    }
  }

  // The sort's one-lane cut-off is a full base-case run per lane.
  constexpr std::size_t kRun = detail::kInsertionSortThreshold;
  for (const std::size_t n :
       {std::size_t{0}, std::size_t{1}, std::size_t{p} - 1, std::size_t{p},
        std::size_t{p} + 1, kRun * p, kRun * p + 1}) {
    const auto keys = make_merge_input(dist, n / 2, n - n / 2, 307 + n);
    auto data = with_payloads(keys.a, 1);
    const auto tail =
        with_payloads(keys.b, 1 + static_cast<std::uint32_t>(keys.a.size()));
    data.insert(data.end(), tail.rbegin(), tail.rend());
    auto want = data;
    std::stable_sort(want.begin(), want.end());
    auto plain = data;
    parallel_merge_sort(plain.data(), n, exec);
    EXPECT_EQ(plain, want) << "parallel_merge_sort p=" << p << " n=" << n;
    auto resilient = data;
    resilient_parallel_merge_sort(resilient.data(), n, exec);
    EXPECT_EQ(resilient, want)
        << "resilient_parallel_merge_sort p=" << p << " n=" << n;
  }
}

INSTANTIATE_TEST_SUITE_P(
    DistsAndThreads, ParallelMergeCorrectness,
    ::testing::Combine(::testing::ValuesIn(kAllDists),
                       ::testing::Values(1u, 2u, 3u, 4u, 7u, 12u, 32u)),
    [](const auto& pinfo) {
      return to_string(std::get<0>(pinfo.param)) + "_p" +
             std::to_string(std::get<1>(pinfo.param));
    });

TEST(ParallelMerge, VectorFrontEnd) {
  const auto input = make_merge_input(Dist::kUniform, 5000, 4000, 5);
  EXPECT_EQ(parallel_merge(input.a, input.b),
            test::reference_merge(input.a, input.b));
}

TEST(ParallelMerge, StableAcrossLaneBoundaries) {
  // Heavy duplication: lane boundaries land inside runs of equal keys, the
  // case that breaks naive tie handling.
  const auto input = make_keyed_input(3000, 3000, 7, 13);
  for (unsigned p : {2u, 5u, 12u}) {
    std::vector<KeyedRecord> out(6000);
    parallel_merge(input.a.data(), input.a.size(), input.b.data(),
                   input.b.size(), out.data(), Executor{nullptr, p});
    for (std::size_t i = 1; i < out.size(); ++i) {
      ASSERT_LE(out[i - 1].key, out[i].key);
      if (out[i - 1].key == out[i].key) {
        ASSERT_LT(out[i - 1].payload, out[i].payload)
            << "p=" << p << " at " << i;
      }
    }
  }
}

TEST(ParallelMerge, MoreThreadsThanElements) {
  const auto input = make_merge_input(Dist::kUniform, 3, 2, 17);
  std::vector<std::int32_t> out(5);
  parallel_merge(input.a.data(), 3, input.b.data(), 2, out.data(),
                 Executor{nullptr, 64});
  EXPECT_EQ(out, test::reference_merge(input.a, input.b));
}

TEST(ParallelMerge, DedicatedPool) {
  ThreadPool pool(3);
  EXPECT_EQ(pool.workers(), 3u);
  const auto input = make_merge_input(Dist::kClustered, 10000, 8000, 19);
  std::vector<std::int32_t> out(18000);
  parallel_merge(input.a.data(), 10000, input.b.data(), 8000, out.data(),
                 Executor{&pool, 4});
  EXPECT_EQ(out, test::reference_merge(input.a, input.b));
}

TEST(ParallelMerge, SerialPoolIsDeterministicallyCorrect) {
  // workers = 0: lanes run inline in lane order (the PRAM-simulation mode).
  ThreadPool serial(0);
  EXPECT_EQ(serial.workers(), 0u);
  const auto input = make_merge_input(Dist::kInterleaved, 1000, 1000, 23);
  std::vector<std::int32_t> out(2000);
  parallel_merge(input.a.data(), 1000, input.b.data(), 1000, out.data(),
                 Executor{&serial, 8});
  EXPECT_EQ(out, test::reference_merge(input.a, input.b));
}

TEST(ParallelMerge, ComparatorExceptionPropagates) {
  const auto input = make_merge_input(Dist::kUniform, 4096, 4096, 29);
  std::vector<std::int32_t> out(8192);
  auto throwing = [](std::int32_t x, std::int32_t y) {
    if (x % 1000 == 17 || y % 1000 == 17) throw std::runtime_error("boom");
    return x < y;
  };
  bool threw = false;
  try {
    parallel_merge(input.a.data(), 4096, input.b.data(), 4096, out.data(),
                   Executor{nullptr, 4}, throwing);
  } catch (const std::runtime_error&) {
    threw = true;
  }
  // Uniform values over the full int32 range essentially surely contain a
  // residue-17 element; more importantly the pool must stay usable.
  if (threw) {
    std::vector<std::int32_t> ok(8192);
    parallel_merge(input.a.data(), 4096, input.b.data(), 4096, ok.data(),
                   Executor{nullptr, 4});
    EXPECT_EQ(ok, test::reference_merge(input.a, input.b));
  }
}

TEST(MergeSliceForLane, SlicesTileTheOutputExactly) {
  const auto input = make_merge_input(Dist::kClustered, 777, 555, 31);
  for (unsigned lanes : {1u, 2u, 5u, 16u}) {
    std::size_t expect_out = 0, sum_a = 0, sum_b = 0;
    for (unsigned lane = 0; lane < lanes; ++lane) {
      const MergeSlice s = merge_slice_for_lane(
          input.a.data(), 777, input.b.data(), 555, lane, lanes);
      EXPECT_EQ(s.out_begin, expect_out);
      EXPECT_EQ(s.a_begin + s.b_begin, s.out_begin);
      expect_out += s.steps;
      if (lane + 1 == lanes) {
        sum_a = 777 - s.a_begin;
        sum_b = 555 - s.b_begin;
      }
    }
    EXPECT_EQ(expect_out, 777u + 555u);
    EXPECT_LE(sum_a, 777u);
    EXPECT_LE(sum_b, 555u);
  }
}

TEST(ParallelMerge, WorkComplexityBound) {
  // Work must be <= N + p * (log2(min(m,n)) + 1) countable merge ops plus
  // N moves (Section III: O(N + p log N)).
  const std::size_t n = 1 << 15;
  const auto input = make_merge_input(Dist::kUniform, n, n, 37);
  for (unsigned p : {1u, 4u, 16u}) {
    ThreadPool serial(0);
    std::vector<OpCounts> counts(p);
    std::vector<std::int32_t> out(2 * n);
    parallel_merge(input.a.data(), n, input.b.data(), n, out.data(),
                   Executor{&serial, p}, std::less<>{},
                   std::span<OpCounts>(counts));
    std::uint64_t compares = 0, moves = 0, searches = 0;
    std::uint64_t max_lane_steps = 0;
    for (const auto& c : counts) {
      compares += c.compares;
      moves += c.moves;
      searches += c.search_steps;
      max_lane_steps = std::max(max_lane_steps, c.moves);
    }
    EXPECT_EQ(moves, 2 * n);
    EXPECT_LE(compares, 2 * n);
    EXPECT_LE(searches, static_cast<std::uint64_t>(p) * 17);
    // Corollary 7: perfect balance — every lane outputs N/p (+-1).
    EXPECT_LE(max_lane_steps, (2 * n) / p + 1);
  }
}

}  // namespace
}  // namespace mp
