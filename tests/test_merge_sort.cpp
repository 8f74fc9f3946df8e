// Tests for core/merge_sort.hpp: the from-scratch sequential merge sort,
// the flattened balanced merge round, and the Section III parallel merge
// sort (correctness, stability, balance).

#include "core/merge_sort.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <tuple>

#include "test_support.hpp"
#include "util/data_gen.hpp"
#include "util/rng.hpp"

namespace mp {
namespace {

TEST(SequentialMergeSort, SortsRandomData) {
  for (std::size_t n : {0u, 1u, 2u, 23u, 24u, 25u, 1000u, 65536u}) {
    auto data = make_unsorted_values(n, 1000 + n);
    auto expected = data;
    std::sort(expected.begin(), expected.end());
    sequential_merge_sort(std::span<std::int32_t>(data));
    EXPECT_EQ(data, expected) << "n=" << n;
  }
}

TEST(SequentialMergeSort, SortsAdversarialPatterns) {
  // Already sorted, reverse sorted, constant, sawtooth.
  std::vector<std::vector<std::int32_t>> cases;
  std::vector<std::int32_t> v(1000);
  for (std::size_t i = 0; i < v.size(); ++i)
    v[i] = static_cast<std::int32_t>(i);
  cases.push_back(v);
  std::reverse(v.begin(), v.end());
  cases.push_back(v);
  cases.emplace_back(1000, 7);
  for (std::size_t i = 0; i < v.size(); ++i)
    v[i] = static_cast<std::int32_t>(i % 17);
  cases.push_back(v);

  for (auto& data : cases) {
    auto expected = data;
    std::sort(expected.begin(), expected.end());
    sequential_merge_sort(std::span<std::int32_t>(data));
    EXPECT_EQ(data, expected);
  }
}

TEST(SequentialMergeSort, IsStable) {
  // Records with few distinct keys; payload records input position.
  Xoshiro256 rng(7);
  std::vector<KeyedRecord> data(2000);
  for (std::size_t i = 0; i < data.size(); ++i) {
    data[i].key = static_cast<std::int32_t>(rng.bounded(5));
    data[i].payload = static_cast<std::uint32_t>(i);
  }
  auto expected = data;
  std::stable_sort(expected.begin(), expected.end());
  std::vector<KeyedRecord> scratch(data.size());
  sequential_merge_sort(data.data(), scratch.data(), data.size());
  EXPECT_EQ(data, expected);
}

TEST(MergeRoundBalanced, MergesAdjacentPairs) {
  // Buffer with four sorted runs of uneven sizes.
  Xoshiro256 rng(11);
  std::vector<std::int32_t> buf;
  std::vector<::mp::Run> runs;
  for (std::size_t len : {100u, 3u, 57u, 200u}) {
    const std::size_t begin = buf.size();
    for (std::size_t i = 0; i < len; ++i)
      buf.push_back(static_cast<std::int32_t>(rng.bounded(1000)));
    std::sort(buf.begin() + static_cast<std::ptrdiff_t>(begin), buf.end());
    runs.push_back(::mp::Run{begin, buf.size()});
  }
  std::vector<std::int32_t> dst(buf.size());
  const auto merged = merge_round_balanced(buf.data(), dst.data(), runs,
                                           Executor{nullptr, 4});
  ASSERT_EQ(merged.size(), 2u);
  EXPECT_TRUE(std::is_sorted(dst.begin(), dst.begin() + 103));
  EXPECT_TRUE(std::is_sorted(dst.begin() + 103, dst.end()));
  // Same multiset per merged pair.
  auto lhs = std::vector<std::int32_t>(buf.begin(), buf.begin() + 103);
  auto rhs = std::vector<std::int32_t>(dst.begin(), dst.begin() + 103);
  std::sort(lhs.begin(), lhs.end());
  std::sort(rhs.begin(), rhs.end());
  EXPECT_EQ(lhs, rhs);
}

TEST(MergeRoundBalanced, OddRunCountCopiesTrailer) {
  std::vector<std::int32_t> buf{1, 3, 5, 2, 4, 6, 7, 8, 9};
  const std::vector<::mp::Run> runs{{0, 3}, {3, 6}, {6, 9}};
  std::vector<std::int32_t> dst(9);
  const auto merged =
      merge_round_balanced(buf.data(), dst.data(), runs, Executor{nullptr, 3});
  ASSERT_EQ(merged.size(), 2u);
  const std::vector<std::int32_t> expected{1, 2, 3, 4, 5, 6, 7, 8, 9};
  EXPECT_EQ(dst, expected);
}

class ParallelSortParam
    : public ::testing::TestWithParam<std::tuple<std::size_t, unsigned>> {};

TEST_P(ParallelSortParam, SortsCorrectly) {
  const auto [n, threads] = GetParam();
  auto data = make_unsorted_values(n, 2000 + n + threads);
  auto expected = data;
  std::sort(expected.begin(), expected.end());
  parallel_merge_sort(data.data(), n, Executor{nullptr, threads});
  EXPECT_EQ(data, expected);
}

INSTANTIATE_TEST_SUITE_P(
    SizesAndThreads, ParallelSortParam,
    ::testing::Combine(::testing::Values(std::size_t{0}, std::size_t{1},
                                         std::size_t{100}, std::size_t{1000},
                                         std::size_t{4097},
                                         std::size_t{100000}),
                       ::testing::Values(1u, 2u, 3u, 5u, 8u, 13u)),
    [](const auto& pinfo) {
      return "n" + std::to_string(std::get<0>(pinfo.param)) + "_p" +
             std::to_string(std::get<1>(pinfo.param));
    });

TEST(ParallelMergeSort, IsStable) {
  Xoshiro256 rng(17);
  std::vector<KeyedRecord> data(5000);
  for (std::size_t i = 0; i < data.size(); ++i) {
    data[i].key = static_cast<std::int32_t>(rng.bounded(9));
    data[i].payload = static_cast<std::uint32_t>(i);
  }
  auto expected = data;
  std::stable_sort(expected.begin(), expected.end());
  parallel_merge_sort(data.data(), data.size(), Executor{nullptr, 6});
  EXPECT_EQ(data, expected);
}

TEST(ParallelMergeSort, SpanFrontEndAndComparator) {
  auto data = make_unsorted_values(10000, 23);
  auto expected = data;
  std::sort(expected.begin(), expected.end(), std::greater<>{});
  parallel_merge_sort(std::span<std::int32_t>(data), Executor{nullptr, 4},
                      std::greater<>{});
  EXPECT_EQ(data, expected);
}

TEST(ParallelMergeSort, BalancedWorkAcrossLanes) {
  // Every lane's move count should be within a small factor of the mean —
  // the flattened rounds guarantee near-perfect balance (Corollary 7
  // applied per round).
  const std::size_t n = 1 << 16;
  auto data = make_unsorted_values(n, 29);
  const unsigned p = 8;
  ThreadPool serial(0);
  std::vector<OpCounts> counts(p);
  parallel_merge_sort(data.data(), n, Executor{&serial, p}, std::less<>{},
                      std::span<OpCounts>(counts));
  EXPECT_TRUE(std::is_sorted(data.begin(), data.end()));
  std::uint64_t lo = ~0ull, hi = 0;
  for (const auto& c : counts) {
    lo = std::min(lo, c.total());
    hi = std::max(hi, c.total());
  }
  EXPECT_LT(static_cast<double>(hi),
            1.25 * static_cast<double>(lo) + 1000.0)
      << "lane op counts spread too wide: " << lo << " .. " << hi;
}

TEST(ParallelMergeSort, ManyDuplicatesAcrossManyThreads) {
  std::vector<std::int32_t> data(50000);
  Xoshiro256 rng(31);
  for (auto& x : data) x = static_cast<std::int32_t>(rng.bounded(3));
  auto expected = data;
  std::sort(expected.begin(), expected.end());
  parallel_merge_sort(data.data(), data.size(), Executor{nullptr, 16});
  EXPECT_EQ(data, expected);
}

}  // namespace
}  // namespace mp
