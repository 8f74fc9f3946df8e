// Tests for core/multiway_merge.hpp: LoserTree pop order and stability,
// multiway_select against a brute-force stable reference, and the parallel
// k-way merge.

#include "core/multiway_merge.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <tuple>

#include "test_support.hpp"
#include "util/data_gen.hpp"
#include "util/rng.hpp"

namespace mp {
namespace {

std::vector<std::vector<std::int32_t>> make_runs(std::size_t k,
                                                 std::size_t max_len,
                                                 std::uint64_t seed,
                                                 std::uint64_t universe) {
  Xoshiro256 rng(seed);
  std::vector<std::vector<std::int32_t>> runs(k);
  for (auto& run : runs) {
    run.resize(rng.bounded(max_len + 1));
    for (auto& x : run) x = static_cast<std::int32_t>(rng.bounded(universe));
    std::sort(run.begin(), run.end());
  }
  return runs;
}

std::vector<std::int32_t> flatten_sorted(
    const std::vector<std::vector<std::int32_t>>& runs) {
  std::vector<std::int32_t> all;
  for (const auto& run : runs) all.insert(all.end(), run.begin(), run.end());
  std::stable_sort(all.begin(), all.end());
  return all;
}

TEST(LoserTree, PopsInSortedOrder) {
  const auto runs = make_runs(5, 200, 71, 1000);
  std::vector<LoserTree<std::int32_t>::Cursor> cursors;
  for (const auto& run : runs)
    cursors.push_back({run.data(), run.data() + run.size()});
  LoserTree<std::int32_t> tree(std::move(cursors));

  std::vector<std::int32_t> out;
  while (!tree.empty()) out.push_back(tree.pop());
  EXPECT_EQ(out, flatten_sorted(runs));
}

TEST(LoserTree, EdgeCases) {
  // No runs.
  using Cursors = std::vector<LoserTree<std::int32_t>::Cursor>;
  LoserTree<std::int32_t> empty_tree(Cursors{});
  EXPECT_TRUE(empty_tree.empty());

  // Single run.
  const std::vector<std::int32_t> run{1, 2, 3};
  LoserTree<std::int32_t> single(Cursors{{run.data(), run.data() + 3}});
  EXPECT_EQ(single.pop(), 1);
  EXPECT_EQ(single.pop(), 2);
  EXPECT_EQ(single.pop(), 3);
  EXPECT_TRUE(single.empty());

  // All runs empty.
  LoserTree<std::int32_t> all_empty(
      Cursors{{run.data(), run.data()}, {run.data(), run.data()}});
  EXPECT_TRUE(all_empty.empty());
}

TEST(LoserTree, StableTieBreaking) {
  // Identical values everywhere: pops must cycle run 0 fully, then 1, ...
  // No — stability means: among equal heads, the LOWEST run index pops
  // first, and after popping, run 0's next equal head is again lowest. So
  // run 0 drains completely before run 1 contributes, etc.
  const std::vector<std::int32_t> r0{5, 5}, r1{5, 5}, r2{5};
  using Cursors = std::vector<LoserTree<std::int32_t>::Cursor>;
  LoserTree<std::int32_t> tree(Cursors{{r0.data(), r0.data() + 2},
                                       {r1.data(), r1.data() + 2},
                                       {r2.data(), r2.data() + 1}});
  // Track which run each pop came from by address.
  std::vector<int> origin;
  while (!tree.empty()) {
    const std::int32_t* addr = &tree.pop();
    if (addr >= r0.data() && addr < r0.data() + 2) origin.push_back(0);
    else if (addr >= r1.data() && addr < r1.data() + 2) origin.push_back(1);
    else origin.push_back(2);
  }
  const std::vector<int> expected{0, 0, 1, 1, 2};
  EXPECT_EQ(origin, expected);
}

TEST(LoserTree, NonPowerOfTwoRunCounts) {
  for (std::size_t k : {2u, 3u, 5u, 6u, 7u, 9u, 17u}) {
    const auto runs = make_runs(k, 50, 73 + k, 100);
    std::vector<LoserTree<std::int32_t>::Cursor> cursors;
    for (const auto& run : runs)
      cursors.push_back({run.data(), run.data() + run.size()});
    LoserTree<std::int32_t> tree(std::move(cursors));
    std::vector<std::int32_t> out;
    while (!tree.empty()) out.push_back(tree.pop());
    EXPECT_EQ(out, flatten_sorted(runs)) << "k=" << k;
  }
}

// Brute-force stable selection reference: tag every element with
// (value, run, idx), sort, take prefix, count per run.
std::vector<std::size_t> reference_select(
    const std::vector<std::vector<std::int32_t>>& runs, std::size_t rank) {
  struct Tagged {
    std::int32_t value;
    std::size_t run, idx;
  };
  std::vector<Tagged> all;
  for (std::size_t t = 0; t < runs.size(); ++t)
    for (std::size_t i = 0; i < runs[t].size(); ++i)
      all.push_back({runs[t][i], t, i});
  std::sort(all.begin(), all.end(), [](const Tagged& x, const Tagged& y) {
    return std::tie(x.value, x.run, x.idx) < std::tie(y.value, y.run, y.idx);
  });
  std::vector<std::size_t> pos(runs.size(), 0);
  for (std::size_t s = 0; s < rank; ++s) ++pos[all[s].run];
  return pos;
}

TEST(MultiwaySelect, MatchesBruteForceWithHeavyTies) {
  for (std::uint64_t seed = 0; seed < 12; ++seed) {
    const auto runs = make_runs(4, 30, 100 + seed, 5);  // universe of 5: ties
    std::vector<std::span<const std::int32_t>> views;
    for (const auto& run : runs) views.emplace_back(run.data(), run.size());
    std::size_t total = 0;
    for (const auto& run : runs) total += run.size();

    for (std::size_t rank = 0; rank <= total; ++rank) {
      const auto actual = multiway_select(
          std::span<const std::span<const std::int32_t>>(views), rank);
      const auto expected = reference_select(runs, rank);
      EXPECT_EQ(actual, expected) << "seed=" << seed << " rank=" << rank;
    }
  }
}

TEST(MultiwaySelect, TwoRunsAgreesWithDiagonalSearchSemantics) {
  // For k = 2 the selection must be the co-rank: prefixes tile the stable
  // merge. Verify via merged-output equivalence.
  const auto input = make_merge_input(Dist::kFewDuplicates, 500, 400, 79);
  std::vector<std::span<const std::int32_t>> views{
      {input.a.data(), input.a.size()}, {input.b.data(), input.b.size()}};
  const auto expected = test::reference_merge(input.a, input.b);
  for (std::size_t rank : {0u, 1u, 250u, 450u, 900u}) {
    const auto pos = multiway_select(
        std::span<const std::span<const std::int32_t>>(views), rank);
    EXPECT_EQ(pos[0] + pos[1], rank);
    // The claimed prefix must be exactly the first `rank` of the merge.
    std::vector<std::int32_t> claimed;
    claimed.insert(claimed.end(), input.a.begin(),
                   input.a.begin() + static_cast<std::ptrdiff_t>(pos[0]));
    claimed.insert(claimed.end(), input.b.begin(),
                   input.b.begin() + static_cast<std::ptrdiff_t>(pos[1]));
    std::sort(claimed.begin(), claimed.end());
    std::vector<std::int32_t> prefix(expected.begin(),
                                     expected.begin() +
                                         static_cast<std::ptrdiff_t>(rank));
    std::sort(prefix.begin(), prefix.end());
    EXPECT_EQ(claimed, prefix) << "rank " << rank;
  }
}

class MultiwayMergeParam
    : public ::testing::TestWithParam<std::tuple<std::size_t, unsigned>> {};

TEST_P(MultiwayMergeParam, MergesCorrectly) {
  const auto [k, threads] = GetParam();
  const auto runs = make_runs(k, 500, 200 + k + threads, 1u << 20);
  const auto result =
      parallel_multiway_merge(runs, Executor{nullptr, threads});
  EXPECT_EQ(result, flatten_sorted(runs));
}

INSTANTIATE_TEST_SUITE_P(
    RunsAndThreads, MultiwayMergeParam,
    ::testing::Combine(::testing::Values(std::size_t{1}, std::size_t{2},
                                         std::size_t{3}, std::size_t{8},
                                         std::size_t{13}),
                       ::testing::Values(1u, 4u, 7u)),
    [](const auto& pinfo) {
      return test::param_name("k", std::get<0>(pinfo.param), "_p",
                             std::get<1>(pinfo.param));
    });

TEST(ParallelMultiwayMerge, HeavyDuplicationStableAcrossLanes) {
  const auto runs = make_runs(6, 400, 83, 4);  // tiny universe
  const auto result = parallel_multiway_merge(runs, Executor{nullptr, 5});
  EXPECT_EQ(result, flatten_sorted(runs));
}

TEST(ParallelMultiwayMerge, EmptyAndDegenerate) {
  EXPECT_TRUE(parallel_multiway_merge(
                  std::vector<std::vector<std::int32_t>>{})
                  .empty());
  const std::vector<std::vector<std::int32_t>> some{{}, {1, 2}, {}};
  const auto result = parallel_multiway_merge(some, Executor{nullptr, 4});
  const std::vector<std::int32_t> expected{1, 2};
  EXPECT_EQ(result, expected);
}

}  // namespace
}  // namespace mp
