// Tests for core/sequential_merge.hpp: the bounded-step kernel, the full
// sequential merge, the adaptive merge, stability, custom comparators and
// instrumentation counts.

#include "core/sequential_merge.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <string>

#include "test_support.hpp"
#include "util/data_gen.hpp"

namespace mp {
namespace {

TEST(SequentialMerge, MatchesStdMergeOnAllDistributions) {
  for (Dist dist : kAllDists) {
    const auto input = make_merge_input(dist, 333, 512, 11);
    std::vector<std::int32_t> out(input.a.size() + input.b.size());
    sequential_merge(input.a.data(), input.a.size(), input.b.data(),
                     input.b.size(), out.data());
    EXPECT_EQ(out, test::reference_merge(input.a, input.b))
        << to_string(dist);
  }
}

TEST(SequentialMerge, EmptyInputs) {
  const std::vector<std::int32_t> a{1, 2, 3};
  std::vector<std::int32_t> out(3);
  sequential_merge(a.data(), 3, a.data(), 0, out.data());
  EXPECT_EQ(out, a);
  sequential_merge(a.data(), 0, a.data(), 3, out.data());
  EXPECT_EQ(out, a);
  // Both empty: must not write or crash.
  sequential_merge(a.data(), 0, a.data(), 0, out.data());
}

TEST(SequentialMerge, StableAPriority) {
  const auto input = make_keyed_input(200, 200, 10, 21);
  std::vector<KeyedRecord> out(400);
  sequential_merge(input.a.data(), input.a.size(), input.b.data(),
                   input.b.size(), out.data());
  // Equal keys: all payloads from A (origin tag 0) precede those from B,
  // and within each origin the original order is preserved.
  for (std::size_t i = 1; i < out.size(); ++i) {
    if (out[i - 1].key == out[i].key) {
      EXPECT_LT(out[i - 1].payload, out[i].payload) << "at " << i;
    }
  }
}

TEST(MergeSteps, PartialMergeResumesCorrectly) {
  const auto input = make_merge_input(Dist::kClustered, 500, 500, 31);
  const auto expected = test::reference_merge(input.a, input.b);

  // Merge in randomly-sized chunks, resuming positions between calls.
  std::vector<std::int32_t> out(1000);
  std::size_t i = 0, j = 0, written = 0;
  const std::size_t chunks[] = {1, 7, 13, 100, 379, 500};
  for (std::size_t chunk : chunks) {
    const std::size_t steps = std::min(chunk, out.size() - written);
    merge_steps(input.a.data(), 500, input.b.data(), 500, &i, &j,
                out.data() + written, steps);
    written += steps;
    EXPECT_EQ(i + j, written);
  }
  merge_steps(input.a.data(), 500, input.b.data(), 500, &i, &j,
              out.data() + written, out.size() - written);
  EXPECT_EQ(out, expected);
}

TEST(MergeSteps, ZeroSteps) {
  const std::vector<std::int32_t> a{1}, b{2};
  std::size_t i = 0, j = 0;
  std::int32_t sink = -1;
  merge_steps(a.data(), 1, b.data(), 1, &i, &j, &sink, 0);
  EXPECT_EQ(i, 0u);
  EXPECT_EQ(j, 0u);
  EXPECT_EQ(sink, -1);
}

TEST(MergeSteps, CustomComparatorDescending) {
  std::vector<std::int32_t> a{9, 5, 1};
  std::vector<std::int32_t> b{8, 3, 2};
  std::vector<std::int32_t> out(6);
  std::size_t i = 0, j = 0;
  merge_steps(a.data(), 3, b.data(), 3, &i, &j, out.data(), 6,
              std::greater<>{});
  const std::vector<std::int32_t> expected{9, 8, 5, 3, 2, 1};
  EXPECT_EQ(out, expected);
}

TEST(MergeSteps, ProjectionComparator) {
  // Merge strings by length: exercises non-trivial element types.
  std::vector<std::string> a{"a", "ccc", "eeeee"};
  std::vector<std::string> b{"bb", "dddd"};
  std::vector<std::string> out(5);
  std::size_t i = 0, j = 0;
  auto by_len = [](const std::string& x, const std::string& y) {
    return x.size() < y.size();
  };
  merge_steps(a.data(), 3, b.data(), 2, &i, &j, out.data(), 5, by_len);
  const std::vector<std::string> expected{"a", "bb", "ccc", "dddd", "eeeee"};
  EXPECT_EQ(out, expected);
}

TEST(MergeSteps, InstrumentCounts) {
  const auto input = make_merge_input(Dist::kUniform, 1000, 1000, 41);
  std::vector<std::int32_t> out(2000);
  OpCounts ops;
  std::size_t i = 0, j = 0;
  merge_steps(input.a.data(), 1000, input.b.data(), 1000, &i, &j, out.data(),
              2000, std::less<>{}, &ops);
  EXPECT_EQ(ops.moves, 2000u);
  // Compares: one per step while both sides live; between N/2 and N.
  EXPECT_GE(ops.compares, 1000u);
  EXPECT_LE(ops.compares, 2000u);
}

TEST(AdaptiveMerge, MatchesReferenceOnAllDistributions) {
  for (Dist dist : kAllDists) {
    constexpr std::pair<std::size_t, std::size_t> kShapes[] = {
        {500, 400}, {500, 0}, {0, 400}, {1, 1}, {7, 1000}};
    for (const auto& [m, n] : kShapes) {
      const auto input = make_merge_input(dist, m, n, 600 + m + n);
      std::vector<std::int32_t> out(m + n);
      adaptive_merge(input.a.data(), m, input.b.data(), n, out.data());
      EXPECT_EQ(out, test::reference_merge(input.a, input.b))
          << to_string(dist) << " " << m << "x" << n;
    }
  }
}

TEST(AdaptiveMerge, StableAPriority) {
  const auto input = make_keyed_input(500, 500, 6, 61);
  std::vector<KeyedRecord> out(1000);
  adaptive_merge(input.a.data(), 500, input.b.data(), 500, out.data());
  for (std::size_t i = 1; i < out.size(); ++i) {
    ASSERT_LE(out[i - 1].key, out[i].key);
    if (out[i - 1].key == out[i].key) {
      ASSERT_LT(out[i - 1].payload, out[i].payload) << "at " << i;
    }
  }
}

TEST(AdaptiveMerge, GallopingWinsOnRunStructuredInput) {
  // organ_pipe: alternating 128-long runs. The adaptive kernel should do
  // roughly 2·log(128) comparisons per run instead of 128.
  const auto runs = make_merge_input(Dist::kOrganPipe, 1 << 15, 1 << 15, 63);
  OpCounts adaptive_ops, classic_ops;
  std::vector<std::int32_t> out(1 << 16);
  adaptive_merge(runs.a.data(), runs.a.size(), runs.b.data(), runs.b.size(),
                 out.data(), std::less<>{}, &adaptive_ops);
  std::size_t i = 0, j = 0;
  merge_steps(runs.a.data(), runs.a.size(), runs.b.data(), runs.b.size(),
              &i, &j, out.data(), 1 << 16, std::less<>{}, &classic_ops);
  EXPECT_LT(adaptive_ops.compares * 4, classic_ops.compares)
      << "adaptive " << adaptive_ops.compares << " vs classic "
      << classic_ops.compares;

  // Worst case (perfectly interleaved): bounded overhead, not blow-up.
  const auto inter =
      make_merge_input(Dist::kInterleaved, 1 << 14, 1 << 14, 65);
  OpCounts a_ops, c_ops;
  adaptive_merge(inter.a.data(), inter.a.size(), inter.b.data(),
                 inter.b.size(), out.data(), std::less<>{}, &a_ops);
  i = j = 0;
  merge_steps(inter.a.data(), inter.a.size(), inter.b.data(),
              inter.b.size(), &i, &j, out.data(), 1 << 15, std::less<>{},
              &c_ops);
  EXPECT_LT(a_ops.compares, 3 * c_ops.compares);
}

}  // namespace
}  // namespace mp
