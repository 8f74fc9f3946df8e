// Derived op counts equal the scalar kernel's counts.
//
// Instrumented calls run the dispatched merge kernel; the vector loops'
// compares and moves are derived from their cursor deltas (every vector
// step is a step with both inputs non-empty, which is what the scalar
// A-priority kernel counts as a compare). The property: per-lane OpCounts
// — compares, moves, search steps and stages — are identical under every
// supported kernel and under a forced kScalar, for every entry point that
// accepts an instrument, every Dist, lane counts 1/2/4/7 and sizes around
// the 24-key base case and the vector widths. Output bytes must also
// equal std::merge / std::stable_sort. The resilient entry points take no
// instrument, so their lane bodies are driven through the recovery runner
// they use, and their public output is checked separately.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <span>
#include <vector>

#include "core/mergepath.hpp"
#include "core/recovery.hpp"
#include "../test_support.hpp"
#include "kernels/kernels.hpp"
#include "util/data_gen.hpp"
#include "util/rng.hpp"

namespace mp {
namespace {

using kernels::Kernel;

constexpr std::size_t kSizes[] = {0, 1, 23, 24, 25, 97, 4109};
constexpr unsigned kLaneCounts[] = {1, 2, 4, 7};

/// Output bytes plus per-lane counts of one instrumented call.
template <typename T>
struct Observed {
  std::vector<T> out;
  std::vector<OpCounts> lanes;
};

void expect_same_counts(const std::vector<OpCounts>& got,
                        const std::vector<OpCounts>& want) {
  ASSERT_EQ(got.size(), want.size());
  for (std::size_t lane = 0; lane < got.size(); ++lane) {
    SCOPED_TRACE(::testing::Message() << "lane " << lane);
    EXPECT_EQ(got[lane].compares, want[lane].compares);
    EXPECT_EQ(got[lane].moves, want[lane].moves);
    EXPECT_EQ(got[lane].search_steps, want[lane].search_steps);
    EXPECT_EQ(got[lane].stages, want[lane].stages);
  }
}

/// Runs `call` under kScalar and under every supported vector kernel;
/// every run must produce `reference` and the scalar run's lane counts.
template <typename T, typename Call>
void check_all_kernels(const std::vector<T>& reference, Call&& call) {
  test::KernelGuard guard;
  ASSERT_TRUE(kernels::set_kernel(Kernel::kScalar));
  const Observed<T> want = call();
  ASSERT_EQ(want.out, reference) << "scalar output";
  for (Kernel kernel : test::supported_kernels()) {
    if (!kernels::is_vector_kernel(kernel)) continue;
    SCOPED_TRACE(kernels::to_string(kernel));
    ASSERT_TRUE(kernels::set_kernel(kernel));
    const Observed<T> got = call();
    ASSERT_EQ(got.out, reference);
    expect_same_counts(got.lanes, want.lanes);
  }
}

/// Sort inputs with each Dist's value multiset: the Dist's two sorted
/// runs back to back (B first, so disjoint shapes arrive as descending
/// runs), and the same keys shuffled.
std::vector<std::vector<std::int32_t>> sort_inputs(Dist dist,
                                                   std::size_t size,
                                                   std::uint64_t seed) {
  const auto input = make_merge_input(dist, size / 2, size - size / 2, seed);
  std::vector<std::int32_t> runs(input.b);
  runs.insert(runs.end(), input.a.begin(), input.a.end());
  std::vector<std::int32_t> shuffled = runs;
  Xoshiro256 rng(seed);
  std::shuffle(shuffled.begin(), shuffled.end(), rng);
  return {runs, shuffled};
}

std::vector<std::int32_t> stable_sorted(std::vector<std::int32_t> v) {
  std::stable_sort(v.begin(), v.end());
  return v;
}

class OpCountsByDist : public ::testing::TestWithParam<Dist> {};

TEST_P(OpCountsByDist, MergesMatchScalarCounts) {
  const Dist dist = GetParam();
  std::uint64_t seed = 0x0c0a7500;
  for (const std::size_t size : kSizes) {
    // Asymmetric split: a is twice b, so lanes cross one side's end.
    const std::size_t m = size - size / 3;
    const auto input = make_merge_input(dist, m, size - m, seed++);
    const auto& a = input.a;
    const auto& b = input.b;
    std::vector<std::int32_t> reference(size);
    std::merge(a.begin(), a.end(), b.begin(), b.end(), reference.begin());
    for (const unsigned p : kLaneCounts) {
      SCOPED_TRACE(::testing::Message() << to_string(dist) << " size="
                                        << size << " p=" << p
                                        << " seed=" << input.seed);
      const Executor exec{nullptr, p};

      check_all_kernels(reference, [&] {
        Observed<std::int32_t> r{std::vector<std::int32_t>(size),
                                 std::vector<OpCounts>(p)};
        parallel_merge(a.data(), a.size(), b.data(), b.size(), r.out.data(),
                       exec, std::less<>{}, std::span<OpCounts>(r.lanes));
        return r;
      });

      // resilient_parallel_merge's lane body under its recovery runner.
      check_all_kernels(reference, [&] {
        Observed<std::int32_t> r{std::vector<std::int32_t>(size),
                                 std::vector<OpCounts>(p)};
        RecoveryReport report;
        const RecoveryConfig cfg;
        detail::parallel_merge_impl(
            a.data(), a.size(), b.data(), b.size(), r.out.data(), p,
            std::less<>{}, std::span<OpCounts>(r.lanes),
            detail::recovering_runner(exec.resolve_pool(), cfg, report));
        return r;
      });
      ASSERT_EQ(resilient_parallel_merge(a, b, exec), reference);

      // One flattened round over three runs: (a, b) merge, the trailing
      // unpaired run is copied.
      std::vector<std::int32_t> src(a);
      src.insert(src.end(), b.begin(), b.end());
      src.insert(src.end(), a.begin(), a.end());
      const std::vector<mp::Run> runs{{0, m}, {m, size}, {size, size + m}};
      std::vector<std::int32_t> round_reference(reference);
      round_reference.insert(round_reference.end(), a.begin(), a.end());
      check_all_kernels(round_reference, [&] {
        Observed<std::int32_t> r{std::vector<std::int32_t>(src.size()),
                                 std::vector<OpCounts>(p)};
        const auto merged =
            merge_round_balanced(src.data(), r.out.data(), runs, exec,
                                 std::less<>{}, std::span<OpCounts>(r.lanes));
        EXPECT_EQ(merged.size(), 2u);
        return r;
      });
    }
  }
}

TEST_P(OpCountsByDist, SortsMatchScalarCounts) {
  const Dist dist = GetParam();
  std::uint64_t seed = 0x0c0a7600;
  for (const std::size_t size : kSizes) {
    for (const auto& input : sort_inputs(dist, size, seed++)) {
      const auto reference = stable_sorted(input);

      check_all_kernels(reference, [&] {
        Observed<std::int32_t> r{input, std::vector<OpCounts>(1)};
        std::vector<std::int32_t> scratch(size);
        sequential_merge_sort(r.out.data(), scratch.data(), size,
                              std::less<>{}, &r.lanes[0]);
        return r;
      });

      for (const unsigned p : kLaneCounts) {
        SCOPED_TRACE(::testing::Message()
                     << to_string(dist) << " size=" << size << " p=" << p);
        const Executor exec{nullptr, p};

        check_all_kernels(reference, [&] {
          Observed<std::int32_t> r{input, std::vector<OpCounts>(p)};
          parallel_merge_sort(r.out.data(), size, exec, std::less<>{},
                              std::span<OpCounts>(r.lanes));
          return r;
        });

        // resilient_parallel_merge_sort's lane bodies under its recovery
        // runner; the result buffer is returned, not copied back.
        check_all_kernels(reference, [&] {
          Observed<std::int32_t> r{input, std::vector<OpCounts>(p)};
          std::vector<std::int32_t> scratch(size);
          RecoveryReport report;
          const RecoveryConfig cfg;
          const std::int32_t* sorted = detail::parallel_merge_sort_impl(
              r.out.data(), scratch.data(), size, p, std::less<>{},
              std::span<OpCounts>(r.lanes),
              detail::recovering_runner(exec.resolve_pool(), cfg, report));
          r.out.assign(sorted, sorted + size);
          return r;
        });
        std::vector<std::int32_t> resilient(input);
        resilient_parallel_merge_sort(std::span<std::int32_t>(resilient),
                                      exec);
        ASSERT_EQ(resilient, reference);
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(AllDists, OpCountsByDist,
                         ::testing::ValuesIn(kAllDists),
                         [](const ::testing::TestParamInfo<Dist>& param_info) {
                           return to_string(param_info.param);
                         });

TEST(OpCounts, Int64SortMatchesScalarCounts) {
  // The 64-bit kernels derive their counts the same way.
  std::vector<std::int64_t> input(4109);
  Xoshiro256 rng(0x64);
  for (auto& x : input) x = static_cast<std::int64_t>(rng.bounded(1000)) - 500;
  std::vector<std::int64_t> reference(input);
  std::stable_sort(reference.begin(), reference.end());
  for (const unsigned p : kLaneCounts) {
    SCOPED_TRACE(::testing::Message() << "p=" << p);
    check_all_kernels(reference, [&] {
      Observed<std::int64_t> r{input, std::vector<OpCounts>(p)};
      parallel_merge_sort(r.out.data(), r.out.size(), Executor{nullptr, p},
                          std::less<>{}, std::span<OpCounts>(r.lanes));
      return r;
    });
  }
}

}  // namespace
}  // namespace mp
