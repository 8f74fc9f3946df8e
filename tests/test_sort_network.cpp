// Tests for src/kernels/sort_network.hpp: the Batcher 8/16 networks are
// proven correct exhaustively via the 0-1 principle, sort_small_auto is
// checked byte-for-byte against std::stable_sort at every length through
// kSortNetworkMax (duplicates, all-ties, reverse, random) and under the
// total-order float comparator on hostile inputs, the instrumented path
// is pinned to the insertion-sort op counts, and the forced-scalar /
// MERGEPATH_SIMD=OFF configurations are shown to keep the network path
// off entirely.

#include "kernels/sort_network.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <cstring>
#include <limits>
#include <random>
#include <vector>

#include "core/instrument.hpp"
#include "core/merge_sort.hpp"
#include "test_support.hpp"
#include "util/data_gen.hpp"

namespace mp::kernels {
namespace {

using test::KernelGuard;
using test::supported_kernels;

// ---------------------------------------------------------------------------
// The networks themselves, via the 0-1 principle: a comparator network
// sorts every input iff it sorts every 0-1 input, so 2^8 = 256 and
// 2^16 = 65536 patterns are a complete proof, not a sample.

TEST(SortNetwork, Network8SortsAllZeroOnePatterns) {
  for (unsigned pattern = 0; pattern < (1u << 8); ++pattern) {
    std::int32_t d[8];
    for (unsigned i = 0; i < 8; ++i) d[i] = (pattern >> i) & 1u;
    detail::sort_network8(d, std::less<>{});
    EXPECT_TRUE(std::is_sorted(d, d + 8)) << "pattern " << pattern;
  }
}

TEST(SortNetwork, Network16SortsAllZeroOnePatterns) {
  for (unsigned pattern = 0; pattern < (1u << 16); ++pattern) {
    std::int32_t d[16];
    for (unsigned i = 0; i < 16; ++i) d[i] = (pattern >> i) & 1u;
    detail::sort_network16(d, std::less<>{});
    ASSERT_TRUE(std::is_sorted(d, d + 16)) << "pattern " << pattern;
  }
}

// ---------------------------------------------------------------------------
// sort_small_auto equivalence. std::stable_sort is the oracle; for the
// admitted key types equal keys are bitwise identical, so the network's
// instability is unobservable and the comparison can be exact.

template <typename T, typename Comp>
void expect_sorts_like_stable_sort(std::vector<T> data, Comp comp,
                                   Kernel kernel) {
  auto want = data;
  std::stable_sort(want.begin(), want.end(), comp);
  KernelGuard guard;
  ASSERT_TRUE(set_kernel(kernel));
  sort_small_auto(data.data(), data.size(), comp);
  if (data.empty()) return;  // memcmp on a null data() is UB
  ASSERT_EQ(std::memcmp(data.data(), want.data(), data.size() * sizeof(T)),
            0)
      << to_string(kernel) << " n=" << data.size();
}

TEST(SortSmallAuto, AllLengthsThroughMaxAllKernels) {
  std::mt19937 rng(0x50f7);
  for (Kernel kernel : supported_kernels()) {
    for (std::size_t n = 0; n <= kSortNetworkMax; ++n) {
      // Random with duplicates (small value range forces ties), all-ties,
      // reverse-sorted, and already-sorted inputs at every length.
      std::vector<std::int32_t> random(n), ties(n, 42), reverse(n), sorted(n);
      for (std::size_t i = 0; i < n; ++i) {
        random[i] = static_cast<std::int32_t>(rng() % 16) - 8;
        reverse[i] = static_cast<std::int32_t>(n - i);
        sorted[i] = static_cast<std::int32_t>(i / 2);
      }
      expect_sorts_like_stable_sort(random, std::less<>{}, kernel);
      expect_sorts_like_stable_sort(ties, std::less<>{}, kernel);
      expect_sorts_like_stable_sort(reverse, std::less<>{}, kernel);
      expect_sorts_like_stable_sort(sorted, std::less<>{}, kernel);
    }
  }
}

TEST(SortSmallAuto, AllKeyWidths) {
  std::mt19937_64 rng(0x5eed);
  for (Kernel kernel : supported_kernels()) {
    for (std::size_t n : {7u, 8u, 9u, 16u, 24u, 33u, 64u}) {
      std::vector<std::uint32_t> u32(n);
      std::vector<std::int64_t> i64(n);
      std::vector<std::uint64_t> u64(n);
      for (std::size_t i = 0; i < n; ++i) {
        u32[i] = static_cast<std::uint32_t>(rng() % 32);
        i64[i] = static_cast<std::int64_t>(rng() % 64) - 32;
        u64[i] = rng() % 16;
      }
      expect_sorts_like_stable_sort(u32, std::less<>{}, kernel);
      expect_sorts_like_stable_sort(i64, std::less<>{}, kernel);
      expect_sorts_like_stable_sort(u64, std::less<>{}, kernel);
    }
  }
}

TEST(SortSmallAuto, FloatTotalOrderHostileInputs) {
  // Signed zeros, NaNs of both signs and with distinct payloads,
  // denormals, infinities — sorted by TotalOrderLess, compared bitwise
  // against std::stable_sort under the same comparator.
  std::mt19937 rng(0xf1);
  const float specials[] = {
      0.0f,
      -0.0f,
      std::numeric_limits<float>::infinity(),
      -std::numeric_limits<float>::infinity(),
      std::numeric_limits<float>::quiet_NaN(),
      -std::numeric_limits<float>::quiet_NaN(),
      std::bit_cast<float>(0x7fc00001u),
      std::bit_cast<float>(0xffc00001u),
      std::numeric_limits<float>::denorm_min(),
      -std::numeric_limits<float>::denorm_min(),
      1.0f,
      -1.0f,
  };
  for (Kernel kernel : supported_kernels()) {
    for (std::size_t n = 0; n <= kSortNetworkMax; ++n) {
      std::vector<float> data(n);
      for (std::size_t i = 0; i < n; ++i)
        data[i] = specials[rng() % std::size(specials)];
      expect_sorts_like_stable_sort(data, TotalOrderLess{}, kernel);
      std::vector<double> d64(n);
      for (std::size_t i = 0; i < n; ++i)
        d64[i] = static_cast<double>(specials[rng() % std::size(specials)]);
      expect_sorts_like_stable_sort(d64, TotalOrderLess{}, kernel);
    }
  }
}

TEST(SortSmallAuto, NonAdmittedTypesStaySorted) {
  // Custom comparators and float-under-std::less are not admitted to the
  // network (reordering their equal keys would be observable); the
  // fallback must still sort correctly. NaN-free input keeps std::less a
  // valid strict weak order here.
  struct ByHalf {
    bool operator()(int x, int y) const { return x / 2 < y / 2; }
  };
  for (Kernel kernel : supported_kernels()) {
    KernelGuard guard;
    ASSERT_TRUE(set_kernel(kernel));
    std::vector<int> v{9, 3, 8, 2, 7, 1, 6, 0, 5, 4, 3, 9};
    auto want = v;
    std::stable_sort(want.begin(), want.end(), ByHalf{});
    sort_small_auto(v.data(), v.size(), ByHalf{});
    EXPECT_EQ(v, want);

    std::vector<float> f{3.5f, -0.0f, 0.0f, 2.25f, -7.0f, 3.5f};
    auto fwant = f;
    std::stable_sort(fwant.begin(), fwant.end(), std::less<>{});
    sort_small_auto(f.data(), f.size(), std::less<>{});
    EXPECT_EQ(f, fwant);
  }
}

TEST(SortSmallAuto, InstrumentedCallsKeepInsertionSortCounts) {
  // PRAM accounting models the insertion-sort base case; instrumented
  // calls must take it and produce its exact compare/move counts.
  std::mt19937 rng(0xc0);
  std::vector<std::int32_t> data(24);
  for (auto& x : data) x = static_cast<std::int32_t>(rng() % 100);
  auto direct = data;
  OpCounts want_ops;
  detail::insertion_sort_fallback(direct.data(), direct.size(), std::less<>{},
                                  &want_ops);
  KernelGuard guard;
  ASSERT_TRUE(set_kernel(widest_supported()));
  OpCounts ops;
  sort_small_auto(data.data(), data.size(), std::less<>{}, &ops);
  EXPECT_EQ(data, direct);
  EXPECT_EQ(ops.compares, want_ops.compares);
  EXPECT_EQ(ops.moves, want_ops.moves);
}

TEST(SortSmallAuto, InsertionSortCountsArePinned) {
  // The closed forms of the base-case counts: one compare per probe, one
  // move per shift and one per placement. Sorted input probes once per
  // key; reversed input shifts every pair.
  std::vector<std::int32_t> sorted(24), reversed(24);
  for (std::int32_t i = 0; i < 24; ++i) {
    sorted[static_cast<std::size_t>(i)] = i;
    reversed[static_cast<std::size_t>(i)] = 23 - i;
  }
  OpCounts sorted_ops, reversed_ops;
  sort_small_auto(sorted.data(), sorted.size(), std::less<>{}, &sorted_ops);
  sort_small_auto(reversed.data(), reversed.size(), std::less<>{},
                  &reversed_ops);
  EXPECT_EQ(reversed, sorted);
  EXPECT_EQ(sorted_ops.compares, 23u);
  EXPECT_EQ(sorted_ops.moves, 23u);
  EXPECT_EQ(reversed_ops.compares, 24u * 23u / 2u);
  EXPECT_EQ(reversed_ops.moves, 24u * 23u / 2u + 23u);
}

TEST(SortSmallAuto, ForcedScalarMatchesNetworkBytes) {
  // The network engages only under a vector kernel, but its output must
  // be byte-identical to the scalar base case — the sort's contract does
  // not depend on the dispatch decision.
  std::mt19937 rng(0x11);
  for (std::size_t n : {8u, 16u, 24u, 40u, 64u}) {
    std::vector<std::int32_t> a(n), b;
    for (auto& x : a) x = static_cast<std::int32_t>(rng() % 10);
    b = a;
    KernelGuard guard;
    ASSERT_TRUE(set_kernel(Kernel::kScalar));
    sort_small_auto(a.data(), n);
    ASSERT_TRUE(set_kernel(widest_supported()));
    sort_small_auto(b.data(), n);
    EXPECT_EQ(a, b) << "n=" << n;
  }
}

TEST(SortSmallAuto, SequentialMergeSortInheritsTheBaseCase) {
  // End-to-end: the wired base case produces the same bytes as
  // std::stable_sort through sequential_merge_sort, whichever kernel is
  // selected — including float keys under TotalOrderLess.
  std::mt19937 rng(0xba5e);
  for (Kernel kernel : supported_kernels()) {
    KernelGuard guard;
    ASSERT_TRUE(set_kernel(kernel));
    std::vector<std::int32_t> data(5000);
    for (auto& x : data) x = static_cast<std::int32_t>(rng() % 1000);
    auto want = data;
    std::stable_sort(want.begin(), want.end());
    std::vector<std::int32_t> scratch(data.size());
    sequential_merge_sort(data.data(), scratch.data(), data.size());
    ASSERT_EQ(data, want) << to_string(kernel);

    std::vector<float> fdata(3000);
    for (auto& x : fdata)
      x = std::bit_cast<float>(static_cast<std::uint32_t>(rng()));
    auto fwant = fdata;
    std::stable_sort(fwant.begin(), fwant.end(), TotalOrderLess{});
    std::vector<float> fscratch(fdata.size());
    sequential_merge_sort(fdata.data(), fscratch.data(), fdata.size(),
                          TotalOrderLess{});
    ASSERT_EQ(std::memcmp(fdata.data(), fwant.data(),
                          fdata.size() * sizeof(float)),
              0)
        << to_string(kernel);
  }
}

}  // namespace
}  // namespace mp::kernels
