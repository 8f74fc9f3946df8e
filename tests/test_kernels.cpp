// Tests for src/kernels/ (S24): byte-exact equivalence of every
// dispatchable kernel against merge_steps() across lengths 0..257 and the
// adversarial generator distributions, cursor-resume behavior under
// partial step budgets, the dispatch/override surface (parse, env
// resolution, set_kernel clamping), the MERGEPATH_SIMD=OFF inertness
// contract, the compile-time trait that keeps payload/comparator/float
// merges off the vector path, and end-to-end equivalence through the
// wired hot paths (parallel merge, SPM, merge sort, multiway).

#include "kernels/kernels.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <cstring>
#include <limits>
#include <list>
#include <random>
#include <span>
#include <vector>

#include "core/mergepath.hpp"
#include "test_support.hpp"
#include "util/data_gen.hpp"

namespace mp::kernels {
namespace {

/// Saves the selected kernel and restores it on scope exit, so a test
/// that forces a kernel cannot leak the choice into later tests.
struct KernelGuard {
  Kernel saved = selected_kernel();
  ~KernelGuard() { set_kernel(saved); }
};

std::vector<Kernel> supported_kernels() {
  std::vector<Kernel> out;
  for (Kernel k : kAllKernels)
    if (kernel_supported(k)) out.push_back(k);
  return out;
}

// Order-preserving widenings of the int32 generator output, so one
// generator covers all four vectorized key types. The sign-bit flip makes
// the unsigned order match the signed order; the low bits keep 64-bit
// keys collision-rich but distinct enough to stress the tie handling.
std::vector<std::uint32_t> as_u32(const std::vector<std::int32_t>& v) {
  std::vector<std::uint32_t> out(v.size());
  for (std::size_t i = 0; i < v.size(); ++i)
    out[i] = static_cast<std::uint32_t>(v[i]) ^ 0x80000000u;
  return out;
}
std::vector<std::int64_t> as_i64(const std::vector<std::int32_t>& v) {
  std::vector<std::int64_t> out(v.size());
  for (std::size_t i = 0; i < v.size(); ++i)
    out[i] = (static_cast<std::int64_t>(v[i]) << 16) - 3;
  return out;
}
std::vector<std::uint64_t> as_u64(const std::vector<std::int32_t>& v) {
  std::vector<std::uint64_t> out(v.size());
  for (std::size_t i = 0; i < v.size(); ++i)
    out[i] = (static_cast<std::uint64_t>(static_cast<std::uint32_t>(v[i]) ^
                                         0x80000000u)
              << 32) |
             0xfeedu;
  return out;
}

/// Merges (a, b) twice under a `steps` budget — scalar merge_steps() as
/// the oracle, merge_steps_auto() with `kernel` forced as the candidate —
/// and requires identical output bytes AND identical final cursors (the
/// resumability contract the lane machinery depends on).
template <typename T>
void expect_equivalent(const std::vector<T>& a, const std::vector<T>& b,
                       Kernel kernel, std::size_t steps) {
  std::vector<T> want(steps), got(steps);
  std::size_t wi = 0, wj = 0;
  merge_steps(a.data(), a.size(), b.data(), b.size(), &wi, &wj, want.data(),
              steps);
  KernelGuard guard;
  ASSERT_TRUE(set_kernel(kernel));
  std::size_t gi = 0, gj = 0;
  merge_steps_auto(a.data(), a.size(), b.data(), b.size(), &gi, &gj,
                   got.data(), steps);
  ASSERT_EQ(got, want) << to_string(kernel) << " m=" << a.size()
                       << " n=" << b.size() << " steps=" << steps;
  ASSERT_EQ(gi, wi) << to_string(kernel) << " a-cursor";
  ASSERT_EQ(gj, wj) << to_string(kernel) << " b-cursor";
}

TEST(KernelEquivalence, AllLengthsZeroTo257AllKernels) {
  // Every length through 257 crosses all the interesting boundaries: the
  // vector widths (2/4/8), the guard band where the loops must hand off
  // to the scalar tail, and the 256-element prefetch distance.
  for (Kernel kernel : supported_kernels()) {
    for (std::size_t len = 0; len <= 257; ++len) {
      const auto input =
          make_merge_input(Dist::kUniform, len, len, 0x5eed + len);
      expect_equivalent(input.a, input.b, kernel, 2 * len);
    }
  }
}

TEST(KernelEquivalence, AdversarialDistributions) {
  // All-ties, duplicate-heavy and presorted-adversarial inputs: the take
  // count must reproduce the scalar kernel's A-priority co-rank exactly,
  // which ties stress hardest (a[i] <= b[j] must count as an A take).
  for (Kernel kernel : supported_kernels()) {
    for (Dist dist : {Dist::kAllEqual, Dist::kFewDuplicates,
                      Dist::kDisjointLow, Dist::kDisjointHigh,
                      Dist::kInterleaved, Dist::kClustered,
                      Dist::kOrganPipe}) {
      for (std::size_t len : {31u, 64u, 100u, 257u}) {
        const auto input = make_merge_input(dist, len, len, 0xd157 + len);
        expect_equivalent(input.a, input.b, kernel, 2 * len);
      }
    }
  }
}

TEST(KernelEquivalence, AsymmetricShapes) {
  for (Kernel kernel : supported_kernels()) {
    for (std::size_t m : {0u, 1u, 7u, 33u, 128u, 257u}) {
      const auto input = make_merge_input(Dist::kUniform, m, 64, 0xa5 + m);
      expect_equivalent(input.a, input.b, kernel, m + 64);
    }
  }
}

TEST(KernelEquivalence, AllKeyWidthsAndSignedness) {
  const auto base = make_merge_input(Dist::kFewDuplicates, 200, 173, 0x3247);
  for (Kernel kernel : supported_kernels()) {
    expect_equivalent(base.a, base.b, kernel, 373);
    expect_equivalent(as_u32(base.a), as_u32(base.b), kernel, 373);
    expect_equivalent(as_i64(base.a), as_i64(base.b), kernel, 373);
    expect_equivalent(as_u64(base.a), as_u64(base.b), kernel, 373);
  }
}

// Bitwise-identical float vectors (operator== is useless once NaNs are
// in play: NaN != NaN would fail exactly the payloads the total-order
// mode is supposed to preserve).
template <typename T>
void expect_bitwise_equal(const std::vector<T>& got,
                          const std::vector<T>& want, Kernel kernel) {
  ASSERT_EQ(got.size(), want.size());
  for (std::size_t i = 0; i < got.size(); ++i) {
    ASSERT_EQ(std::memcmp(&got[i], &want[i], sizeof(T)), 0)
        << to_string(kernel) << " differs at " << i;
  }
}

/// Scalar merge_steps() under TotalOrderLess as the oracle vs the forced
/// kernel through merge_steps_auto(): identical bytes, identical cursors.
template <typename T>
void expect_equivalent_total_order(const std::vector<T>& a,
                                   const std::vector<T>& b, Kernel kernel,
                                   std::size_t steps) {
  std::vector<T> want(steps), got(steps);
  std::size_t wi = 0, wj = 0;
  merge_steps(a.data(), a.size(), b.data(), b.size(), &wi, &wj, want.data(),
              steps, TotalOrderLess{});
  KernelGuard guard;
  ASSERT_TRUE(set_kernel(kernel));
  std::size_t gi = 0, gj = 0;
  merge_steps_auto(a.data(), a.size(), b.data(), b.size(), &gi, &gj,
                   got.data(), steps, TotalOrderLess{});
  expect_bitwise_equal(got, want, kernel);
  ASSERT_EQ(gi, wi) << to_string(kernel) << " a-cursor";
  ASSERT_EQ(gj, wj) << to_string(kernel) << " b-cursor";
}

/// Adversarial float input: random bit patterns (which naturally include
/// NaNs, denormals and infinities) salted with the special values the
/// totalOrder axioms care about, sorted by TotalOrderLess.
template <typename T>
std::vector<T> make_total_order_input(std::size_t len, std::uint64_t seed) {
  using Bits = std::conditional_t<sizeof(T) == 4, std::uint32_t,
                                  std::uint64_t>;
  std::mt19937_64 rng(seed);
  std::vector<T> out;
  out.reserve(len);
  const T specials[] = {
      T(0.0),
      T(-0.0),
      std::numeric_limits<T>::infinity(),
      -std::numeric_limits<T>::infinity(),
      std::numeric_limits<T>::quiet_NaN(),
      -std::numeric_limits<T>::quiet_NaN(),
      std::bit_cast<T>(static_cast<Bits>(sizeof(T) == 4
                                             ? 0x7fc00001u
                                             : 0x7ff8000000000001ull)),
      std::numeric_limits<T>::denorm_min(),
      -std::numeric_limits<T>::denorm_min(),
      std::numeric_limits<T>::min(),
      T(1.5),
      T(-1.5),
  };
  for (std::size_t i = 0; i < len; ++i) {
    if (i % 4 == 0) {
      out.push_back(specials[rng() % std::size(specials)]);
    } else {
      out.push_back(std::bit_cast<T>(static_cast<Bits>(rng())));
    }
  }
  std::sort(out.begin(), out.end(), TotalOrderLess{});
  return out;
}

TEST(KernelEquivalence, FloatTotalOrderAllKernels) {
  // The total-order float mode: float/double merges under TotalOrderLess
  // ride the integer vector kernels via the sign-flip bijection. The
  // inputs are deliberately hostile — signed zeros, quiet NaNs with
  // distinct payloads (both signs), denormals, infinities — and the
  // contract is bitwise, not just value, equality.
  for (Kernel kernel : supported_kernels()) {
    for (std::size_t len : {0u, 1u, 15u, 16u, 17u, 100u, 257u}) {
      expect_equivalent_total_order(
          make_total_order_input<float>(len, 0xf10a + len),
          make_total_order_input<float>(len + len / 3, 0xf10b + len), kernel,
          2 * len + len / 3);
      expect_equivalent_total_order(
          make_total_order_input<double>(len, 0xd0b1 + len),
          make_total_order_input<double>(len + len / 3, 0xd0b2 + len), kernel,
          2 * len + len / 3);
    }
  }
}

TEST(KernelEquivalence, FloatTotalOrderMatchesStdSortOrder) {
  // TotalOrderLess itself must realize IEEE totalOrder: merging two
  // sorted runs yields the same bytes std::sort produces on the
  // concatenation (true only because the comparator is a genuine total
  // order even with NaNs — std::less would scramble them).
  const auto a = make_total_order_input<float>(300, 0xab1);
  const auto b = make_total_order_input<float>(257, 0xab2);
  std::vector<float> want;
  want.insert(want.end(), a.begin(), a.end());
  want.insert(want.end(), b.begin(), b.end());
  std::sort(want.begin(), want.end(), TotalOrderLess{});
  for (Kernel kernel : supported_kernels()) {
    KernelGuard guard;
    ASSERT_TRUE(set_kernel(kernel));
    std::vector<float> got(want.size());
    std::size_t i = 0, j = 0;
    merge_steps_auto(a.data(), a.size(), b.data(), b.size(), &i, &j,
                     got.data(), got.size(), TotalOrderLess{});
    expect_bitwise_equal(got, want, kernel);
  }
}

TEST(KernelEquivalence, PartialBudgetsAndResume) {
  // The lane machinery calls the kernel with a step budget and resumes
  // from saved cursors; the vector loops must advance *a_pos/*b_pos
  // exactly as the scalar kernel would at every cut point.
  const auto input = make_merge_input(Dist::kClustered, 160, 160, 0xcafe);
  for (Kernel kernel : supported_kernels()) {
    for (std::size_t steps : {0u, 1u, 7u, 31u, 32u, 33u, 95u, 319u}) {
      expect_equivalent(input.a, input.b, kernel, steps);
    }
    // Resume: split one merge across two auto calls at an arbitrary cut
    // and compare against one full scalar pass.
    std::vector<std::int32_t> want(320), got(320);
    std::size_t wi = 0, wj = 0;
    merge_steps(input.a.data(), 160, input.b.data(), 160, &wi, &wj,
                want.data(), 320);
    KernelGuard guard;
    ASSERT_TRUE(set_kernel(kernel));
    std::size_t gi = 0, gj = 0;
    merge_steps_auto(input.a.data(), 160, input.b.data(), 160, &gi, &gj,
                     got.data(), 153);
    merge_steps_auto(input.a.data(), 160, input.b.data(), 160, &gi, &gj,
                     got.data() + 153, 167);
    ASSERT_EQ(got, want) << to_string(kernel);
    ASSERT_EQ(gi, wi);
    ASSERT_EQ(gj, wj);
  }
}

TEST(KernelEquivalence, InstrumentedCallsStayScalar) {
  // PRAM op counts model one compare/move per path step; the vector path
  // would falsify them, so instr != nullptr must force the scalar kernel.
  const auto input = make_merge_input(Dist::kUniform, 500, 500, 0x0b5);
  KernelGuard guard;
  ASSERT_TRUE(set_kernel(widest_supported()));
  std::vector<std::int32_t> out(1000);
  OpCounts ops;
  std::size_t i = 0, j = 0;
  merge_steps_auto(input.a.data(), 500, input.b.data(), 500, &i, &j,
                   out.data(), 1000, std::less<>{}, &ops);
  EXPECT_EQ(ops.moves, 1000u);
  EXPECT_GE(ops.compares, 500u);
  EXPECT_EQ(out, test::reference_merge(input.a, input.b));
}

// ---------------------------------------------------------------------------
// Dispatch surface.

TEST(KernelDispatch, ParseRoundTripsAndRejectsUnknown) {
  for (Kernel k : kAllKernels) {
    const auto parsed = parse_kernel(to_string(k));
    ASSERT_TRUE(parsed.has_value()) << to_string(k);
    EXPECT_EQ(*parsed, k);
  }
  EXPECT_FALSE(parse_kernel("").has_value());
  EXPECT_FALSE(parse_kernel("auto").has_value());  // env-only spelling
  EXPECT_FALSE(parse_kernel("AVX2").has_value());
  EXPECT_FALSE(parse_kernel("banana").has_value());
  EXPECT_FALSE(parse_kernel("branchless").has_value());  // deleted kernel
}

TEST(KernelDispatch, IdsArePinned) {
  // Reported ids (perfbench kernels.selected_id) keep their meaning.
  EXPECT_EQ(static_cast<int>(Kernel::kScalar), 0);
  EXPECT_EQ(static_cast<int>(Kernel::kSse4), 2);
  EXPECT_EQ(static_cast<int>(Kernel::kAvx2), 3);
  EXPECT_EQ(static_cast<int>(Kernel::kAvx512), 4);
}

TEST(KernelDispatch, ScalarAlwaysSupported) {
  EXPECT_TRUE(kernel_supported(Kernel::kScalar));
}

TEST(KernelDispatch, SimdSupportRequiresCompiledInTUs) {
  if (kSimdCompiledIn) GTEST_SKIP() << "SIMD TUs compiled in";
  EXPECT_FALSE(kernel_supported(Kernel::kSse4));
  EXPECT_FALSE(kernel_supported(Kernel::kAvx2));
  EXPECT_FALSE(kernel_supported(Kernel::kAvx512));
  EXPECT_EQ(widest_supported(), Kernel::kScalar);
}

TEST(KernelDispatch, WidestIsOrderedAndSupported) {
  const Kernel widest = widest_supported();
  EXPECT_TRUE(kernel_supported(widest));
  if (kernel_supported(Kernel::kAvx512)) {
    EXPECT_EQ(widest, Kernel::kAvx512);
  } else if (kernel_supported(Kernel::kAvx2)) {
    EXPECT_EQ(widest, Kernel::kAvx2);
  } else if (kernel_supported(Kernel::kSse4)) {
    EXPECT_EQ(widest, Kernel::kSse4);
  } else {
    EXPECT_EQ(widest, Kernel::kScalar);
  }
}

TEST(KernelDispatch, SetKernelRejectsUnsupportedAndKeepsSelection) {
  KernelGuard guard;
  ASSERT_TRUE(set_kernel(Kernel::kScalar));
  for (Kernel k : {Kernel::kSse4, Kernel::kAvx2, Kernel::kAvx512}) {
    if (kernel_supported(k)) {
      EXPECT_TRUE(set_kernel(k));
      EXPECT_EQ(selected_kernel(), k);
      ASSERT_TRUE(set_kernel(Kernel::kScalar));
    } else {
      EXPECT_FALSE(set_kernel(k));
      EXPECT_EQ(selected_kernel(), Kernel::kScalar) << "selection leaked";
    }
  }
}

TEST(KernelDispatch, EnvOverrideResolution) {
  std::string warning;
  EXPECT_EQ(detail::resolve_override(nullptr, &warning), widest_supported());
  EXPECT_TRUE(warning.empty());
  EXPECT_EQ(detail::resolve_override("", &warning), widest_supported());
  EXPECT_EQ(detail::resolve_override("auto", &warning), widest_supported());
  EXPECT_TRUE(warning.empty());
  EXPECT_EQ(detail::resolve_override("scalar", &warning), Kernel::kScalar);
  EXPECT_TRUE(warning.empty());
  // Unknown names clamp to the widest kernel and explain themselves.
  for (const char* unknown : {"banana", "branchless"}) {
    EXPECT_EQ(detail::resolve_override(unknown, &warning), widest_supported());
    EXPECT_NE(warning.find(unknown), std::string::npos);
    warning.clear();
  }
  if (!kernel_supported(Kernel::kAvx2)) {
    // Known-but-unsupported names clamp too (other-host configs copied
    // into an environment file must not crash the binary).
    EXPECT_EQ(detail::resolve_override("avx2", &warning), widest_supported());
    EXPECT_FALSE(warning.empty());
  }
}

TEST(KernelDispatch, BannerNamesSelectionAndIsa) {
  KernelGuard guard;
  ASSERT_TRUE(set_kernel(Kernel::kScalar));
  const std::string banner = kernel_banner();
  EXPECT_NE(banner.find("kernel scalar"), std::string::npos) << banner;
  EXPECT_NE(banner.find("isa "), std::string::npos) << banner;
}

TEST(KernelDispatch, CompiledOutSimdLoopsAreInert) {
  if (kSimdCompiledIn) GTEST_SKIP() << "SIMD TUs compiled in";
  // With MERGEPATH_SIMD=OFF the per-ISA entry points must be pure
  // fallthrough: no elements written, no cursor movement.
  const std::vector<std::int32_t> a(64, 1), b(64, 2);
  std::vector<std::int32_t> out(128, -1);
  const std::vector<float> fa(64, 1.0f), fb(64, 2.0f);
  std::vector<float> fout(128, -1.0f);
  for (Kernel k : {Kernel::kSse4, Kernel::kAvx2, Kernel::kAvx512}) {
    std::size_t i = 0, j = 0;
    EXPECT_EQ(detail::simd_loop_i32(k, a.data(), 64, b.data(), 64, &i, &j,
                                    out.data(), 128),
              0u);
    EXPECT_EQ(i, 0u);
    EXPECT_EQ(j, 0u);
    EXPECT_EQ(out[0], -1);
    std::size_t fi = 0, fj = 0;
    EXPECT_EQ(detail::simd_loop_f32(k, fa.data(), 64, fb.data(), 64, &fi,
                                    &fj, fout.data(), 128),
              0u);
    EXPECT_EQ(fi, 0u);
    EXPECT_EQ(fj, 0u);
    EXPECT_EQ(fout[0], -1.0f);
  }
}

// ---------------------------------------------------------------------------
// The compile-time trait: exactly the byte-exactness-provable cases.

using I32Iter = const std::int32_t*;
using I32Out = std::int32_t*;
struct ByHalf {
  bool operator()(int x, int y) const { return x / 2 < y / 2; }
};

static_assert(use_vector_merge_v<I32Iter, I32Iter, I32Out, std::less<>>);
static_assert(
    use_vector_merge_v<I32Iter, I32Iter, I32Out, std::less<std::int32_t>>);
static_assert(use_vector_merge_v<const std::uint64_t*, const std::uint64_t*,
                                 std::uint64_t*, std::less<>>);
static_assert(use_vector_merge_v<std::vector<std::int64_t>::const_iterator,
                                 std::vector<std::int64_t>::const_iterator,
                                 std::vector<std::int64_t>::iterator,
                                 std::less<>>);
// Floats under std::less: equal keys need not be bitwise identical
// (-0.0/+0.0), NaN breaks the strict weak order — the scalar kernel's
// take order must be kept.
static_assert(!use_vector_merge_v<const float*, const float*, float*,
                                  std::less<>>);
static_assert(!use_vector_merge_v<const double*, const double*, double*,
                                  std::less<>>);
// Floats under the opt-in TotalOrderLess are admitted (the total-order
// float mode); integer keys under TotalOrderLess compare with plain <,
// but the trait only certifies the float instantiations.
static_assert(use_vector_merge_v<const float*, const float*, float*,
                                 TotalOrderLess>);
static_assert(use_vector_merge_v<const double*, const double*, double*,
                                 TotalOrderLess>);
static_assert(use_vector_merge_v<std::vector<float>::const_iterator,
                                 std::vector<float>::const_iterator,
                                 std::vector<float>::iterator,
                                 TotalOrderLess>);
// Payload records: reordering equal keys would break A-priority stability.
static_assert(!use_vector_merge_v<const KeyedRecord*, const KeyedRecord*,
                                  KeyedRecord*, std::less<>>);
// Custom comparators define their own tie classes; only std::less is
// provably equivalent to the integer min/max network.
static_assert(!use_vector_merge_v<I32Iter, I32Iter, I32Out, std::greater<>>);
static_assert(!use_vector_merge_v<I32Iter, I32Iter, I32Out, ByHalf>);
// Non-contiguous iterators (SPM's ring views, lists) cannot feed vector
// loads.
static_assert(!use_vector_merge_v<std::list<std::int32_t>::const_iterator,
                                  std::list<std::int32_t>::const_iterator,
                                  I32Out, std::less<>>);
static_assert(!use_vector_merge_v<
              std::vector<std::int32_t>::const_reverse_iterator,
              std::vector<std::int32_t>::const_reverse_iterator, I32Out,
              std::less<>>);
// Mixed key types on the two inputs stay scalar.
static_assert(!use_vector_merge_v<const std::int32_t*, const std::int64_t*,
                                  std::int64_t*, std::less<>>);
static_assert(!use_vector_merge_v<const bool*, const bool*, bool*,
                                  std::less<>>);

TEST(KernelTrait, PayloadAndComparatorMergesStayStable) {
  // Property sweep: merges the vector path must refuse — payload records
  // and tie-heavy custom comparators — produce the exact stable result
  // whichever kernel is forced, because they never reach the SIMD loops.
  for (Kernel kernel : supported_kernels()) {
    KernelGuard guard;
    ASSERT_TRUE(set_kernel(kernel));

    const auto keyed = make_keyed_input(700, 600, 5, 0x57ab);
    std::vector<KeyedRecord> out(1300), want(1300);
    parallel_merge(keyed.a.data(), keyed.a.size(), keyed.b.data(),
                   keyed.b.size(), out.data(), Executor{nullptr, 4});
    std::merge(keyed.a.begin(), keyed.a.end(), keyed.b.begin(),
               keyed.b.end(), want.begin());
    ASSERT_EQ(out, want) << to_string(kernel);

    // Tie classes of width 2: ByHalf considers 2k and 2k+1 equal, so a
    // kernel that compared raw integers would order them differently.
    auto input = make_merge_input(Dist::kFewDuplicates, 800, 800, 0x71e5);
    std::sort(input.a.begin(), input.a.end(), ByHalf{});
    std::sort(input.b.begin(), input.b.end(), ByHalf{});
    std::vector<std::int32_t> got2(1600), want2(1600);
    parallel_merge(input.a.data(), 800, input.b.data(), 800, got2.data(),
                   Executor{nullptr, 4}, ByHalf{});
    std::merge(input.a.begin(), input.a.end(), input.b.begin(),
               input.b.end(), want2.begin(), ByHalf{});
    ASSERT_EQ(got2, want2) << to_string(kernel);
  }
}

// ---------------------------------------------------------------------------
// Hot-path equivalence: the wired call sites produce identical results
// whichever kernel dispatch selects.

TEST(KernelHotPaths, ParallelMergeMatchesReference) {
  const auto input = make_merge_input(Dist::kUniform, 100000, 90001, 0x9a7);
  const auto want = test::reference_merge(input.a, input.b);
  for (Kernel kernel : supported_kernels()) {
    KernelGuard guard;
    ASSERT_TRUE(set_kernel(kernel));
    // p = 1 runs the same lane body, hence the same forced kernel.
    for (unsigned p : {1u, 4u}) {
      std::vector<std::int32_t> out(want.size());
      parallel_merge(input.a.data(), input.a.size(), input.b.data(),
                     input.b.size(), out.data(), Executor{nullptr, p});
      ASSERT_EQ(out, want) << to_string(kernel) << " p=" << p;
    }
    // The tiled merge's lanes take the same kernel entry point; an odd
    // tile size puts tile edges off every vector width.
    std::vector<std::int32_t> tiled(want.size());
    tiled_parallel_merge(input.a.data(), input.a.size(), input.b.data(),
                         input.b.size(), tiled.data(), 1001,
                         Executor{nullptr, 4});
    ASSERT_EQ(tiled, want) << "tiled " << to_string(kernel);
  }
}

TEST(KernelHotPaths, SegmentedMergeMatchesReferenceAcrossRingWraps) {
  // A tiny, non-power-of-two segment length forces many ring refills and
  // wrapped windows — the flat-window fast path must hand wrapped windows
  // back to the CyclicView scalar path without missing elements.
  const auto input = make_merge_input(Dist::kClustered, 7001, 6400, 0x5e6);
  const auto want = test::reference_merge(input.a, input.b);
  SegmentedConfig config;
  config.segment_length = 192;
  for (Kernel kernel : supported_kernels()) {
    KernelGuard guard;
    ASSERT_TRUE(set_kernel(kernel));
    std::vector<std::int32_t> out(want.size());
    segmented_parallel_merge(input.a.data(), input.a.size(), input.b.data(),
                             input.b.size(), out.data(), config,
                             Executor{nullptr, 3});
    ASSERT_EQ(out, want) << to_string(kernel);
  }
}

TEST(KernelHotPaths, MergeSortMatchesStdSort) {
  std::vector<std::int32_t> data = make_merge_input(
      Dist::kUniform, 50000, 0, 0xf00d).a;
  std::mt19937 rng(7);
  std::shuffle(data.begin(), data.end(), rng);
  auto want = data;
  std::sort(want.begin(), want.end());
  for (Kernel kernel : supported_kernels()) {
    KernelGuard guard;
    ASSERT_TRUE(set_kernel(kernel));
    auto got = data;
    parallel_merge_sort(got.data(), got.size(), Executor{nullptr, 4});
    ASSERT_EQ(got, want) << to_string(kernel);
  }
}

TEST(KernelHotPaths, MultiwayPairwiseFallbackAndLoserTreeMatch) {
  const auto input = make_merge_input(Dist::kInterleaved, 40000, 35000, 0x2a);
  const auto want2 = test::reference_merge(input.a, input.b);
  const auto extra = make_merge_input(Dist::kUniform, 20000, 0, 0x2b).a;
  std::vector<std::int32_t> want3(want2.size() + extra.size());
  std::merge(want2.begin(), want2.end(), extra.begin(), extra.end(),
             want3.begin());
  for (Kernel kernel : supported_kernels()) {
    KernelGuard guard;
    ASSERT_TRUE(set_kernel(kernel));
    // k=2 takes the pairwise parallel_merge fallback (vector path).
    const std::vector<std::vector<std::int32_t>> two{input.a, input.b};
    ASSERT_EQ(parallel_multiway_merge(two, Executor{nullptr, 4}), want2)
        << to_string(kernel);
    // k=3 stays on the LoserTree; same bytes either way.
    const std::vector<std::vector<std::int32_t>> three{input.a, input.b,
                                                       extra};
    ASSERT_EQ(parallel_multiway_merge(three, Executor{nullptr, 4}), want3)
        << to_string(kernel);
  }
}

TEST(KernelHotPaths, InstrumentedMultiwayKeepsLoserTreeCounts) {
  // The pairwise fallback is forbidden when instrumentation is on: the
  // modelled compare counts must reflect the log-k selection tree.
  const auto input = make_merge_input(Dist::kUniform, 5000, 5000, 0x77);
  const std::vector<std::vector<std::int32_t>> two{input.a, input.b};
  std::vector<std::span<const std::int32_t>> views{
      {input.a.data(), input.a.size()}, {input.b.data(), input.b.size()}};
  std::vector<std::int32_t> out(10000);
  std::vector<OpCounts> ops(4);
  parallel_multiway_merge(std::span<const std::span<const std::int32_t>>(
                              views.data(), views.size()),
                          out.data(), Executor{nullptr, 4}, std::less<>{},
                          std::span<OpCounts>(ops));
  ASSERT_EQ(out, test::reference_merge(input.a, input.b));
  std::size_t moves = 0;
  for (const auto& o : ops) moves += o.moves;
  EXPECT_EQ(moves, 10000u);
}

}  // namespace
}  // namespace mp::kernels
