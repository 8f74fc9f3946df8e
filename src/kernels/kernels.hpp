#pragma once
/// \file kernels.hpp
/// Vectorized per-lane merge kernels with runtime ISA dispatch.
///
/// Algorithm 1's cost is dominated by the (|A|+|B|)/p steps of sequential
/// merge each lane runs after its diagonal search; merge_steps() decides
/// one element per iteration behind a data-dependent branch. This layer
/// replaces the *interior* of that loop — W outputs per iteration via an
/// in-register bitonic merge network (SSE4.2 4-wide / AVX2 8-wide for
/// 32-bit keys, 2-/4-wide for 64-bit) — while keeping merge_steps() as
/// the byte-exact contract:
///
///   - Per vector step the kernel loads W keys from each cursor, counts
///     the A-side takes with the anti-diagonal rule
///     k = |{t : a[i+t] <= b[j+W-1-t]}| (the Merge Path diagonal
///     predicate, so the cursor advance equals the scalar kernel's
///     A-priority co-rank), and emits the sorted W smallest of the 2W
///     window. Keys are bare integers, so "the sorted W smallest" is
///     byte-identical to the scalar kernel's next W outputs.
///   - The vector loop only runs while BOTH windows have >= W unconsumed
///     elements and >= W steps remain; everything else — tails, tiny
///     lanes, one side exhausted — falls back to merge_steps(). No load
///     ever touches memory outside [a, a+m) / [b, b+n).
///
/// Dispatch layers (docs/PERFORMANCE.md):
///   - compile time: use_vector_merge_v — the vector path exists only for
///     32/64-bit integral keys under std::less with contiguous iterators,
///     plus float/double keys under the opt-in TotalOrderLess comparator
///     (the IEEE totalOrder sign-flip bijection makes equal keys bitwise
///     identical again, which is what the byte-exactness proof needs).
///     Payload merges (KeyedRecord), custom comparators, floats under
///     plain std::less (equal floats need not be bitwise identical:
///     -0.0/+0.0, and NaN breaks strict weak order) and ring-buffer views
///     stay on the scalar kernel, which preserves A-priority stability by
///     construction.
///   - build time: -DMERGEPATH_SIMD=OFF compiles the ISA TUs out
///     (MP_SIMD=0), mirroring the TRACE/FAULT gates.
///   - run time: cpuid (util/hw cpu_features()) picks the widest
///     supported kernel; MP_MERGE_KERNEL=
///     scalar|sse4|avx2|avx512 or the harness/tool --kernel
///     flag overrides it.
///   - call time: instrumented merges (instr != nullptr) stay scalar so
///     PRAM op counts keep meaning one compare/move per path step.

#include <bit>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <iterator>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <type_traits>

#include "core/sequential_merge.hpp"

#ifndef MP_SIMD
#define MP_SIMD 1
#endif

namespace mp::kernels {

/// True when the SIMD TUs are compiled in (MERGEPATH_SIMD=ON and the
/// toolchain accepted the target flags).
inline constexpr bool kSimdCompiledIn = MP_SIMD != 0;

/// The dispatchable per-lane merge kernels, narrowest to widest. The
/// values are pinned: they are reported as ids (perfbench
/// kernels.selected_id), and 1 stays unused.
enum class Kernel : std::uint8_t {
  kScalar = 0,  ///< merge_steps(): branchy, one element per iteration
  kSse4 = 2,    ///< 4-wide (32-bit) / 2-wide (64-bit), needs SSE4.2
  kAvx2 = 3,    ///< 8-wide (32-bit) / 4-wide (64-bit), needs AVX2
  kAvx512 = 4,  ///< 16-wide (32-bit) / 8-wide (64-bit), needs AVX-512 F+BW
};

inline constexpr Kernel kAllKernels[] = {Kernel::kScalar, Kernel::kSse4,
                                         Kernel::kAvx2, Kernel::kAvx512};

/// True for the vector (width > 1) kernels — the ones whose selection
/// makes the wrapped-ring linearization copy in segmented_merge worth
/// paying for.
inline constexpr bool is_vector_kernel(Kernel kernel) {
  return kernel != Kernel::kScalar;
}

const char* to_string(Kernel kernel);

/// "scalar|sse4|avx2|avx512" -> Kernel; anything else -> nullopt.
std::optional<Kernel> parse_kernel(std::string_view name);

/// Whether `kernel` can actually run: compiled in AND the host ISA has it.
bool kernel_supported(Kernel kernel);

/// The widest supported kernel on this host/build (kScalar when the SIMD
/// TUs are compiled out or the host lacks SSE4.2 — the pre-dispatch
/// behavior, so MERGEPATH_SIMD=OFF builds are inert by default).
Kernel widest_supported();

/// The kernel merge_steps_auto() routes to. First call resolves the
/// MP_MERGE_KERNEL environment override (unknown or unsupported values
/// clamp to widest_supported() with a one-time stderr warning).
Kernel selected_kernel();

/// Forces the dispatch choice (--kernel flag). Returns false — leaving
/// the selection unchanged — when `kernel` is not supported here.
bool set_kernel(Kernel kernel);

/// One-line banner: "kernel avx2 (isa sse4.2+avx2)".
std::string kernel_banner();

namespace detail {

/// The IEEE-754 totalOrder sign-flip bijection: maps float bit patterns
/// to unsigned integers whose < order is exactly totalOrder(x, y) —
/// positive values get the sign bit set (shifting them above every
/// negative), negative values are bitwise complemented (reversing their
/// descending bit-pattern order). -NaN < -inf < ... < -0.0 < +0.0 < ...
/// < +inf < +NaN, with NaN payloads ordered by significand. The map is a
/// bijection, so totalOrder-equal keys are bitwise identical — the
/// property that lets float merges ride the integer vector kernels.
inline std::uint32_t total_order_key(float x) {
  const auto bits = std::bit_cast<std::uint32_t>(x);
  const auto mask =
      static_cast<std::uint32_t>(static_cast<std::int32_t>(bits) >> 31);
  return bits ^ (mask | 0x80000000u);
}
inline std::uint64_t total_order_key(double x) {
  const auto bits = std::bit_cast<std::uint64_t>(x);
  const auto mask =
      static_cast<std::uint64_t>(static_cast<std::int64_t>(bits) >> 63);
  return bits ^ (mask | 0x8000000000000000ull);
}

}  // namespace detail

/// Opt-in total-order comparator: IEEE totalOrder for float/double
/// (strict weak — in fact total — even with NaNs and signed zeros, which
/// plain std::less is not), plain < for every other type. Merges and
/// small sorts invoked with this comparator on contiguous float/double
/// keys are admitted to the integer vector kernels via the sign-flip
/// bijection; everything about the byte-exactness contract carries over
/// because totalOrder-equal keys are bitwise identical.
struct TotalOrderLess {
  bool operator()(float x, float y) const {
    return detail::total_order_key(x) < detail::total_order_key(y);
  }
  bool operator()(double x, double y) const {
    return detail::total_order_key(x) < detail::total_order_key(y);
  }
  template <typename T>
  bool operator()(const T& x, const T& y) const {
    return x < y;
  }
};

namespace detail {

/// Env-override resolution, separated out for tests: nullptr/""/"auto"
/// pick widest_supported(); a known+supported name picks it; anything
/// else clamps to widest_supported() and appends a warning.
Kernel resolve_override(const char* value, std::string* warning);

// Vector main loops, defined in the per-ISA TUs (merge_sse4.cpp /
// merge_avx2.cpp). Each merges full W-wide steps while both inputs hold
// >= W unconsumed elements and >= W steps remain, advancing *a_pos and
// *b_pos exactly as merge_steps() would, and returns the elements
// written; the caller finishes with the scalar tail. When the matching
// TU is compiled out they return 0 (pure fallthrough).
std::size_t simd_loop_i32(Kernel kernel, const std::int32_t* a,
                          std::size_t m, const std::int32_t* b, std::size_t n,
                          std::size_t* a_pos, std::size_t* b_pos,
                          std::int32_t* out, std::size_t steps);
std::size_t simd_loop_u32(Kernel kernel, const std::uint32_t* a,
                          std::size_t m, const std::uint32_t* b, std::size_t n,
                          std::size_t* a_pos, std::size_t* b_pos,
                          std::uint32_t* out, std::size_t steps);
std::size_t simd_loop_i64(Kernel kernel, const std::int64_t* a,
                          std::size_t m, const std::int64_t* b, std::size_t n,
                          std::size_t* a_pos, std::size_t* b_pos,
                          std::int64_t* out, std::size_t steps);
std::size_t simd_loop_u64(Kernel kernel, const std::uint64_t* a,
                          std::size_t m, const std::uint64_t* b, std::size_t n,
                          std::size_t* a_pos, std::size_t* b_pos,
                          std::uint64_t* out, std::size_t steps);
// Total-order float loops: the TUs apply the sign-flip bijection on load,
// run the unsigned integer window merge, and invert it before store, so
// the output bytes equal the scalar kernel's under TotalOrderLess.
std::size_t simd_loop_f32(Kernel kernel, const float* a, std::size_t m,
                          const float* b, std::size_t n, std::size_t* a_pos,
                          std::size_t* b_pos, float* out, std::size_t steps);
std::size_t simd_loop_f64(Kernel kernel, const double* a, std::size_t m,
                          const double* b, std::size_t n, std::size_t* a_pos,
                          std::size_t* b_pos, double* out, std::size_t steps);

/// Routes a typed pointer merge to the matching exported loop. The
/// reinterpret_casts are between same-size integer types; the TUs load
/// through may_alias vector types, so no TBAA hazard.
template <typename T>
std::size_t simd_loop(Kernel kernel, const T* a, std::size_t m, const T* b,
                      std::size_t n, std::size_t* a_pos, std::size_t* b_pos,
                      T* out, std::size_t steps) {
  if constexpr (std::is_same_v<T, float>) {
    return simd_loop_f32(kernel, a, m, b, n, a_pos, b_pos, out, steps);
  } else if constexpr (std::is_same_v<T, double>) {
    return simd_loop_f64(kernel, a, m, b, n, a_pos, b_pos, out, steps);
  } else if constexpr (sizeof(T) == 4) {
    if constexpr (std::is_signed_v<T>) {
      return simd_loop_i32(kernel, reinterpret_cast<const std::int32_t*>(a),
                           m, reinterpret_cast<const std::int32_t*>(b), n,
                           a_pos, b_pos, reinterpret_cast<std::int32_t*>(out),
                           steps);
    } else {
      return simd_loop_u32(kernel, reinterpret_cast<const std::uint32_t*>(a),
                           m, reinterpret_cast<const std::uint32_t*>(b), n,
                           a_pos, b_pos, reinterpret_cast<std::uint32_t*>(out),
                           steps);
    }
  } else {
    if constexpr (std::is_signed_v<T>) {
      return simd_loop_i64(kernel, reinterpret_cast<const std::int64_t*>(a),
                           m, reinterpret_cast<const std::int64_t*>(b), n,
                           a_pos, b_pos, reinterpret_cast<std::int64_t*>(out),
                           steps);
    } else {
      return simd_loop_u64(kernel, reinterpret_cast<const std::uint64_t*>(a),
                           m, reinterpret_cast<const std::uint64_t*>(b), n,
                           a_pos, b_pos, reinterpret_cast<std::uint64_t*>(out),
                           steps);
    }
  }
}

}  // namespace detail

/// Compile-time gate of the vector path. Evaluates to true only for the
/// byte-exactness-provable cases, through contiguous iterators on all
/// three sides:
///   - bare 32/64-bit integral keys (bool excluded) under std::less, and
///   - float/double keys under the opt-in TotalOrderLess comparator (the
///     total-order float mode: the sign-flip bijection makes equal keys
///     bitwise identical, restoring the integer argument).
/// Everything else — payload records, custom comparators, floats under
/// std::less — stays on the scalar kernel, where no payload can be
/// reordered across equal keys.
template <typename IterA, typename IterB, typename OutIter, typename Comp>
inline constexpr bool use_vector_merge_v = [] {
  if constexpr (std::contiguous_iterator<IterA> &&
                std::contiguous_iterator<IterB> &&
                std::contiguous_iterator<OutIter>) {
    using T = std::remove_cv_t<std::iter_value_t<OutIter>>;
    if constexpr (!std::is_same_v<std::remove_cv_t<std::iter_value_t<IterA>>,
                                  T> ||
                  !std::is_same_v<std::remove_cv_t<std::iter_value_t<IterB>>,
                                  T>) {
      return false;
    } else if constexpr (std::is_same_v<T, float> ||
                         std::is_same_v<T, double>) {
      return std::is_same_v<Comp, TotalOrderLess>;
    } else {
      return std::is_integral_v<T> && !std::is_same_v<T, bool> &&
             (sizeof(T) == 4 || sizeof(T) == 8) &&
             (std::is_same_v<Comp, std::less<>> ||
              std::is_same_v<Comp, std::less<T>>);
    }
  } else {
    return false;
  }
}();

/// Drop-in replacement for merge_steps() at the wiring points: same
/// signature, same contract, byte-identical output and cursor updates.
/// Routes the front of the merge through the selected kernel when the
/// compile-time trait admits it and the call is uninstrumented, then
/// always finishes with merge_steps() for the tail.
template <typename IterA, typename IterB, typename OutIter,
          typename Comp = std::less<>, typename Instr = NoInstrument>
OutIter merge_steps_auto(IterA a, std::size_t m, IterB b, std::size_t n,
                         std::size_t* a_pos, std::size_t* b_pos, OutIter out,
                         std::size_t steps, Comp comp = {},
                         Instr* instr = nullptr) {
  if constexpr (use_vector_merge_v<IterA, IterB, OutIter, Comp>) {
    if (instr == nullptr && steps > 0) {
      const Kernel kind = selected_kernel();
      if (kind != Kernel::kScalar) {
        using T = std::remove_cv_t<std::iter_value_t<OutIter>>;
        const T* pa = std::to_address(a);
        const T* pb = std::to_address(b);
        T* po = std::to_address(out);
        const std::size_t written = detail::simd_loop<T>(
            kind, pa, m, pb, n, a_pos, b_pos, po, steps);
        out += static_cast<std::ptrdiff_t>(written);
        steps -= written;
      }
    }
  }
  return merge_steps(a, m, b, n, a_pos, b_pos, out, steps, comp, instr);
}

}  // namespace mp::kernels
