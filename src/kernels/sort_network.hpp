#pragma once
/// \file sort_network.hpp
/// Branchless sorting-network base case for the merge sorts.
///
/// sequential_merge_sort forms its initial runs (kInsertionSortThreshold
/// = 24 keys) with insertion sort, whose inner loop retires one element
/// per data-dependent branch — the same serial bottleneck the vector
/// merge kernels removed from the merge loop. This header replaces that
/// base case for the key types the kernel dispatch already certifies:
/// blocks of 8/16 keys go through Batcher odd-even sorting networks (19 /
/// 63 compare-exchanges, data-independent schedule, each compare-exchange
/// a branchless min/max select), and the sorted blocks are combined with
/// merge_steps_auto — the same bitonic-window vector merge the rest of
/// the codebase uses — so a 24-key run costs two networks plus one
/// kernel merge instead of ~144 dependent branches.
///
/// Gating mirrors the merge dispatch exactly:
///   - compile time: use_vector_merge_v over T*/Comp — bare 32/64-bit
///     integral keys under std::less, float/double under TotalOrderLess.
///     Networks reorder equal keys, so they are admitted only where
///     equal keys are bitwise identical (the same argument that makes the
///     vector merges stable "for free").
///   - run time: a vector kernel must actually be selected. Forced
///     --kernel scalar runs, MERGEPATH_SIMD=OFF builds and
///     non-x86 hosts keep the insertion-sort base case, byte for byte.
///   - call time: instrumented sorts (instr != nullptr) keep insertion
///     sort. A network's fixed compare-exchange count differs from
///     insertion sort's data-dependent one, so counting the network
///     would make the PRAM op counts (src/pram, the fig_sort and
///     table_complexity model columns) depend on the host ISA. The
///     merges above the base case run the dispatched kernel either way
///     (kernels.hpp derives their counts from the cursor deltas).
/// Either path produces identical bytes for the admitted types; only the
/// instruction stream differs.

#include <algorithm>
#include <bit>
#include <cstddef>
#include <limits>
#include <type_traits>

#include "kernels/kernels.hpp"

namespace mp::kernels {

/// Largest n sort_small_auto routes through the network path; larger
/// calls (no current caller makes one) fall back to insertion sort.
inline constexpr std::size_t kSortNetworkMax = 64;

namespace detail {

/// Branchless compare-exchange: after the call x <= y under comp. The
/// selects compile to min/max or cmov — no data-dependent branch.
template <typename T, typename Comp>
inline void cswap(T& x, T& y, Comp comp) {
  const bool sw = comp(y, x);
  const T lo = sw ? y : x;
  const T hi = sw ? x : y;
  x = lo;
  y = hi;
}

/// Batcher odd-even mergesort network for 8 keys: 19 compare-exchanges
/// in 6 data-independent layers (two sorted 4-runs, then their odd-even
/// merge).
template <typename T, typename Comp>
inline void sort_network8(T* d, Comp comp) {
  cswap(d[0], d[1], comp); cswap(d[2], d[3], comp);
  cswap(d[4], d[5], comp); cswap(d[6], d[7], comp);
  cswap(d[0], d[2], comp); cswap(d[1], d[3], comp);
  cswap(d[4], d[6], comp); cswap(d[5], d[7], comp);
  cswap(d[1], d[2], comp); cswap(d[5], d[6], comp);
  cswap(d[0], d[4], comp); cswap(d[1], d[5], comp);
  cswap(d[2], d[6], comp); cswap(d[3], d[7], comp);
  cswap(d[2], d[4], comp); cswap(d[3], d[5], comp);
  cswap(d[1], d[2], comp); cswap(d[3], d[4], comp);
  cswap(d[5], d[6], comp);
}

/// Batcher network for 16 keys: two sorted 8-runs plus their odd-even
/// merge (25 compare-exchanges), 63 total.
template <typename T, typename Comp>
inline void sort_network16(T* d, Comp comp) {
  sort_network8(d, comp);
  sort_network8(d + 8, comp);
  cswap(d[0], d[8], comp); cswap(d[1], d[9], comp);
  cswap(d[2], d[10], comp); cswap(d[3], d[11], comp);
  cswap(d[4], d[12], comp); cswap(d[5], d[13], comp);
  cswap(d[6], d[14], comp); cswap(d[7], d[15], comp);
  cswap(d[4], d[8], comp); cswap(d[5], d[9], comp);
  cswap(d[6], d[10], comp); cswap(d[7], d[11], comp);
  cswap(d[2], d[4], comp); cswap(d[3], d[5], comp);
  cswap(d[6], d[8], comp); cswap(d[7], d[9], comp);
  cswap(d[10], d[12], comp); cswap(d[11], d[13], comp);
  cswap(d[1], d[2], comp); cswap(d[3], d[4], comp);
  cswap(d[5], d[6], comp); cswap(d[7], d[8], comp);
  cswap(d[9], d[10], comp); cswap(d[11], d[12], comp);
  cswap(d[13], d[14], comp);
}

/// The padding value for a short tail block: the maximum of the key
/// type's order, so sentinels sort to the back and the real prefix is
/// exactly the sorted input (when a real key *equals* the sentinel the
/// boundary falls among bitwise-identical values, so the prefix is still
/// right). For floats the totalOrder maximum is +NaN with an all-ones
/// payload, not infinity.
template <typename T>
constexpr T sort_pad_max() {
  if constexpr (std::is_same_v<T, float>) {
    return std::bit_cast<float>(0x7fffffffu);
  } else if constexpr (std::is_same_v<T, double>) {
    return std::bit_cast<double>(0x7fffffffffffffffull);
  } else {
    return std::numeric_limits<T>::max();
  }
}

/// Network path body: sort 16-blocks in place (tail via a padded stack
/// block), then combine with the dispatched merge kernel, ping-ponging
/// through stack scratch.
template <typename T, typename Comp>
void sort_small_network(T* data, std::size_t n, Comp comp) {
  std::size_t begin = 0;
  for (; begin + 16 <= n; begin += 16) sort_network16(data + begin, comp);
  if (const std::size_t tail = n - begin; tail > 1) {
    T buf[16];
    const std::size_t width = tail <= 8 ? 8 : 16;
    std::copy(data + begin, data + n, buf);
    std::fill(buf + tail, buf + width, sort_pad_max<T>());
    if (width == 8)
      sort_network8(buf, comp);
    else
      sort_network16(buf, comp);
    std::copy(buf, buf + tail, data + begin);
  }
  if (n <= 16) return;
  T scratch[kSortNetworkMax];
  T* src = data;
  T* dst = scratch;
  for (std::size_t width = 16; width < n; width *= 2) {
    for (std::size_t b = 0; b < n; b += 2 * width) {
      const std::size_t mid = std::min(b + width, n);
      const std::size_t end = std::min(b + 2 * width, n);
      std::size_t i = 0, j = 0;
      merge_steps_auto(src + b, mid - b, src + mid, end - mid, &i, &j,
                       dst + b, end - b, comp);
    }
    std::swap(src, dst);
  }
  if (src != data) std::copy(src, src + n, data);
}

/// The insertion-sort fallback, byte- and op-count-identical to the
/// pre-network base case (instrumented runs depend on that). One compare
/// per probe, one move per shift and per placement, counted in locals
/// and added to `instr` once per call, as merge_steps() does: per-step
/// increments through `instr` would write the caller's per-lane OpCounts
/// array, whose lanes share cache lines.
template <typename T, typename Comp, typename Instr>
void insertion_sort_fallback(T* data, std::size_t n, Comp comp,
                             Instr* instr) {
  std::size_t compares = 0;
  std::size_t moves = 0;
  for (std::size_t i = 1; i < n; ++i) {
    T value = std::move(data[i]);
    std::size_t j = i;
    while (j > 0) {
      ++compares;
      if (!comp(value, data[j - 1])) break;
      data[j] = std::move(data[j - 1]);
      --j;
    }
    data[j] = std::move(value);
    moves += i - j + 1;
  }
  if constexpr (!std::is_same_v<Instr, NoInstrument>) {
    if (instr) {
      instr->compare(compares);
      instr->move(moves);
    }
  }
}

}  // namespace detail

/// Small-sort entry point for the merge-sort base cases: the network
/// path when the trait admits T/Comp, a vector kernel is selected, the
/// call is uninstrumented and n fits the stack scratch; insertion sort
/// otherwise. Both paths produce identical bytes for admitted types.
template <typename T, typename Comp = std::less<>,
          typename Instr = NoInstrument>
void sort_small_auto(T* data, std::size_t n, Comp comp = {},
                     Instr* instr = nullptr) {
  if (n <= 1) return;
  if constexpr (use_vector_merge_v<const T*, const T*, T*, Comp>) {
    if (instr == nullptr && n <= kSortNetworkMax &&
        is_vector_kernel(selected_kernel())) {
      detail::sort_small_network(data, n, comp);
      return;
    }
  }
  detail::insertion_sort_fallback(data, n, comp, instr);
}

}  // namespace mp::kernels
