#pragma once
/// \file tiled_merge.hpp
/// Two-level ("tiled") parallel merge with dynamic scheduling — the shape
/// the Merge Path idea took in its GPU descendants (grid-level partition
/// into fixed-size tiles, then per-tile work), adapted to CPU threads.
///
/// Algorithm 1 assigns each lane ONE contiguous slice, sized statically.
/// That is optimal when every merge step costs the same (Corollary 7), but
/// when per-element cost varies — expensive comparators, cold pages, a
/// shared machine — a straggler lane stalls the barrier. The tiled variant
/// cuts the path into many tiles of `tile_size` outputs and lets lanes
/// claim tiles from an atomic counter: the partition stays merge-path
/// exact (each tile's start point is one diagonal search), while
/// scheduling becomes work-stealing-ish at a cost of one extra search per
/// tile.
///
/// The tile boundary search exploits locality: a lane's previous end point
/// is the exact start of the next tile when the two are adjacent (no
/// search at all, so one lane costs what a sequential merge does), and a
/// hint otherwise (galloping search, diagonal_intersection_hinted),
/// dropping the per-tile cost from O(log min(m,n)) to O(log step).

#include <atomic>
#include <cstddef>
#include <functional>
#include <span>
#include <vector>

#include "core/instrument.hpp"
#include "core/merge_path.hpp"
#include "kernels/kernels.hpp"
#include "util/assert.hpp"
#include "util/threading.hpp"

namespace mp {

/// Diagonal intersection with a starting hint: exponential (galloping)
/// search outward from `hint_i` (a co-rank guess, e.g. the previous tile's
/// end), then the usual bisection inside the located bracket.
/// O(log |i* - hint_i|) comparisons instead of O(log min(m, n)).
template <typename IterA, typename IterB, typename Comp = std::less<>,
          typename Instr = NoInstrument>
std::size_t diagonal_intersection_hinted(IterA a, std::size_t m, IterB b,
                                         std::size_t n, std::size_t diag,
                                         std::size_t hint_i, Comp comp = {},
                                         Instr* instr = nullptr) {
  MP_ASSERT(diag <= m + n);
  const std::size_t lo_bound = diag > n ? diag - n : 0;
  const std::size_t hi_bound = diag < m ? diag : m;
  std::size_t hint = std::min(std::max(hint_i, lo_bound), hi_bound);

  // Predicate P(i): the answer is > i  <=>  B[diag-i-1] >= A[i]
  // (the same test diagonal_intersection brackets with).
  auto answer_above = [&](std::size_t i) {
    if constexpr (!std::is_same_v<Instr, NoInstrument>) {
      if (instr) instr->search_step();
    }
    return !comp(b[diag - i - 1], a[i]);
  };

  // The answer i* is the first index in [lo_bound, hi_bound] with
  // !answer_above(i*) (or hi_bound when none). Establish a bracket
  // [lo, hi] containing i* by galloping from the hint, then bisect.
  std::size_t lo = lo_bound, hi = hi_bound;
  if (hint < hi_bound && answer_above(hint)) {
    // i* in (hint, hi_bound]: gallop upward with doubling steps.
    lo = hint + 1;
    std::size_t step = 1;
    while (lo < hi) {
      const std::size_t probe = std::min(lo + step - 1, hi - 1);
      if (answer_above(probe)) {
        lo = probe + 1;
        step <<= 1;
      } else {
        hi = probe;
        break;
      }
    }
  } else if (hint > lo_bound) {
    // i* <= hint: gallop downward with doubling steps.
    hi = hint;
    std::size_t step = 1;
    while (hi > lo_bound) {
      const std::size_t probe =
          hi > lo_bound + step ? hi - step : lo_bound;
      if (answer_above(probe)) {
        lo = probe + 1;
        break;
      }
      hi = probe;
      step <<= 1;
    }
  }
  while (lo < hi) {
    const std::size_t mid = lo + (hi - lo) / 2;
    if (answer_above(mid))
      lo = mid + 1;
    else
      hi = mid;
  }
  return lo;
}

/// Tiled parallel merge: stable, identical output to parallel_merge().
/// Lanes dynamically claim tiles of `tile_size` output elements.
template <typename IterA, typename IterB, typename OutIter,
          typename Comp = std::less<>, typename Instr = NoInstrument>
void tiled_parallel_merge(IterA a, std::size_t m, IterB b, std::size_t n,
                          OutIter out, std::size_t tile_size = 4096,
                          Executor exec = {}, Comp comp = {},
                          std::span<Instr> instr = {}) {
  MP_CHECK(tile_size >= 1);
  const std::size_t total = m + n;
  unsigned lanes = exec.resolve_threads();
  MP_CHECK(instr.empty() || instr.size() >= lanes);
  if (total == 0) return;
  const std::size_t tiles = (total + tile_size - 1) / tile_size;
  if (tiles < lanes) lanes = static_cast<unsigned>(tiles);

  std::atomic<std::size_t> next_tile{0};
  exec.resolve_pool().parallel_for_lanes(lanes, [&](unsigned lane) {
    Instr* li = instr.empty() ? nullptr : &instr[lane];
    // The lane's cursor: the path point where its previous tile ended.
    std::size_t i = 0;
    std::size_t j = 0;
    bool have_hint = false;
    for (;;) {
      const std::size_t tile =
          next_tile.fetch_add(1, std::memory_order_relaxed);
      if (tile >= tiles) break;
      const std::size_t d0 = tile * tile_size;
      const std::size_t d1 = std::min(d0 + tile_size, total);
      if (i + j != d0) {
        i = have_hint
                ? diagonal_intersection_hinted(a, m, b, n, d0, i, comp, li)
                : diagonal_intersection(a, m, b, n, d0, comp, li);
        j = d0 - i;
      }
      kernels::merge_steps_auto(a, m, b, n, &i, &j,
                                out + static_cast<std::ptrdiff_t>(d0),
                                d1 - d0, comp, li);
      have_hint = true;
    }
  });
}

/// Convenience vector front-end.
template <typename T, typename Comp = std::less<>>
std::vector<T> tiled_parallel_merge(const std::vector<T>& a,
                                    const std::vector<T>& b,
                                    std::size_t tile_size = 4096,
                                    Executor exec = {}, Comp comp = {}) {
  std::vector<T> out(a.size() + b.size());
  tiled_parallel_merge(a.data(), a.size(), b.data(), b.size(), out.data(),
                       tile_size, exec, comp);
  return out;
}

}  // namespace mp
