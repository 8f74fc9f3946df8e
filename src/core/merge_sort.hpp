#pragma once
/// \file merge_sort.hpp
/// Sequential merge sort (from scratch) and the paper's Parallel Merge Sort
/// (Section III).
///
/// Parallel scheme: the input is split into p equal blocks, each sorted
/// sequentially by its own lane; then log2(p) rounds of pairwise merges
/// follow, every round parallelised with the Merge Path partition. Rather
/// than assigning whole pair-merges to threads (which would idle threads in
/// the late rounds when few arrays remain — exactly the problem the paper's
/// introduction describes), each round is *flattened*: the round's total
/// output is divided into p equal global slices, and every lane maps its
/// slice onto the (possibly several) pair-merges it overlaps using one
/// diagonal binary search per overlapped pair. Load balance is therefore
/// perfect in every round, including the last one where a single pair
/// remains and all p lanes cooperate on it — Algorithm 1 as a special case.
///
/// Complexity (paper): O(N/p·log N + log p·log N) time.
///
/// Stability: blocks are contiguous and pair merges are A-priority stable,
/// so the overall sort is stable.

#include <cstddef>
#include <cstring>
#include <functional>
#include <span>
#include <vector>

#include "core/instrument.hpp"
#include "core/merge_path.hpp"
#include "core/parallel_merge.hpp"
#include "core/sequential_merge.hpp"
#include "kernels/kernels.hpp"
#include "kernels/sort_network.hpp"
#include "obs/trace.hpp"
#include "util/assert.hpp"
#include "util/threading.hpp"

namespace mp {

/// Sorted-run descriptor inside a flat buffer: [begin, end).
struct Run {
  std::size_t begin = 0;
  std::size_t end = 0;
  std::size_t size() const { return end - begin; }
};

namespace detail {

inline constexpr std::size_t kInsertionSortThreshold = 24;

}  // namespace detail

/// Bottom-up stable merge sort of [data, data+n) using caller-provided
/// scratch of the same length. Runs of kInsertionSortThreshold are formed
/// by kernels::sort_small_auto — branchless 8/16 sorting networks plus a
/// kernel merge for the dispatch-certified key types, insertion sort for
/// everything else and for instrumented calls (see
/// kernels/sort_network.hpp) — then merged with doubling widths,
/// ping-ponging between the two buffers; the result always ends in
/// `data`.
template <typename T, typename Comp = std::less<>,
          typename Instr = NoInstrument>
void sequential_merge_sort(T* data, T* scratch, std::size_t n, Comp comp = {},
                           Instr* instr = nullptr) {
  if (n <= 1) return;

  for (std::size_t begin = 0; begin < n;
       begin += detail::kInsertionSortThreshold) {
    const std::size_t len =
        std::min(detail::kInsertionSortThreshold, n - begin);
    kernels::sort_small_auto(data + begin, len, comp, instr);
  }

  T* src = data;
  T* dst = scratch;
  for (std::size_t width = detail::kInsertionSortThreshold; width < n;
       width *= 2) {
    for (std::size_t begin = 0; begin < n; begin += 2 * width) {
      const std::size_t mid = std::min(begin + width, n);
      const std::size_t end = std::min(begin + 2 * width, n);
      std::size_t i = 0, j = 0;
      kernels::merge_steps_auto(src + begin, mid - begin, src + mid, end - mid,
                                &i, &j, dst + begin, end - begin, comp, instr);
    }
    std::swap(src, dst);
  }
  if (src != data) {
    for (std::size_t i = 0; i < n; ++i) data[i] = std::move(src[i]);
    if constexpr (!std::is_same_v<Instr, NoInstrument>) {
      if (instr) instr->move(n);
    }
  }
}

/// Convenience overload allocating its own scratch.
template <typename T, typename Comp = std::less<>>
void sequential_merge_sort(std::span<T> data, Comp comp = {}) {
  std::vector<T> scratch(data.size());
  sequential_merge_sort(data.data(), scratch.data(), data.size(), comp);
}

namespace detail {

/// Engine of one flattened merge round, parameterised over the job runner
/// so the plain path (ThreadPool::parallel_for_lanes) and the fault-aware
/// path (core/recovery.hpp's run_lanes_with_recovery) share the partition
/// math and lane body. `run_job(lanes, fn)` must execute fn(lane) for every
/// lane in [0, lanes); the lane body only reads `src` and writes a disjoint
/// slice of `dst`, so re-executing a lane is idempotent.
template <typename T, typename Comp, typename Instr, typename RunJob>
std::vector<Run> merge_round_impl(const T* src, T* dst,
                                  const std::vector<Run>& runs,
                                  unsigned lanes, Comp comp,
                                  std::span<Instr> instr, RunJob&& run_job) {
  MP_CHECK(!runs.empty());
  // Pair descriptors: pair t merges runs[2t] (A) and runs[2t+1] (B, possibly
  // missing). Output starts at runs[2t].begin since runs tile the buffer.
  struct Pair {
    Run a, b;
    std::size_t out_begin, out_end;
  };
  std::vector<Pair> pairs;
  std::vector<Run> merged;
  pairs.reserve((runs.size() + 1) / 2);
  for (std::size_t t = 0; 2 * t < runs.size(); ++t) {
    const Run a = runs[2 * t];
    const Run b = 2 * t + 1 < runs.size() ? runs[2 * t + 1]
                                          : Run{a.end, a.end};
    MP_ASSERT(b.begin == a.end);
    pairs.push_back(Pair{a, b, a.begin, b.end});
    merged.push_back(Run{a.begin, b.end});
  }
  const std::size_t total = runs.back().end - runs.front().begin;
  const std::size_t base = runs.front().begin;
  MP_CHECK(instr.empty() || instr.size() >= lanes);
  obs::Span round_span("sort.round", "runs", runs.size());

  run_job(lanes, [&](unsigned lane) {
    obs::Span span("sort.round_slice", "lane", lane);
    Instr* li = instr.empty() ? nullptr : &instr[lane];
    const std::size_t g0 = base + lane * total / lanes;
    const std::size_t g1 = base + (lane + 1ull) * total / lanes;
    if (g0 == g1) return;
    // First pair whose output interval contains g0 (pairs are sorted by
    // out_begin and tile [base, base+total)).
    std::size_t t = 0;
    {
      std::size_t lo = 0, hi = pairs.size() - 1;
      while (lo < hi) {
        const std::size_t mid = lo + (hi - lo + 1) / 2;
        if (pairs[mid].out_begin <= g0)
          lo = mid;
        else
          hi = mid - 1;
      }
      t = lo;
    }
    for (; t < pairs.size() && pairs[t].out_begin < g1; ++t) {
      const Pair& pr = pairs[t];
      const std::size_t s0 = std::max(g0, pr.out_begin);
      const std::size_t s1 = std::min(g1, pr.out_end);
      if (s0 >= s1) continue;
      const std::size_t m = pr.a.size();
      const std::size_t n2 = pr.b.size();
      const std::size_t local_diag = s0 - pr.out_begin;
      PathPoint start;
      {
        obs::Span search_span("sort.partition", "lane", lane);
        start = path_point_on_diagonal(src + pr.a.begin, m, src + pr.b.begin,
                                       n2, local_diag, comp, li);
      }
      std::size_t i = start.i;
      std::size_t j = start.j;
      kernels::merge_steps_auto(src + pr.a.begin, m, src + pr.b.begin, n2, &i,
                                &j, dst + s0, s1 - s0, comp, li);
    }
  });
  return merged;
}

}  // namespace detail

/// One flattened round: merges adjacent pairs of `runs` (runs must tile
/// [0, n) contiguously) from `src` into `dst`, dividing the round's total
/// output equally among `lanes` lanes. A trailing unpaired run is copied.
/// Returns the merged run list.
///
/// This is the building block shared by parallel_merge_sort and the
/// cache-efficient sort; it is exposed for tests.
template <typename T, typename Comp = std::less<>,
          typename Instr = NoInstrument>
std::vector<Run> merge_round_balanced(const T* src, T* dst,
                                      const std::vector<Run>& runs,
                                      Executor exec = {}, Comp comp = {},
                                      std::span<Instr> instr = {}) {
  const unsigned lanes = exec.resolve_threads();
  return detail::merge_round_impl(
      src, dst, runs, lanes, comp, instr,
      [&](unsigned l, const std::function<void(unsigned)>& fn) {
        exec.resolve_pool().parallel_for_lanes(l, fn);
      });
}

namespace detail {

/// Section III's lane bodies — p block sorts, then log2(p) flattened
/// merge rounds ping-ponging between `data` and `scratch` — parameterised
/// over the lane runner like merge_round_impl. Inputs too small to give
/// every lane a full base-case run sort as one lane. Returns the buffer
/// holding the sorted result; copying it back into `data` is the
/// caller's.
template <typename T, typename Comp, typename Instr, typename RunLanes>
T* parallel_merge_sort_impl(T* data, T* scratch, std::size_t n,
                            unsigned lanes, Comp comp, std::span<Instr> instr,
                            RunLanes&& run_lanes) {
  if (n <= lanes * kInsertionSortThreshold) lanes = 1;
  MP_CHECK(instr.empty() || instr.size() >= lanes);

  // Phase 1: p blocks, each sorted sequentially by its own lane.
  std::vector<Run> runs(lanes);
  run_lanes(lanes, [&](unsigned lane) {
    obs::Span span("sort.block", "lane", lane);
    Instr* li = instr.empty() ? nullptr : &instr[lane];
    const std::size_t begin = lane * n / lanes;
    const std::size_t end = (lane + 1ull) * n / lanes;
    runs[lane] = Run{begin, end};
    sequential_merge_sort(data + begin, scratch + begin, end - begin, comp,
                          li);
  });

  // Phase 2: log2(p) flattened merge rounds, ping-ponging buffers. The
  // round-index counter brackets each sort.round span so a trace viewer
  // (and check_trace.py) can attribute per-lane imbalance to the round
  // that produced it — late rounds merge few, long runs and are where
  // skewed inputs bite.
  T* src = data;
  T* dst = scratch;
  std::uint64_t round = 0;
  while (runs.size() > 1) {
    obs::Span::counter("sort.round_index", round++);
    runs = merge_round_impl(src, dst, runs, lanes, comp, instr, run_lanes);
    std::swap(src, dst);
  }
  return src;
}

}  // namespace detail

/// The paper's Parallel Merge Sort (Section III). Sorts [data, data+n)
/// stably using `exec`. `instr`, when provided, must cover
/// exec.resolve_threads() lanes and accumulates per-lane operation counts
/// across the base sorts and all merge rounds.
template <typename T, typename Comp = std::less<>,
          typename Instr = NoInstrument>
void parallel_merge_sort(T* data, std::size_t n, Executor exec = {},
                         Comp comp = {}, std::span<Instr> instr = {}) {
  const unsigned lanes = exec.resolve_threads();
  if (n <= 1) return;
  obs::Span sort_span("sort", "n", n);
  std::vector<T> scratch(n);
  const auto run_lanes = detail::pool_runner(exec.resolve_pool());
  T* src = detail::parallel_merge_sort_impl(data, scratch.data(), n, lanes,
                                            comp, instr, run_lanes);
  if (src != data) {
    // Result landed in scratch: parallel copy-back (counted as moves).
    run_lanes(lanes, [&](unsigned lane) {
      obs::Span span("sort.copyback", "lane", lane);
      const std::size_t begin = lane * n / lanes;
      const std::size_t end = (lane + 1ull) * n / lanes;
      for (std::size_t i = begin; i < end; ++i) data[i] = std::move(src[i]);
      if constexpr (!std::is_same_v<Instr, NoInstrument>) {
        if (!instr.empty()) instr[lane].move(end - begin);
      }
    });
  }
}

/// Convenience span front-end.
template <typename T, typename Comp = std::less<>>
void parallel_merge_sort(std::span<T> data, Executor exec = {},
                         Comp comp = {}) {
  parallel_merge_sort(data.data(), data.size(), exec, comp);
}

}  // namespace mp
