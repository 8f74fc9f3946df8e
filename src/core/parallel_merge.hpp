#pragma once
/// \file parallel_merge.hpp
/// Algorithm 1 of the paper — Parallel Merge.
///
/// Each of p lanes independently (1) computes its starting diagonal
/// (k·(|A|+|B|)/p), (2) binary-searches the intersection of the merge path
/// with that cross diagonal (merge_path.hpp), and (3) runs (|A|+|B|)/p
/// steps of sequential merge writing to a disjoint slice of the output.
/// There is no inter-lane communication; the trailing barrier is the
/// fork-join of ThreadPool::parallel_for_lanes.
///
/// Complexity (paper, Section III): time O(N/p + log N), work
/// O(N + p·log N) for N = |A|+|B|.
///
/// The lane body lives once, in detail::parallel_merge_impl, parameterised
/// over the lane runner: parallel_merge() passes the ThreadPool fork-join,
/// resilient_parallel_merge() (core/recovery.hpp) the recovery engine.
/// p = 1 runs the same body with one lane, inline on the caller.
///
/// Instrumented variants fill one OpCounts per lane; the PRAM simulator
/// turns those into modelled parallel time (DESIGN.md S9/E1).

#include <cstddef>
#include <functional>
#include <span>
#include <vector>

#include "core/instrument.hpp"
#include "core/merge_path.hpp"
#include "kernels/kernels.hpp"
#include "obs/trace.hpp"
#include "util/assert.hpp"
#include "util/threading.hpp"

namespace mp {

/// Work descriptor for one lane of Algorithm 1. Exposed so that callers
/// embedding the merge in larger parallel phases (merge sort's flattened
/// rounds) can compute lane slices themselves.
struct MergeSlice {
  std::size_t a_begin = 0;  ///< first element of A this lane consumes
  std::size_t b_begin = 0;  ///< first element of B this lane consumes
  std::size_t out_begin = 0;  ///< first output position
  std::size_t steps = 0;      ///< number of merge steps (output elements)
};

/// Computes lane `lane` of `lanes`' slice of the merge of (m, n): the
/// starting diagonal, its path intersection, and the step count. Pure
/// function of the inputs; O(log min(m,n)) comparisons.
template <typename IterA, typename IterB, typename Comp = std::less<>,
          typename Instr = NoInstrument>
MergeSlice merge_slice_for_lane(IterA a, std::size_t m, IterB b,
                                std::size_t n, unsigned lane, unsigned lanes,
                                Comp comp = {}, Instr* instr = nullptr) {
  MP_CHECK(lanes >= 1 && lane < lanes);
  const std::size_t total = m + n;
  const std::size_t diag_lo = lane * total / lanes;
  const std::size_t diag_hi = (lane + 1ull) * total / lanes;
  const PathPoint start =
      path_point_on_diagonal(a, m, b, n, diag_lo, comp, instr);
  return MergeSlice{start.i, start.j, diag_lo, diag_hi - diag_lo};
}

namespace detail {

/// The lane runner of the plain entry points: fn(lane) for every lane
/// through the ThreadPool fork-join. One lane runs inline on the caller
/// without touching the pool, as detail::recovering_runner does, so p = 1
/// never draws a lane fault from a pool's fault plan.
inline auto pool_runner(ThreadPool& pool) {
  return [&pool](unsigned lanes, const std::function<void(unsigned)>& fn) {
    if (lanes == 1) {
      fn(0);
      return;
    }
    pool.parallel_for_lanes(lanes, fn);
  };
}

/// Algorithm 1's lane body: diagonal search, then the lane's steps of the
/// dispatched merge kernel. `run_lanes(lanes, fn)` must execute fn(lane)
/// for every lane in [0, lanes); a lane only reads A and B and writes a
/// disjoint output slice, so re-executing a lane is idempotent. Sizes with
/// no more elements than lanes run as one lane.
template <typename IterA, typename IterB, typename OutIter, typename Comp,
          typename Instr, typename RunLanes>
void parallel_merge_impl(IterA a, std::size_t m, IterB b, std::size_t n,
                         OutIter out, unsigned lanes, Comp comp,
                         std::span<Instr> instr, RunLanes&& run_lanes) {
  MP_CHECK(instr.empty() || instr.size() >= lanes);
  obs::Span merge_span("merge", "n", m + n);
  if (m + n <= lanes) lanes = 1;

  run_lanes(lanes, [&](unsigned lane) {
    Instr* li = instr.empty() ? nullptr : &instr[lane];
    MergeSlice slice;
    {
      obs::Span span("merge.partition", "lane", lane);
      slice = merge_slice_for_lane(a, m, b, n, lane, lanes, comp, li);
    }
    obs::Span span("merge.segment", "lane", lane);
    std::size_t i = slice.a_begin;
    std::size_t j = slice.b_begin;
    kernels::merge_steps_auto(a, m, b, n, &i, &j,
                              out + static_cast<std::ptrdiff_t>(slice.out_begin),
                              slice.steps, comp, li);
  });
}

}  // namespace detail

/// Algorithm 1 with an explicit executor. Merges sorted [a, a+m) and
/// [b, b+n) into [out, out+m+n); stable with A-priority. `instr`, when
/// non-null, must point to exec.resolve_threads() OpCounts entries.
template <typename IterA, typename IterB, typename OutIter,
          typename Comp = std::less<>, typename Instr = NoInstrument>
void parallel_merge(IterA a, std::size_t m, IterB b, std::size_t n,
                    OutIter out, Executor exec = {}, Comp comp = {},
                    std::span<Instr> instr = {}) {
  detail::parallel_merge_impl(a, m, b, n, out, exec.resolve_threads(), comp,
                              instr, detail::pool_runner(exec.resolve_pool()));
}

/// Convenience vector front-end: returns the merged vector.
template <typename T, typename Comp = std::less<>>
std::vector<T> parallel_merge(const std::vector<T>& a, const std::vector<T>& b,
                              Executor exec = {}, Comp comp = {}) {
  std::vector<T> out(a.size() + b.size());
  parallel_merge(a.data(), a.size(), b.data(), b.size(), out.data(), exec,
                 comp);
  return out;
}

}  // namespace mp
