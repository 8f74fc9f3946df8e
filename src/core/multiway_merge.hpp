#pragma once
/// \file multiway_merge.hpp
/// k-way merging built on the Merge Path machinery — the natural extension
/// of the paper's two-way algorithm (and the direction its successors, e.g.
/// GPU Merge Path, took).
///
/// Three components:
///  - LoserTree: classic sequential k-way merge in O(N log k) comparisons;
///    the per-lane kernel of the parallel k-way merge and a useful public
///    utility in its own right (external-sort style run merging).
///  - multiway_select(): multisequence selection — finds, for a global rank
///    r, the unique stable split positions across the k runs such that the
///    union of the prefixes is exactly the r smallest elements (ties broken
///    by run index, then position, consistent with the library's A-priority
///    stability). This generalises the two-array co-rank that
///    diagonal_intersection computes.
///  - parallel_multiway_merge(): p lanes; lane k spans global output ranks
///    [k·N/p, (k+1)·N/p), locates its start with multiway_select(), and
///    merges its quota with a LoserTree. Perfect load balance, no
///    inter-lane communication — Algorithm 1 generalised to k inputs.

#include <concepts>
#include <cstddef>
#include <functional>
#include <limits>
#include <ranges>
#include <span>
#include <type_traits>
#include <vector>

#include "core/instrument.hpp"
#include "core/merge_sort.hpp"
#include "core/parallel_merge.hpp"
#include "obs/trace.hpp"
#include "util/assert.hpp"
#include "util/threading.hpp"

namespace mp {

inline constexpr std::size_t kNone = std::numeric_limits<std::size_t>::max();

/// One in-memory LoserTree input: the [first, last) range still to be
/// consumed.
template <typename T>
struct LoserTreeCursor {
  const T* first = nullptr;
  const T* last = nullptr;

  bool empty() const { return first == last; }
  const T& peek() const { return *first; }
  const T& next() { return *first++; }
};

/// A tournament (loser) tree over k sources. Pop order is stable: ties are
/// won by the lower run index. A Source is read only through empty(),
/// peek() and next(): an in-memory Cursor by value, or a pointer to a
/// streaming reader (the pipeline's device-backed AsyncRunReader).
template <typename T, typename Comp = std::less<>,
          typename Source = LoserTreeCursor<T>>
class LoserTree {
 public:
  using Cursor = LoserTreeCursor<T>;

  explicit LoserTree(std::vector<Source> runs, Comp comp = {})
      : runs_(std::move(runs)), comp_(comp) {
    k_ = runs_.size();
    slots_ = 1;
    while (slots_ < k_) slots_ *= 2;
    tree_.assign(slots_, kNone);
    if (k_ == 0) return;
    // Two-pass build: compute the winner at every internal node bottom-up,
    // storing the loser; the overall winner ends up in winner_.
    std::vector<std::size_t> winners(2 * slots_, kNone);
    for (std::size_t s = 0; s < slots_; ++s)
      winners[slots_ + s] = s < k_ ? s : kNone;
    for (std::size_t node = slots_ - 1; node >= 1; --node) {
      const std::size_t w1 = winners[2 * node];
      const std::size_t w2 = winners[2 * node + 1];
      const std::size_t win = play(w1, w2);
      tree_[node] = win == w1 ? w2 : w1;  // store the loser
      winners[node] = win;
    }
    winner_ = winners[1];
  }

  bool empty() const { return winner_ == kNone || exhausted(winner_); }

  /// Returns the smallest remaining element and advances its source: a
  /// reference into the range for a Cursor, whatever next() returns
  /// otherwise.
  decltype(auto) pop() {
    MP_ASSERT(!empty());
    const std::size_t run = winner_;
    decltype(auto) value = deref(runs_[run]).next();
    replay(run);
    return value;
  }

  /// Pops exactly `steps` elements into out; counts ~log2(k) comparisons
  /// and one move per element on the instrument.
  template <typename OutIter, typename Instr = NoInstrument>
  OutIter pop_n(OutIter out, std::size_t steps, Instr* instr = nullptr) {
    for (std::size_t s = 0; s < steps; ++s) {
      *out++ = pop();
      if constexpr (!std::is_same_v<Instr, NoInstrument>) {
        if (instr) {
          instr->move();
          instr->compare(tree_levels());
        }
      }
    }
    return out;
  }

  std::size_t tree_levels() const {
    std::size_t levels = 0, s = slots_;
    while (s > 1) {
      s /= 2;
      ++levels;
    }
    return levels;
  }

 private:
  /// The reader behind a stored Source (a pointer Source is followed).
  template <typename S>
  static auto& deref(S& source) {
    if constexpr (std::is_pointer_v<Source>) {
      return *source;
    } else {
      return source;
    }
  }

  bool exhausted(std::size_t run) const {
    return run >= k_ || deref(runs_[run]).empty();
  }

  /// Winner between two run indices: the one with the smaller head; an
  /// exhausted/absent run always loses; ties go to the lower run index.
  std::size_t play(std::size_t x, std::size_t y) {
    const bool xe = exhausted(x);
    const bool ye = exhausted(y);
    if (xe || ye) {
      if (xe && ye) return x < y ? x : y;
      return xe ? y : x;
    }
    const T& xv = deref(runs_[x]).peek();
    const T& yv = deref(runs_[y]).peek();
    if (comp_(xv, yv)) return x;
    if (comp_(yv, xv)) return y;
    return x < y ? x : y;  // stable: lower run wins ties
  }

  /// After consuming from `run`, replay its path to the root: the new head
  /// of `run` is matched against the stored losers level by level.
  void replay(std::size_t run) {
    std::size_t contender = run;
    for (std::size_t node = (slots_ + run) / 2; node >= 1; node /= 2) {
      const std::size_t winner = play(tree_[node], contender);
      if (winner != contender) std::swap(tree_[node], contender);
    }
    winner_ = contender;
  }

  std::vector<Source> runs_;
  Comp comp_;
  std::size_t k_ = 0;
  std::size_t slots_ = 1;
  std::vector<std::size_t> tree_;  // tree_[node] = losing run at that match
  std::size_t winner_ = kNone;
};

/// Multisequence selection: returns positions pos[t] (one per run, with
/// sum(pos) == rank) such that the prefixes [0, pos[t]) of the runs are
/// exactly the `rank` smallest elements of the union under the stable
/// order (value, run index, position). The runs are given as their sizes
/// plus `key(t, i)`, element i of run t, so the same loop selects over
/// in-memory spans and over device-backed runs.
///
/// Algorithm: greedy block advancement. While `remaining` elements are
/// still to be claimed, advance — by up to c = max(1, remaining/(2·k_act))
/// elements — the run whose c-th unclaimed element is smallest (ties to the
/// lowest run index). Safety: the claimed block's elements all stably
/// precede that candidate value v, and across the k_act active runs at most
/// k_act·c <= remaining/2 + k_act <= remaining unclaimed elements stably
/// precede v, so the block lies inside the remaining target prefix.
/// Runs in O(k·(k + log remaining)) comparisons.
///
/// `from` (empty = zeros) is where the claim starts: it must itself be the
/// stable co-rank of some rank r0 <= rank, e.g. an earlier call's result.
/// Every element it claims stably precedes every unclaimed one, so the
/// argument above holds on the unclaimed suffixes and the result is the
/// same unique co-rank a search from zero returns, with `remaining`
/// starting at rank - r0.
template <typename Sizes, typename Key, typename Comp = std::less<>,
          typename Instr = NoInstrument>
  requires std::convertible_to<std::ranges::range_value_t<const Sizes>,
                               std::size_t>
std::vector<std::size_t> multiway_select(const Sizes& sizes, std::size_t rank,
                                         Key key, Comp comp = {},
                                         std::vector<std::size_t> from = {},
                                         Instr* instr = nullptr) {
  const std::size_t k = std::ranges::size(sizes);
  std::vector<std::size_t> pos = std::move(from);
  if (pos.empty()) pos.assign(k, 0);
  MP_CHECK(pos.size() == k);
  std::size_t total = 0;
  std::size_t claimed = 0;
  for (std::size_t t = 0; t < k; ++t) {
    MP_CHECK(pos[t] <= sizes[t]);
    total += sizes[t];
    claimed += pos[t];
  }
  MP_CHECK(claimed <= rank && rank <= total);

  std::size_t remaining = rank - claimed;
  while (remaining > 0) {
    std::size_t active = 0;
    for (std::size_t t = 0; t < k; ++t)
      if (pos[t] < sizes[t]) ++active;
    MP_ASSERT(active > 0);
    const std::size_t c =
        remaining >= 2 * active ? remaining / (2 * active) : 1;

    // The run whose c'-th unclaimed element (c' = min(c, available)) is
    // smallest under (value, run index). A run shorter than c competes with
    // its final element and is advanced by fewer than c.
    std::size_t best = kNone;
    std::size_t best_take = 0;
    for (std::size_t t = 0; t < k; ++t) {
      const std::size_t avail = sizes[t] - pos[t];
      if (avail == 0) continue;
      const std::size_t take = c < avail ? c : avail;
      if constexpr (!std::is_same_v<Instr, NoInstrument>) {
        if (instr) instr->search_step();
      }
      if (best == kNone || comp(key(t, pos[t] + take - 1),
                                key(best, pos[best] + best_take - 1))) {
        best = t;
        best_take = take;
      }
    }
    const std::size_t take = best_take < remaining ? best_take : remaining;
    pos[best] += take;
    remaining -= take;
  }
  return pos;
}

/// Span front-end: selection from zero over in-memory runs.
template <typename T, typename Comp = std::less<>,
          typename Instr = NoInstrument>
std::vector<std::size_t> multiway_select(
    std::span<const std::span<const T>> runs, std::size_t rank,
    Comp comp = {}, Instr* instr = nullptr) {
  return multiway_select(
      std::views::transform(runs,
                            [](std::span<const T> r) { return r.size(); }),
      rank,
      [runs](std::size_t t, std::size_t i) -> const T& { return runs[t][i]; },
      comp, {}, instr);
}

namespace detail {

/// The k-way lane body: lane k spans global output ranks
/// [k·N/p, (k+1)·N/p), locates its start with multiway_select() and pops
/// its quota from a LoserTree. Parameterised over the lane runner like
/// parallel_merge_impl; lanes read const runs and write disjoint output
/// spans, so re-executing a lane is idempotent.
template <typename T, typename Comp, typename Instr, typename RunLanes>
void parallel_multiway_merge_impl(std::span<const std::span<const T>> runs,
                                  T* out, unsigned lanes, Comp comp,
                                  std::span<Instr> instr,
                                  RunLanes&& run_lanes) {
  std::size_t total = 0;
  for (const auto& r : runs) total += r.size();
  if (total == 0) return;
  MP_CHECK(instr.empty() || instr.size() >= lanes);
  obs::Span mwm_span("mwm", "n", total);

  if (runs.size() == 2 && instr.empty()) {
    // Pairwise fallback: two runs are exactly Algorithm 1, whose diagonal
    // search is cheaper than multiway selection and whose per-lane kernel
    // can take the dispatched vector path (LoserTree pops are inherently
    // scalar). Lower-run-wins tie breaking IS A-priority, so the output is
    // identical. Instrumented calls keep the LoserTree so the modelled
    // log-k compare counts stay honest.
    parallel_merge_impl(runs[0].data(), runs[0].size(), runs[1].data(),
                        runs[1].size(), out, lanes, comp, instr, run_lanes);
    return;
  }

  run_lanes(lanes, [&](unsigned lane) {
    Instr* li = instr.empty() ? nullptr : &instr[lane];
    const std::size_t r0 = lane * total / lanes;
    const std::size_t r1 = (lane + 1ull) * total / lanes;
    if (r0 == r1) return;
    std::vector<std::size_t> start;
    {
      obs::Span span("mwm.select", "lane", lane);
      start = multiway_select(runs, r0, comp, li);
    }
    obs::Span span("mwm.merge", "lane", lane);
    std::vector<typename LoserTree<T, Comp>::Cursor> cursors(runs.size());
    for (std::size_t t = 0; t < runs.size(); ++t) {
      cursors[t] = {runs[t].data() + start[t],
                    runs[t].data() + runs[t].size()};
    }
    LoserTree<T, Comp> tree(std::move(cursors), comp);
    tree.pop_n(out + r0, r1 - r0, li);
  });
}

}  // namespace detail

/// Merges k sorted runs into `out` using p lanes; stable across runs (lower
/// run index wins ties). Time O((N/p)·log k) per lane plus the selection.
template <typename T, typename Comp = std::less<>,
          typename Instr = NoInstrument>
void parallel_multiway_merge(std::span<const std::span<const T>> runs, T* out,
                             Executor exec = {}, Comp comp = {},
                             std::span<Instr> instr = {}) {
  detail::parallel_multiway_merge_impl(
      runs, out, exec.resolve_threads(), comp, instr,
      detail::pool_runner(exec.resolve_pool()));
}

/// One-pass multiway merge sort: p sequentially-sorted blocks fused by a
/// single parallel k-way merge (k = p), instead of the log2(p) pairwise
/// rounds of parallel_merge_sort. Two total passes over the data versus
/// 1 + log2(p) — the win the external-sort literature calls "fan-in": it
/// trades the merge tree's streaming passes for the loser tree's log k
/// compare factor. bench/fig_sort reports the crossover under the PRAM
/// model. Stable.
template <typename T, typename Comp = std::less<>,
          typename Instr = NoInstrument>
void multiway_merge_sort(T* data, std::size_t n, Executor exec = {},
                         Comp comp = {}, std::span<Instr> instr = {}) {
  const unsigned lanes = exec.resolve_threads();
  if (n <= 1) return;
  obs::Span sort_span("mwm.sort", "n", n);
  std::vector<T> scratch(n);
  if (lanes == 1 || n <= lanes * 32) {
    Instr* li = instr.empty() ? nullptr : &instr[0];
    sequential_merge_sort(data, scratch.data(), n, comp, li);
    return;
  }

  // Phase 1: p blocks, each sorted by its own lane (as in Section III).
  std::vector<std::span<const T>> runs(lanes);
  exec.resolve_pool().parallel_for_lanes(lanes, [&](unsigned lane) {
    obs::Span span("mwm.block", "lane", lane);
    Instr* li = instr.empty() ? nullptr : &instr[lane];
    const std::size_t begin = lane * n / lanes;
    const std::size_t end = (lane + 1ull) * n / lanes;
    sequential_merge_sort(data + begin, scratch.data() + begin, end - begin,
                          comp, li);
    runs[lane] = std::span<const T>(data + begin, end - begin);
  });

  // Phase 2: ONE k-way merge of all blocks into scratch, then a parallel
  // copy back.
  parallel_multiway_merge(std::span<const std::span<const T>>(runs),
                          scratch.data(), exec, comp, instr);
  exec.resolve_pool().parallel_for_lanes(lanes, [&](unsigned lane) {
    const std::size_t begin = lane * n / lanes;
    const std::size_t end = (lane + 1ull) * n / lanes;
    for (std::size_t i = begin; i < end; ++i) data[i] = std::move(scratch[i]);
    if constexpr (!std::is_same_v<Instr, NoInstrument>) {
      if (!instr.empty()) instr[lane].move(end - begin);
    }
  });
}

/// Span front-end.
template <typename T, typename Comp = std::less<>>
void multiway_merge_sort(std::span<T> data, Executor exec = {},
                         Comp comp = {}) {
  multiway_merge_sort(data.data(), data.size(), exec, comp);
}

/// Convenience front-end for vector-of-vectors input.
template <typename T, typename Comp = std::less<>>
std::vector<T> parallel_multiway_merge(const std::vector<std::vector<T>>& runs,
                                       Executor exec = {}, Comp comp = {}) {
  std::vector<std::span<const T>> views;
  views.reserve(runs.size());
  std::size_t total = 0;
  for (const auto& r : runs) {
    views.emplace_back(r.data(), r.size());
    total += r.size();
  }
  std::vector<T> out(total);
  parallel_multiway_merge(std::span<const std::span<const T>>(views),
                          out.data(), exec, comp);
  return out;
}

}  // namespace mp
