#pragma once
/// \file sequential_merge.hpp
/// Sequential merge kernels.
///
/// Main kernels:
///  - merge_steps(): merges exactly `steps` output elements starting from
///    given positions in A and B. This is the "(|A|+|B|)/p steps of
///    sequential merge" primitive of Algorithm 1 and the "L/p steps"
///    primitive of Algorithm 2. Handles either input running out.
///  - sequential_merge(): the classic full two-array merge (the paper's
///    single-thread baseline for the 6%-overhead remark of Section VI).
///
/// All kernels are stable with A-priority (ties take from A), matching the
/// Merge Matrix definition M[i,j] = A[i] > B[j].

#include <algorithm>
#include <cstddef>
#include <functional>
#include <type_traits>

#include "core/instrument.hpp"
#include "util/assert.hpp"

namespace mp {

/// Merges exactly `steps` elements, reading from positions *a_pos of A and
/// *b_pos of B, writing to `out`. Updates a_pos/b_pos to the consumed
/// counts. The caller guarantees steps <= (m - *a_pos) + (n - *b_pos).
template <typename IterA, typename IterB, typename OutIter,
          typename Comp = std::less<>, typename Instr = NoInstrument>
OutIter merge_steps(IterA a, std::size_t m, IterB b, std::size_t n,
                    std::size_t* a_pos, std::size_t* b_pos, OutIter out,
                    std::size_t steps, Comp comp = {},
                    Instr* instr = nullptr) {
  std::size_t i = *a_pos;
  std::size_t j = *b_pos;
  MP_ASSERT(steps <= (m - i) + (n - j));
  std::size_t remaining = steps;
  // Main loop: both inputs non-empty. Both sides hold at least `safe`
  // more elements, so the next `safe` steps need no bounds checks.
  while (remaining > 0 && i < m && j < n) {
    std::size_t safe = std::min({remaining, m - i, n - j});
    remaining -= safe;
    for (; safe > 0; --safe) {
      if (comp(b[j], a[i])) {
        *out++ = b[j++];
      } else {
        *out++ = a[i++];  // ties take A: stability
      }
    }
  }
  // One compare per main-loop step and one move per step, counted once per
  // call: per-step increments through `instr` turn into memory updates
  // when the kernel is inlined into a lane body.
  const std::size_t compares = steps - remaining;
  // Tail: one side exhausted.
  while (remaining > 0 && i < m) {
    *out++ = a[i++];
    --remaining;
  }
  while (remaining > 0 && j < n) {
    *out++ = b[j++];
    --remaining;
  }
  if constexpr (!std::is_same_v<Instr, NoInstrument>) {
    if (instr) {
      instr->compare(compares);
      instr->move(steps);
    }
  }
  MP_ASSERT(remaining == 0);
  *a_pos = i;
  *b_pos = j;
  return out;
}

/// Classic full merge of [a, a+m) and [b, b+n) into `out`; returns the end
/// of the output. Stable with A-priority. This is the sequential baseline
/// used in experiment E2 (the paper's "6% single-thread overhead" remark).
template <typename IterA, typename IterB, typename OutIter,
          typename Comp = std::less<>, typename Instr = NoInstrument>
OutIter sequential_merge(IterA a, std::size_t m, IterB b, std::size_t n,
                         OutIter out, Comp comp = {},
                         Instr* instr = nullptr) {
  std::size_t i = 0, j = 0;
  return merge_steps(a, m, b, n, &i, &j, out, m + n, comp, instr);
}

/// The "truly sequential merge" of the paper's Section VI remark: the
/// textbook two-pointer merge with no step budget and no resumable
/// positions — the leanest loop a sequential implementation can run.
/// Algorithm 1 with p = 1 executes kernels::merge_steps_auto() instead,
/// which carries a remaining-steps counter and resumable cursors; the
/// difference between the two is what experiment E2 measures (the paper
/// reports ~6% including OpenMP overhead).
template <typename IterA, typename IterB, typename OutIter,
          typename Comp = std::less<>>
OutIter classic_merge(IterA a, std::size_t m, IterB b, std::size_t n,
                      OutIter out, Comp comp = {}) {
  std::size_t i = 0, j = 0;
  while (i < m && j < n) {
    if (comp(b[j], a[i]))
      *out++ = b[j++];
    else
      *out++ = a[i++];
  }
  while (i < m) *out++ = a[i++];
  while (j < n) *out++ = b[j++];
  return out;
}

/// Run-adaptive ("galloping") merge: instead of deciding element by
/// element, each iteration finds the whole span of consecutive winners
/// from one input by exponential + binary search, then block-copies it.
/// On run-structured inputs (the organ-pipe workload, pre-sorted
/// fragments, time-series bursts) this does O(runs · log(run_len))
/// comparisons instead of O(N); on perfectly interleaved input it costs
/// at most ~2 comparisons per element — the trade the ablation bench
/// (bench/ablation_segment's kernel companion in bench_micro) quantifies.
/// Stable with A-priority, identical output to sequential_merge().
template <typename IterA, typename IterB, typename OutIter,
          typename Comp = std::less<>, typename Instr = NoInstrument>
OutIter adaptive_merge(IterA a, std::size_t m, IterB b, std::size_t n,
                       OutIter out, Comp comp = {}, Instr* instr = nullptr) {
  auto note = [&](std::uint64_t compares, std::uint64_t moves) {
    if constexpr (!std::is_same_v<Instr, NoInstrument>) {
      if (instr) {
        instr->compare(compares);
        instr->move(moves);
      }
    }
  };
  std::size_t i = 0, j = 0;
  while (i < m && j < n) {
    if (comp(b[j], a[i])) {
      // B wins: find the span of B strictly below a[i].
      // Exponential probe for the first B index NOT below a[i]...
      std::size_t lo = j + 1, hi = n, step = 1;
      std::uint64_t probes = 1;  // the deciding comparison above
      while (lo < hi) {
        const std::size_t probe = std::min(lo + step - 1, hi - 1);
        ++probes;
        if (comp(b[probe], a[i])) {
          lo = probe + 1;
          step <<= 1;
        } else {
          hi = probe;
          break;
        }
      }
      while (lo < hi) {  // binary refine inside the bracket
        const std::size_t mid = lo + (hi - lo) / 2;
        ++probes;
        if (comp(b[mid], a[i]))
          lo = mid + 1;
        else
          hi = mid;
      }
      note(probes, lo - j);
      for (; j < lo; ++j) *out++ = b[j];
    } else {
      // A wins (ties included): span of A not above b[j], i.e. a <= b[j].
      std::size_t lo = i + 1, hi = m, step = 1;
      std::uint64_t probes = 1;
      while (lo < hi) {
        const std::size_t probe = std::min(lo + step - 1, hi - 1);
        ++probes;
        if (!comp(b[j], a[probe])) {
          lo = probe + 1;
          step <<= 1;
        } else {
          hi = probe;
          break;
        }
      }
      while (lo < hi) {
        const std::size_t mid = lo + (hi - lo) / 2;
        ++probes;
        if (!comp(b[j], a[mid]))
          lo = mid + 1;
        else
          hi = mid;
      }
      note(probes, lo - i);
      for (; i < lo; ++i) *out++ = a[i];
    }
  }
  note(0, (m - i) + (n - j));
  while (i < m) *out++ = a[i++];
  while (j < n) *out++ = b[j++];
  return out;
}

}  // namespace mp
