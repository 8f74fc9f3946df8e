// Experiment E2 — the Section VI remark: "the single-thread execution time
// of our algorithm was some 6% longer than a truly sequential merge".
//
// Unlike the speedup figure, this is a single-thread comparison, so the
// wall-clock numbers measured on this host are directly meaningful. Both
// the real measurement and the PRAM-modelled op-count ratio are printed.
//
// With the vectorized kernels (S24) the remark gets a second reading: the
// per-lane primitive is no longer pinned to the scalar loop, so the table
// carries one row per available kernel and the "overhead" column turns into
// a speedup for the SIMD rows (negative overhead = faster than the classic
// sequential loop). modeled_overhead is a property of the scalar op-count
// model, so it is only printed on the scalar rows.
//
// Flags: --full (adds 64M), --reps N, --kernel K (restrict to one kernel),
// --csv, --seed.

#include <algorithm>
#include <iostream>
#include <vector>

#include "core/mergepath.hpp"
#include "harness_common.hpp"
#include "kernels/kernels.hpp"
#include "pram/simulate.hpp"
#include "util/data_gen.hpp"
#include "util/timer.hpp"

int main(int argc, char** argv) {
  using namespace mp;
  using namespace mp::bench;

  Harness h(argc, argv, "E2/Section VI remark",
            "single-thread Merge Path vs plain sequential merge");
  const int reps = static_cast<int>(h.cli.get_int("reps", 3));
  h.check_flags();

  std::vector<std::size_t> sizes{1u << 20, 4u << 20, 16u << 20};
  if (h.full) sizes.push_back(64u << 20);

  std::vector<kernels::Kernel> sweep;
  if (h.forced_kernel) {
    sweep.push_back(*h.forced_kernel);
  } else {
    for (kernels::Kernel k : kernels::kAllKernels)
      if (kernels::kernel_supported(k)) sweep.push_back(k);
  }

  const auto model = pram::MachineModel::paper_x5670();
  Table table({"elements_per_array", "kernel", "seq_ms", "mergepath_p1_ms",
               "wall_overhead", "modeled_overhead"});
  for (std::size_t size : sizes) {
    const auto input = make_merge_input(Dist::kUniform, size, size, h.seed);
    std::vector<std::int32_t> out(2 * size);
    // Touch every output page before timing: the first writer otherwise
    // pays the fault cost and the comparison silently skews.
    for (std::size_t i = 0; i < out.size(); i += 1024) out[i] = 1;

    // The sequential side is kernel-independent; measure it once per size.
    double seq = 1e300;
    for (int round = 0; round < 2 * reps + 3; ++round) {
      seq = std::min(seq, time_best_of(
                              [&] {
                                classic_merge(input.a.data(), size,
                                              input.b.data(), size,
                                              out.data());
                              },
                              1, 0.0));
    }

    const auto sim_seq = pram::simulate_sequential_merge(input.a, input.b,
                                                         model);
    const auto sim_mp1 = pram::simulate_parallel_merge(input.a, input.b, 1,
                                                       model);

    for (kernels::Kernel kernel : sweep) {
      // Single-thread Algorithm 1 = parallel_merge with one lane: the full
      // lane machinery — fork-join, diagonal search (trivial at p=1) and
      // the step-budgeted resumable kernel — against the lean classic
      // loop. Rounds alternate with the seq side above only across sizes,
      // so pin the best-of count the same way; at these kernel speeds
      // single-digit percentages are the honest resolution for the scalar
      // rows.
      const kernels::Kernel previous = kernels::selected_kernel();
      kernels::set_kernel(kernel);
      const auto merge_p1 = [&] {
        parallel_merge(input.a.data(), size, input.b.data(), size,
                       out.data(), Executor{nullptr, 1});
      };
      double mp1 = 1e300;
      for (int round = 0; round < 2 * reps + 3; ++round)
        mp1 = std::min(mp1, time_best_of(merge_p1, 1, 0.0));
      kernels::set_kernel(previous);

      const bool scalar_model = kernel == kernels::Kernel::kScalar;
      table.add_row(
          {fmt_count(size), std::string(kernels::to_string(kernel)),
           fmt_double(seq * 1e3, 2), fmt_double(mp1 * 1e3, 2),
           fmt_percent(mp1 / seq - 1.0),
           scalar_model
               ? fmt_percent(sim_mp1.time_ns / sim_seq.time_ns - 1.0)
               : std::string("-")});
    }
  }
  h.emit(table);
  if (!h.csv) {
    std::cout
        << "\npaper reference: ~6% single-thread overhead (Section VI "
           "remark), which the\npaper attributes to \"a few extra "
           "instructions\". mergepath_p1 is parallel_merge\nwith one lane, "
           "the same code path as p > 1. With this library's codegen the\n"
           "bounded scalar kernel matches the classic loop to within noise, "
           "so the scalar\nrows sit near 0% — same sign and order, smaller "
           "constant — while the vector\nrows go negative: the per-lane "
           "primitive beats the sequential baseline\noutright. "
           "modeled_overhead counts only algorithmic extra ops (the "
           "partition\nsearch) and applies to the scalar kernel, so it is "
           "shown on those rows only.\n";
  }
  return 0;
}
