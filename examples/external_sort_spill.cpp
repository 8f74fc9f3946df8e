// Example: sorting a dataset that does not fit in memory.
//
//   build/examples/external_sort_spill [--elements N] [--memory M]
//
// The pipeline a database or log processor runs when a sort spills: form
// memory-sized sorted runs (each sorted in memory with the paper's
// parallel merge sort), merge each shard's runs, then exchange the shards
// by Merge Path co-ranks into one output. Storage is the simulated block
// device (src/extmem), so the example also prints the I/O story — block
// transfers, seeks, modelled disk time — next to the three-pass shape
// 2·N/B·3 of formation, shard merge and exchange.

#include <cmath>
#include <iostream>
#include <vector>

#include "pipeline/pipeline.hpp"
#include "util/cli.hpp"
#include "util/data_gen.hpp"
#include "util/table.hpp"
#include "util/timer.hpp"

int main(int argc, char** argv) {
  using namespace mp;
  using namespace mp::extmem;
  Cli cli(argc, argv);
  const auto elements =
      static_cast<std::size_t>(cli.get_int("elements", 4 << 20));
  const auto memory =
      static_cast<std::size_t>(cli.get_int("memory", 128 << 10));

  BlockDevice device;  // 64 KiB blocks, HDD-ish latency model
  const std::size_t per_block =
      device.config().block_bytes / sizeof(std::int32_t);

  std::cout << "dataset: " << elements << " int32 ("
            << fmt_bytes(elements * 4) << "), memory budget: " << memory
            << " elements (" << fmt_bytes(memory * 4) << "), block "
            << fmt_bytes(device.config().block_bytes) << "\n";

  const auto data = make_unsorted_values(elements, 77);
  pipeline::PipelineConfig config;
  config.memory_elems = memory;

  Timer timer;
  pipeline::PipelineReport report;
  const auto sorted = pipeline::sort_vector(device, data, config, &report);
  const double cpu_s = timer.seconds();

  const bool ok = std::is_sorted(sorted.begin(), sorted.end()) &&
                  sorted.size() == elements;
  std::cout << "\nsorted correctly: " << std::boolalpha << ok << "\n\n"
            << "run formation: " << report.runs_formed << " runs of <= "
            << memory << " elements over " << config.shards
            << " shards\n"
            << "merge:         " << report.segments_merged
            << " shard segments, then " << report.ranks_exchanged
            << " exchange ranks\n"
            << "block I/O:     " << fmt_count(report.io.block_reads)
            << " reads + " << fmt_count(report.io.block_writes)
            << " writes, " << fmt_count(report.io.seeks) << " seeks\n"
            << "modeled disk:  " << fmt_double(report.modeled_io_us / 1e3, 1)
            << " ms   (host CPU: " << fmt_double(cpu_s * 1e3, 1) << " ms)\n";

  // The three-pass shape for comparison: every pass reads and writes each
  // block once (plus manifest writes and co-rank probe reads).
  const double blocks = std::ceil(static_cast<double>(elements) /
                                  static_cast<double>(per_block));
  std::cout << "\nthree-pass shape: 2·N/B·3 = "
            << fmt_count(static_cast<std::uint64_t>(2.0 * blocks * 3.0))
            << " transfers\n";
  return ok ? 0 : 1;
}
