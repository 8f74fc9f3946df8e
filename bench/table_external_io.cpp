// Experiment E13 (extension) — the I/O-model view the paper reaches for
// when citing Aggarwal & Vitter [10]: the sharded external sort
// (pipeline::sort_vector) on the simulated block device, its block
// transfers versus memory size and shard count, against a transfer bound
// derived term by term from src/pipeline/pipeline.hpp.
//
// Flags: --elements N (default 1Mi; --full 8Mi), --csv, --seed.
//   --fault-rate P / --fault-seed S arm the deterministic fault injector on
//   the simulated device for every row (same schedule seed per row, so rows
//   stay comparable); the table then reports the retries each configuration
//   absorbed. The bound is enforced on fault-free runs only.
// Exit codes: 0 every row sorted (and, fault-free, met its bound); 1 a row
// exceeded its bound, missorted, or hit a permanent I/O fault; 2 usage.

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <iostream>
#include <optional>
#include <vector>

#include "fault/fault.hpp"
#include "harness_common.hpp"
#include "pipeline/manifest.hpp"
#include "pipeline/pipeline.hpp"
#include "util/data_gen.hpp"

namespace {

using mp::pipeline::PipelineConfig;
using mp::pipeline::PipelineReport;

/// The most runs any shard forms: run formation cuts a shard of up to
/// ceil(n / R) elements into memory_elems-sized chunks.
std::uint64_t runs_per_shard(std::uint64_t n, const PipelineConfig& cfg) {
  const std::uint64_t shard = (n + cfg.shards - 1) / cfg.shards;
  return (shard + cfg.memory_elems - 1) / cfg.memory_elems;
}

/// Merge levels after run formation: the per-shard merge (only when a
/// shard has more than one run; one run is aliased, not copied) and the
/// exchange, which copies even with one shard.
std::uint64_t merge_passes(std::uint64_t n, const PipelineConfig& cfg) {
  return (runs_per_shard(n, cfg) > 1 ? 1 : 0) + 1;
}

/// Iterations of one select_ends (pipeline.hpp) call for global rank
/// `target` over R shards. At most R iterations exhaust a shard; every
/// other one takes c = max(1, remaining / (2·active)) >= max(1,
/// remaining / 2R) elements. remaining - max(1, remaining / 2R) is
/// monotone in remaining, so iterating it from `target` bounds the rest.
std::uint64_t select_iterations(std::uint64_t target, unsigned shards) {
  std::uint64_t iterations = shards;
  for (std::uint64_t rem = target; rem > 0; ++iterations)
    rem -= std::max<std::uint64_t>(1, rem / (2ull * shards));
  return iterations;
}

/// Upper bound on one fault-free Pipeline::run()'s block transfers over n
/// elements, B elements per block, R = cfg.shards. Each term is read off
/// the code; none is fitted to a measurement.
double transfer_bound(std::uint64_t n, std::uint64_t per_block,
                      const PipelineConfig& cfg, const PipelineReport& report,
                      std::uint64_t slot_blocks) {
  const double blocks = std::ceil(static_cast<double>(n) /
                                  static_cast<double>(per_block));
  const double runs = static_cast<double>(report.runs_formed);
  const double r = cfg.shards;
  const std::uint64_t passes = merge_passes(n, cfg);
  // Every pass reads and writes each block once: formation plus `passes`.
  double bound = 2.0 * blocks * static_cast<double>(passes + 1);
  // kForm: the chunks tile the input, so each of the runs - 1 interior
  // chunk boundaries re-reads at most one block; each run starts a fresh
  // block, so sum ceil(len / B) writes at most runs - 1 partial blocks.
  bound += 2.0 * (runs - 1.0);
  // kMerge: the shard's readers live across its segments, so each run
  // block is read once (runs - 1 partials again); the merged shard runs
  // are written at ceil(shard / B) blocks each (R - 1 partials).
  if (passes == 2) bound += (runs - 1.0) + (r - 1.0);
  // kExchange: rank slices are block-aligned, so writes are exactly
  // ceil(n / B). Per shard, the R rank windows tile its sorted run and
  // each interior rank boundary re-reads one block: R (R - 1), plus the
  // R - 1 partial blocks of the shard runs themselves.
  bound += r * r - 1.0;
  // Co-rank probes: each select_ends iteration reads at most one block
  // per shard, for each of the R ranks.
  bound += r * r * static_cast<double>(select_iterations(n, cfg.shards));
  // Checkpoints: each writes one full manifest slot.
  bound += static_cast<double>(report.checkpoints * slot_blocks);
  return bound;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace mp;
  using namespace mp::bench;
  using namespace mp::extmem;

  Harness h(argc, argv, "E13/I-O model",
            "sharded external sort transfers vs the derived bound");
  const std::size_t elements = static_cast<std::size_t>(
      h.cli.get_int("elements", h.full ? (8 << 20) : (1 << 20)));
  const double fault_rate = h.cli.get_double("fault-rate", 0.0);
  const auto fault_seed =
      static_cast<std::uint64_t>(h.cli.get_int("fault-seed", 1));
  h.check_flags();
  if (fault_rate < 0.0 || fault_rate > 1.0) {
    std::cerr << "error: --fault-rate must be in [0, 1], got " << fault_rate
              << "\n";
    return 2;
  }
  if (fault_rate > 0.0 && !fault::kFaultCompiledIn) {
    std::cerr << "error: built with MERGEPATH_FAULT=OFF; --fault-rate "
                 "has no effect\n";
    return 2;
  }

  const auto data = make_unsorted_values(elements, h.seed);
  obs::Counter& retries =
      obs::MetricsRegistry::instance().counter("extmem.retries");

  Table table({"memory_elems", "shards", "runs/shard", "merge_fits",
               "xchg_fits", "passes", "reads", "transfers", "bound",
               "retries", "faults", "modeled_io_ms"});
  bool over_bound = false;
  for (std::size_t memory : {std::size_t{8} << 10, std::size_t{32} << 10,
                             std::size_t{128} << 10}) {
    for (unsigned shards : {1u, 2u, 4u}) {
      DeviceConfig dev_config;
      dev_config.block_bytes = 16 * 1024;  // 4Ki int32 per block
      BlockDevice device(dev_config);
      const std::uint64_t per_block = dev_config.block_bytes / 4;
      // Every row replays the same fault schedule seed so the sweep stays
      // an apples-to-apples comparison of memory/shards, not of luck.
      fault::FaultPlan plan({fault_seed, fault_rate, 250.0});
      std::optional<fault::ScopedInjector<BlockDevice>> inject;
      if (fault_rate > 0.0) inject.emplace(device, plan);
      PipelineConfig config;
      config.memory_elems = memory;
      config.shards = shards;
      PipelineReport report;
      const std::uint64_t retries_before = retries.value();
      std::vector<std::int32_t> sorted;
      try {
        sorted = pipeline::sort_vector(device, data, config, &report);
      } catch (const IoError& error) {
        std::cerr << "error: " << error.what() << "\n";
        return 1;
      }
      if (!std::is_sorted(sorted.begin(), sorted.end())) {
        std::cerr << "SORT FAILED\n";
        return 1;
      }
      // A merge level fits M when it can hold its double-buffered block
      // per input: 2 x fan-in x B <= M.
      const std::uint64_t runs = runs_per_shard(elements, config);
      const auto fits = [&](std::uint64_t fan_in) {
        return 2 * fan_in * per_block <= memory ? "yes" : "no";
      };
      const std::uint64_t slot_blocks =
          pipeline::ManifestStore::slot_blocks_for(
              device,
              pipeline::worst_case_manifest_bytes(shards, elements, memory));
      const double bound =
          transfer_bound(elements, per_block, config, report, slot_blocks);
      if (fault_rate == 0.0 &&
          static_cast<double>(report.io.transfers()) > bound) {
        std::cerr << "error: memory " << memory << " shards " << shards
                  << ": " << report.io.transfers()
                  << " transfers exceed the bound " << bound << "\n";
        over_bound = true;
      }
      table.add_row({fmt_count(memory), std::to_string(shards),
                     fmt_count(runs), runs > 1 ? fits(runs) : "-",
                     fits(shards), std::to_string(merge_passes(elements,
                                                               config)),
                     fmt_count(report.io.block_reads),
                     fmt_count(report.io.transfers()),
                     fmt_count(static_cast<std::uint64_t>(bound)),
                     fmt_count(retries.value() - retries_before),
                     fmt_count(device.stats().faults_injected),
                     fmt_double(report.modeled_io_us / 1e3, 1)});
    }
  }
  h.emit(table);
  if (over_bound) return 1;
  if (!h.csv) {
    if (fault_rate > 0.0)
      std::cout << "\nfault injection armed (seed " << fault_seed << ", rate "
                << fault_rate
                << "): transfers count successful blocks only; the bound "
                   "is enforced\non fault-free runs only.\n";
    else
      std::cout << "\nevery row satisfies transfers <= bound. The pipeline "
                   "merges one pass per level\n(shard merge, then "
                   "exchange) whatever M is; a level that does not fit M\n"
                   "holds 2 blocks per input anyway rather than adding "
                   "passes.\n";
  }
  return 0;
}
