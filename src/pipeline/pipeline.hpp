#pragma once
/// \file pipeline.hpp
/// Crash-consistent sharded external sort — the end-to-end "petasort"
/// pipeline that composes the repository's layers:
///
///   1. kForm     — per shard, memory-sized chunks of the input are read,
///                  sorted in memory (core's resilient Merge Path sort,
///                  surviving injected lane faults), and spilled as runs.
///   2. kMerge    — per shard, a k-way merge of its runs (core's stable
///                  mp::LoserTree over device readers) into one sorted
///                  shard run, executed segment-by-segment in block-aligned
///                  output segments. The shard's readers and tree stay
///                  open across its segments, so each run block is read
///                  once per incarnation.
///   3. kExchange — R ranks (one per shard) each own a block-aligned slice
///                  of the global output. Rank r computes the Merge Path
///                  co-ranks bounding its slice across all shard runs
///                  (core's multiway_select, started from rank r - 1's
///                  frontier), "fetches" the remote fragments over the
///                  simulated network (reliable_send — drops, duplicates
///                  and reorders are recovered; hard partitions surface as
///                  NetError), and merges them with the same LoserTree,
///                  whose readers stay open across ranks.
///
/// Crash consistency (the tentpole): every unit of work — one formed run,
/// one merged segment, one exchanged rank — ends at a *checkpoint step*
/// where the versioned double-slot manifest (manifest.hpp) records the
/// unit's result, the allocation watermark, and cumulative work counters,
/// all in one torn-write-safe superblock write. A process killed at ANY
/// step boundary resumes from the last completed unit:
///   - blocks allocated past the checkpointed watermark are released
///     (allocation is sequential, so orphans are exactly the suffix);
///   - a redone merge segment restarts its run readers at the
///     checkpointed per-run cursors — the merge frontier's co-ranks — and
///     rewrites exactly its own preallocated output blocks, which Merge
///     Path's Theorem 14 disjointness makes byte-identical and idempotent;
///   - a redone exchange rank reopens its readers at the checkpointed
///     exchange frontier, recomputes the same co-ranks from it and
///     rewrites its disjoint output slice byte for byte.
/// Completed units are never re-executed: the chaos drill asserts the
/// cumulative manifest counters of a crash-riddled run equal a clean
/// run's exactly.
///
/// Injected crashes: a fault::FaultPlan attached as
/// PipelineConfig::crash_plan draws FaultKind::kCrash at step boundaries
/// (OpClass::kStep) and the pipeline throws the typed CrashError — the
/// simulation of "the process died here". Randomly drawn crashes fire
/// only at durable points (see FaultPlan::decide_step), so a rate-1.0
/// schedule still terminates: each incarnation checkpoints at least one
/// new unit. Scripted crashes fire anywhere, including between a unit's
/// work and its checkpoint.
///
/// I/O overlap: all device access runs on one IoThread (async_io.hpp);
/// with PipelineConfig::double_buffer the readers prefetch and the
/// writers flush one block ahead of the merge loop.

#include <algorithm>
#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <vector>

#include "core/multiway_merge.hpp"
#include "core/recovery.hpp"
#include "dist/netsim.hpp"
#include "extmem/block_device.hpp"
#include "extmem/run_file.hpp"
#include "fault/fault.hpp"
#include "obs/flight.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "pipeline/async_io.hpp"
#include "pipeline/manifest.hpp"
#include "util/assert.hpp"
#include "util/threading.hpp"

namespace mp::pipeline {

struct PipelineConfig {
  /// Elements sorted in memory per formed run (the "M" of the external
  /// sort; runs per shard = ceil(shard elements / memory_elems)).
  std::uint64_t memory_elems = 1ull << 15;
  /// Shards — also the exchange rank count. Each shard forms and merges
  /// its runs independently; rank r of the exchange owns output slice r.
  unsigned shards = 4;
  /// Merge-segment size in device blocks: the redo granularity of the
  /// kMerge phase (one checkpoint per segment).
  std::uint64_t segment_blocks = 4;
  /// false disables all intermediate checkpoints (the final manifest
  /// recording completion is still written) — the bench's baseline for
  /// measuring checkpoint overhead.
  bool checkpoints = true;
  /// false runs every block transfer inline on the calling thread (serial
  /// baseline); true overlaps I/O with the merge via the IoThread.
  bool double_buffer = true;
  /// Retry policy for every device transfer and the recovery engine.
  fault::RetryPolicy retry{};
  /// Exchange network model; net.faults attaches the network fault plan,
  /// net.segment_retries bounds whole-rank retries after a NetError.
  dist::NetConfig net{};
  /// Crash schedule (not owned; nullptr = never crashes). Consulted only
  /// at step boundaries, with OpClass::kStep.
  fault::FaultPlan* crash_plan = nullptr;
  /// Lanes for the in-memory sorts of the kForm phase.
  Executor exec{};
  /// Lane-fault recovery for those sorts (hedging, lane retries).
  RecoveryConfig recovery{};
};

/// What one incarnation of the pipeline did. Counters are cumulative
/// across all incarnations (they come from the manifest); `steps` counts
/// this incarnation's step boundaries only.
struct PipelineReport {
  extmem::RunHandle output;
  std::uint64_t steps = 0;
  std::uint64_t runs_formed = 0;
  std::uint64_t segments_merged = 0;
  std::uint64_t ranks_exchanged = 0;
  std::uint64_t checkpoints = 0;
  std::uint64_t resumes = 0;
  dist::NetStats net{};
  /// Device traffic of this incarnation's run() alone.
  extmem::DeviceStats io{};
  double modeled_io_us = 0;
};

/// Upper bound on the serialized manifest size for a pipeline over
/// `total_elements` elements with these knobs. A pure function of the
/// arguments, so start() and resume() derive identical slot geometry.
std::uint64_t worst_case_manifest_bytes(unsigned shards,
                                        std::uint64_t total_elements,
                                        std::uint64_t memory_elems);

/// The checkpointed sharded external sort. One instance is one
/// *incarnation*: construct with start() (fresh) or resume() (attach to a
/// prior incarnation's manifest), then call run() once. run() either
/// returns a PipelineReport, or throws CrashError (injected death — the
/// caller "restarts the process" via resume()), NetError / IoError
/// (environment failure), or ManifestError is thrown by resume() itself
/// when no valid checkpoint survives.
template <typename T, typename Comp = std::less<>>
class Pipeline {
  static_assert(std::is_trivially_copyable_v<T>);

 public:
  /// Begins a fresh pipeline over `input` (a run already on `device`):
  /// allocates the manifest superblock and writes checkpoint #1 (the
  /// empty state). The input run is never modified.
  static Pipeline start(extmem::BlockDevice& device, extmem::RunHandle input,
                        const PipelineConfig& cfg = {}, Comp comp = {}) {
    check_config(device, cfg);
    const std::uint64_t n = input.element_count;
    ManifestStore store = ManifestStore::create(
        device, worst_case_manifest_bytes(cfg.shards, n, cfg.memory_elems),
        cfg.retry);
    Manifest m;
    m.elem_bytes = sizeof(T);
    m.total_elements = n;
    m.input = input;
    m.exchange_cursors.assign(cfg.shards, 0);
    m.shards.resize(cfg.shards);
    for (unsigned s = 0; s < cfg.shards; ++s) {
      const std::uint64_t lo = s * n / cfg.shards;
      const std::uint64_t hi = (s + 1ull) * n / cfg.shards;
      m.shards[s].input_first = lo;
      m.shards[s].input_count = hi - lo;
    }
    m.watermark = device.blocks_allocated();
    store.write(m);
    return Pipeline(device, store, std::move(m), cfg, comp);
  }

  /// Attaches to the manifest a prior incarnation left at `manifest_block`
  /// and rolls the device back to its last checkpoint: throws the typed
  /// ManifestError when neither slot validates (full restart required —
  /// never wrong bytes), otherwise releases every block allocated past
  /// the checkpointed watermark. `total_elements` and `cfg` must match the
  /// original start() call (they determine the manifest slot geometry).
  static Pipeline resume(extmem::BlockDevice& device,
                         std::uint64_t manifest_block,
                         std::uint64_t total_elements,
                         const PipelineConfig& cfg = {}, Comp comp = {}) {
    check_config(device, cfg);
    ManifestStore store = ManifestStore::attach(
        device, manifest_block,
        worst_case_manifest_bytes(cfg.shards, total_elements,
                                  cfg.memory_elems),
        cfg.retry);
    Manifest m = store.load();
    MP_CHECK(m.elem_bytes == sizeof(T));
    MP_CHECK(m.total_elements == total_elements);
    MP_CHECK(m.shards.size() == cfg.shards);
    // Orphan reclamation: allocation is sequential, so every block past
    // the checkpointed watermark belongs to work that never checkpointed.
    const std::uint64_t allocated = device.blocks_allocated();
    if (allocated > m.watermark)
      device.release_blocks(m.watermark, allocated - m.watermark);
    ++m.resumes;  // persisted by the next checkpoint
    obs::Span::instant("pipe.resume", "seq", m.seq);
    obs::MetricsRegistry::instance().counter("pipe.resumes").add(1);
    obs::flight_report_degraded("pipe.resume");
    return Pipeline(device, store, std::move(m), cfg, comp);
  }

  /// Runs to completion from whatever state the manifest holds.
  PipelineReport run() {
    const extmem::DeviceStats io_before = device_->stats();
    const double modeled_before = device_->modeled_io_us();
    IoThread io(cfg_.double_buffer);
    io_ = &io;
    dist::RankNetwork net(static_cast<unsigned>(m_.shards.size()), cfg_.net);
    try {
      obs::Span span("pipe.sort", "n", m_.total_elements);
      while (m_.phase != Phase::kDone) {
        switch (m_.phase) {
          case Phase::kForm: form_phase(); break;
          case Phase::kMerge: merge_phase(); break;
          case Phase::kExchange: exchange_phase(net); break;
          case Phase::kDone: break;
        }
      }
    } catch (...) {
      io_ = nullptr;
      throw;
    }
    io_ = nullptr;
    PipelineReport report;
    report.output = m_.output;
    report.steps = steps_;
    report.runs_formed = m_.runs_formed;
    report.segments_merged = m_.segments_merged;
    report.ranks_exchanged = m_.ranks_exchanged;
    report.checkpoints = m_.checkpoints;
    report.resumes = m_.resumes;
    report.net = net.stats();
    report.io = device_->stats() - io_before;
    report.modeled_io_us = device_->modeled_io_us() - modeled_before;
    return report;
  }

  /// Where the manifest superblock lives — persist this (e.g. in the
  /// device image's user word) to resume in a later process.
  std::uint64_t manifest_block() const { return store_.base_block(); }
  const Manifest& manifest() const { return m_; }
  /// Step boundaries passed so far this incarnation; a clean run's total
  /// enumerates every valid scripted kill index.
  std::uint64_t steps() const { return steps_; }

 private:
  Pipeline(extmem::BlockDevice& device, ManifestStore store, Manifest m,
           const PipelineConfig& cfg, Comp comp)
      : device_(&device), store_(store), m_(std::move(m)), cfg_(cfg),
        comp_(comp) {}

  static void check_config(const extmem::BlockDevice& device,
                           const PipelineConfig& cfg) {
    MP_CHECK(cfg.shards >= 1);
    MP_CHECK(cfg.memory_elems >= 1);
    MP_CHECK(cfg.segment_blocks >= 1);
    MP_CHECK(device.config().block_bytes >= sizeof(T));
  }

  std::uint64_t epb() const {
    return device_->config().block_bytes / sizeof(T);
  }
  std::uint64_t blocks_for(std::uint64_t elems) const {
    return (elems + epb() - 1) / epb();
  }
  unsigned shard_count() const {
    return static_cast<unsigned>(m_.shards.size());
  }

  /// One step boundary. Every call consumes one position of the crash
  /// schedule (when one is attached), so a clean run and a crashing run
  /// see identical step numbering up to the crash. `durable` marks points
  /// immediately after a checkpoint write; see FaultPlan::decide_step.
  void crash_point(const char* where, bool durable) {
    ++steps_;
    if constexpr (fault::kFaultCompiledIn) {
      if (cfg_.crash_plan &&
          cfg_.crash_plan->decide_step(durable) == fault::FaultKind::kCrash) {
        obs::Span::instant("pipe.crash", "step", steps_ - 1);
        obs::MetricsRegistry::instance().counter("pipe.crashes").add(1);
        throw CrashError(steps_ - 1, where);
      }
    }
  }

  /// Writes the manifest (watermark refreshed inside the I/O thread, so
  /// it observes every allocation the unit performed).
  void checkpoint() {
    obs::Span span("pipe.checkpoint", "seq", m_.seq + 1);
    ++m_.checkpoints;
    io_->run([&] {
      m_.watermark = device_->blocks_allocated();
      store_.write(m_);
    });
    obs::MetricsRegistry::instance().counter("pipe.checkpoints").add(1);
  }

  /// The unit epilogue: a scripted-only crash point between the work and
  /// its checkpoint, the (optional) checkpoint, then a durable crash
  /// point where rate-driven crashes may fire.
  void unit_boundary(const char* where, const char* where_ckpt, bool want) {
    crash_point(where, false);
    const bool did = want && cfg_.checkpoints;
    if (did) checkpoint();
    crash_point(where_ckpt, did);
  }

  void release_handle(extmem::RunHandle& handle) {
    if (handle.element_count == 0) return;
    const std::uint64_t first = handle.first_block;
    const std::uint64_t count = blocks_for(handle.element_count);
    io_->run([&] { device_->release_blocks(first, count); });
    handle = extmem::RunHandle{};
  }

  /// An open stable k-way merge over device runs: one reader per run from
  /// its checkpointed cursor to the run's end, and core's LoserTree over
  /// them. Kept across consecutive units (a shard's segments, the
  /// exchange's ranks), so every run block is read once per incarnation.
  /// Its owner drops it before run() returns or throws, since the readers
  /// post to run()'s IoThread.
  struct OpenMerge {
    std::vector<std::unique_ptr<AsyncRunReader<T>>> readers;
    std::optional<LoserTree<T, Comp, AsyncRunReader<T>*>> tree;
  };

  /// Pops the next `count` elements of the merge over `runs` into the
  /// preallocated blocks from `first_block`, opening `open` at `cursors`
  /// first if this incarnation has not yet. Then sets `cursors` to the
  /// reader positions: the merge frontier's co-ranks, which a redo
  /// restarts from.
  void merge_next(OpenMerge& open, const std::vector<extmem::RunHandle>& runs,
                  std::vector<std::uint64_t>& cursors,
                  std::uint64_t first_block, std::uint64_t count) {
    if (!open.tree) {
      std::vector<AsyncRunReader<T>*> ptrs;
      for (std::size_t t = 0; t < runs.size(); ++t) {
        open.readers.push_back(std::make_unique<AsyncRunReader<T>>(
            *io_, *device_, runs[t], cursors[t],
            runs[t].element_count - cursors[t], cfg_.retry));
        ptrs.push_back(open.readers.back().get());
      }
      open.tree.emplace(std::move(ptrs), comp_);
    }
    AsyncRunWriter<T> writer(*io_, *device_, first_block, cfg_.retry);
    for (std::uint64_t i = 0; i < count; ++i) writer.append(open.tree->pop());
    writer.finish();
    for (std::size_t t = 0; t < runs.size(); ++t)
      cursors[t] = open.readers[t]->position();
  }

  // ---- kForm -------------------------------------------------------

  void form_phase() {
    for (unsigned s = 0; s < shard_count(); ++s) {
      ShardManifest& sh = m_.shards[s];
      while (sh.formed < sh.input_count) {
        obs::Span span("pipe.form", "shard", s);
        const std::uint64_t chunk =
            std::min(cfg_.memory_elems, sh.input_count - sh.formed);
        std::vector<T> buf(static_cast<std::size_t>(chunk));
        {
          AsyncRunReader<T> reader(*io_, *device_, m_.input,
                                   sh.input_first + sh.formed, chunk,
                                   cfg_.retry);
          for (auto& v : buf) v = reader.next();
        }
        resilient_parallel_merge_sort(buf.data(), buf.size(), cfg_.exec,
                                      comp_, cfg_.recovery);
        AsyncRunWriter<T> writer(*io_, *device_, cfg_.retry);
        writer.append(buf.data(), buf.size());
        sh.runs.push_back(writer.finish());
        sh.formed += chunk;
        ++m_.runs_formed;
        obs::MetricsRegistry::instance().counter("pipe.runs_formed").add(1);
        unit_boundary("form", "form.ckpt", true);
      }
    }
    m_.phase = Phase::kMerge;
    unit_boundary("form.done", "form.done.ckpt", true);
  }

  // ---- kMerge ------------------------------------------------------

  void merge_phase() {
    for (unsigned s = 0; s < shard_count(); ++s) {
      ShardManifest& sh = m_.shards[s];
      if (sh.segment_count == 0) merge_init(s, sh);
      {
        OpenMerge open;
        while (sh.segments_done < sh.segment_count)
          merge_segment(s, sh, open);
      }
      if (!sh.runs.empty()) {
        // Source runs are dead once the shard is merged. Re-running this
        // after a crash is safe: release_blocks skips already-released
        // slots.
        for (extmem::RunHandle& run : sh.runs) release_handle(run);
        sh.runs.clear();
        sh.cursors.clear();
        unit_boundary("merge.cleanup", "merge.cleanup.ckpt", true);
      }
    }
    // Transition: preallocate the global output and zero the exchange
    // frontier. Redone wholesale if the checkpoint below never lands (the
    // orphaned allocation is reclaimed by resume()).
    const std::uint64_t n = m_.total_elements;
    m_.output = extmem::RunHandle{};
    if (n > 0) {
      const std::uint64_t blocks = blocks_for(n);
      m_.output.first_block = io_->run([&] { return device_->allocate(blocks); });
      m_.output.element_count = n;
    }
    for (auto& c : m_.exchange_cursors) c = 0;
    m_.ranks_done = 0;
    m_.phase = Phase::kExchange;
    unit_boundary("merge.done", "merge.done.ckpt", true);
  }

  void merge_init(unsigned s, ShardManifest& sh) {
    if (sh.runs.size() <= 1) {
      // 0 or 1 runs: the "merge" is the identity. Alias the formed run as
      // the sorted run (clearing runs WITHOUT releasing — same blocks).
      sh.sorted = sh.runs.empty() ? extmem::RunHandle{} : sh.runs[0];
      sh.runs.clear();
      sh.cursors.clear();
      sh.segment_count = 1;
      sh.segments_done = 1;
      unit_boundary("merge.alias", "merge.alias.ckpt", true);
      return;
    }
    const std::uint64_t seg_elems = cfg_.segment_blocks * epb();
    const std::uint64_t blocks = blocks_for(sh.input_count);
    sh.sorted.first_block = io_->run([&] { return device_->allocate(blocks); });
    sh.sorted.element_count = sh.input_count;
    sh.segment_count = (sh.input_count + seg_elems - 1) / seg_elems;
    sh.segments_done = 0;
    sh.cursors.assign(sh.runs.size(), 0);
    (void)s;
    unit_boundary("merge.init", "merge.init.ckpt", true);
  }

  void merge_segment(unsigned s, ShardManifest& sh, OpenMerge& open) {
    {
      obs::Span span("pipe.segment", "shard", s);
      const std::uint64_t seg_elems = cfg_.segment_blocks * epb();
      const std::uint64_t g = sh.segments_done;
      const std::uint64_t lo = g * seg_elems;
      const std::uint64_t hi = std::min(sh.input_count, lo + seg_elems);
      merge_next(open, sh.runs, sh.cursors,
                 sh.sorted.first_block + g * cfg_.segment_blocks, hi - lo);
      sh.segments_done = g + 1;
    }
    ++m_.segments_merged;
    obs::MetricsRegistry::instance().counter("pipe.segments_merged").add(1);
    unit_boundary("merge.seg", "merge.seg.ckpt", true);
  }

  // ---- kExchange ---------------------------------------------------

  /// Block-aligned global output boundary of rank r: aligning down keeps
  /// every rank's preallocated output slice disjoint at block granularity
  /// (the tail rank absorbs the remainder).
  std::uint64_t boundary(unsigned r) const {
    const std::uint64_t n = m_.total_elements;
    if (r >= shard_count()) return n;
    return std::min(n, (r * n / shard_count()) / epb() * epb());
  }

  void exchange_phase(dist::RankNetwork& net) {
    {
      std::vector<extmem::RunHandle> sorted;
      for (const ShardManifest& sh : m_.shards) sorted.push_back(sh.sorted);
      OpenMerge open;
      while (m_.ranks_done < shard_count()) {
        const unsigned r = static_cast<unsigned>(m_.ranks_done);
        exchange_rank(r, net, sorted, open);
        ++m_.ranks_done;
        ++m_.ranks_exchanged;
        obs::MetricsRegistry::instance()
            .counter("pipe.ranks_exchanged")
            .add(1);
        unit_boundary("exchange.rank", "exchange.rank.ckpt", true);
      }
    }
    for (ShardManifest& sh : m_.shards) release_handle(sh.sorted);
    m_.phase = Phase::kDone;
    crash_point("exchange.done", false);
    checkpoint();  // forced even with cfg_.checkpoints off: the final
                   // manifest is how a later process finds the output
    crash_point("done.ckpt", true);
  }

  /// One block of one shard's sorted run, cached for co-rank probing.
  struct ProbeCache {
    std::vector<T> data;
    std::uint64_t block = ~0ull;  // block index within the run
  };

  const T& probe(unsigned rank, unsigned s, std::uint64_t index,
                 std::vector<ProbeCache>& caches, dist::RankNetwork& net) {
    const std::uint64_t b = index / epb();
    ProbeCache& cache = caches[s];
    if (cache.block != b) {
      if (s != rank) {
        // A cross-shard key probe: one small alpha-dominated message
        // (key + position, 16 bytes) through the reliable protocol.
        net.reliable_send(s, rank, 16);
      }
      cache.data.resize(static_cast<std::size_t>(epb()));
      const std::uint64_t block = m_.shards[s].sorted.first_block + b;
      io_->run([&] {
        extmem::detail::retry_io(*device_, cfg_.retry, block, "probe", [&] {
          return device_->try_read_block(
              block, cache.data.data(),
              static_cast<std::uint32_t>(cache.data.size() * sizeof(T)));
        });
      });
      cache.block = b;
    }
    return cache.data[static_cast<std::size_t>(index % epb())];
  }

  /// The stable co-rank of global rank `target` across the shard runs:
  /// core's multiway_select over block probes, started from the exchange
  /// frontier. That frontier is the exact co-rank of boundary(rank), so
  /// the result is the one a search from zero finds, and a redone rank
  /// recomputes identical ends.
  std::vector<std::uint64_t> select_ends(unsigned rank, std::uint64_t target,
                                         dist::RankNetwork& net) {
    obs::Span span("pipe.select", "rank", rank);
    std::vector<ProbeCache> caches(shard_count());
    std::vector<std::uint64_t> sizes;
    for (const ShardManifest& sh : m_.shards)
      sizes.push_back(sh.sorted.element_count);
    const std::vector<std::size_t> ends = multiway_select(
        sizes, target,
        [&](std::size_t s, std::size_t index) -> const T& {
          return probe(rank, static_cast<unsigned>(s), index, caches, net);
        },
        comp_,
        std::vector<std::size_t>(m_.exchange_cursors.begin(),
                                 m_.exchange_cursors.end()));
    return {ends.begin(), ends.end()};
  }

  void exchange_rank(unsigned r, dist::RankNetwork& net,
                     const std::vector<extmem::RunHandle>& sorted,
                     OpenMerge& open) {
    obs::Span span("pipe.exchange", "rank", r);
    const std::uint64_t lo = boundary(r);
    const std::uint64_t hi = boundary(r + 1);
    if (lo == hi) {
      net.end_round();
      return;  // empty slice: frontier unchanged
    }
    std::vector<std::uint64_t> ends;
    for (unsigned attempt = 0;; ++attempt) {
      try {
        ends = select_ends(r, hi, net);
        // Fetch the remote fragments: shard s ships its
        // [cursor, end) slice to rank r in one reliable message (resends
        // and dedup priced by the protocol; a persistent partition
        // escapes as NetError and retries the selection and fetch).
        for (std::size_t s = 0; s < m_.shards.size(); ++s) {
          const std::uint64_t frag = ends[s] - m_.exchange_cursors[s];
          if (frag > 0 && s != r)
            net.reliable_send(static_cast<unsigned>(s), r,
                              frag * sizeof(T));
        }
        break;
      } catch (const dist::NetError&) {
        if (attempt >= cfg_.net.segment_retries) throw;
        obs::Span::instant("pipe.retry", "rank", r);
      }
    }
    merge_next(open, sorted, m_.exchange_cursors,
               m_.output.first_block + lo / epb(), hi - lo);
    // The tree and the selection break ties alike, so the merge must have
    // stopped exactly at the selected co-rank.
    MP_CHECK(m_.exchange_cursors == ends);
    net.end_round();
  }

  extmem::BlockDevice* device_;
  ManifestStore store_;
  Manifest m_;
  PipelineConfig cfg_;
  Comp comp_;
  IoThread* io_ = nullptr;  // valid only inside run()
  std::uint64_t steps_ = 0;
};

/// Sorts `data` through one fresh pipeline on `device`: writes the input
/// run, runs start(...).run(), and reads the output back. Stable. Every
/// block allocated since the call began is released on success, and on
/// any typed fault (IoError, NetError, CrashError) before it is rethrown,
/// so the device ends holding exactly what it held before. Fills
/// `report` on success. There is no resume here: a crash fails the call.
template <typename T, typename Comp = std::less<>>
std::vector<T> sort_vector(extmem::BlockDevice& device,
                           const std::vector<T>& data,
                           const PipelineConfig& cfg = {},
                           PipelineReport* report = nullptr, Comp comp = {}) {
  // Allocation is append-only: this call's blocks are the suffix past mark.
  const std::uint64_t mark = device.blocks_allocated();
  const auto release = [&] {
    device.release_blocks(mark, device.blocks_allocated() - mark);
  };
  try {
    extmem::RunWriter<T> writer(device, cfg.retry);
    writer.append(data.data(), data.size());
    const PipelineReport done =
        Pipeline<T, Comp>::start(device, writer.finish(), cfg, comp).run();
    std::vector<T> out;
    out.reserve(data.size());
    extmem::RunReader<T> reader(device, done.output, cfg.retry);
    while (!reader.empty()) out.push_back(reader.next());
    release();
    if (report) *report = done;
    return out;
  } catch (const fault::FaultError&) {
    release();
    throw;
  }
}

}  // namespace mp::pipeline
