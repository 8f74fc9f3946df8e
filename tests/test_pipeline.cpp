// Tests for the crash-consistent external-sort pipeline (S26): manifest
// round-trip and torn-write rejection, double-slot fallback, async
// double-buffered I/O equivalence, clean end-to-end sorting across
// geometries, scripted crash/resume, the rate-driven crash loop (cumulative
// counters prove completed work is never redone), and the MP_FAULT=0
// contract (crash hooks compile to no-ops).

#include "pipeline/pipeline.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "extmem/run_file.hpp"
#include "util/rng.hpp"

namespace mp::pipeline {
namespace {

extmem::DeviceConfig tiny_blocks() {
  extmem::DeviceConfig config;
  config.block_bytes = 256;  // 64 int32 / 32 KeyId per block
  return config;
}

template <typename T>
extmem::RunHandle write_input(extmem::BlockDevice& device,
                              const std::vector<T>& values) {
  extmem::RunWriter<T> writer(device);
  writer.append(values.data(), values.size());
  return writer.finish();
}

template <typename T>
std::vector<T> read_run(extmem::BlockDevice& device, extmem::RunHandle run) {
  extmem::RunReader<T> reader(device, run);
  std::vector<T> out;
  out.reserve(static_cast<std::size_t>(run.element_count));
  while (!reader.empty()) out.push_back(reader.next());
  return out;
}

std::vector<std::int32_t> make_values(std::size_t n, std::uint64_t seed) {
  Xoshiro256 rng(seed);
  std::vector<std::int32_t> v(n);
  for (auto& x : v)
    x = static_cast<std::int32_t>(rng() % 1000);  // plenty of ties
  return v;
}

Manifest sample_manifest() {
  Manifest m;
  m.seq = 7;
  m.phase = Phase::kMerge;
  m.elem_bytes = 4;
  m.total_elements = 1234;
  m.input = {3, 1234};
  m.output = {90, 1234};
  m.watermark = 55;
  m.ranks_done = 1;
  m.exchange_cursors = {10, 20, 30};
  m.runs_formed = 6;
  m.segments_merged = 4;
  m.ranks_exchanged = 1;
  m.checkpoints = 11;
  m.resumes = 2;
  m.shards.resize(3);
  m.shards[0].input_first = 0;
  m.shards[0].input_count = 411;
  m.shards[0].formed = 411;
  m.shards[0].runs = {{3, 100}, {8, 311}};
  m.shards[0].sorted = {40, 411};
  m.shards[0].segments_done = 2;
  m.shards[0].segment_count = 4;
  m.shards[0].cursors = {60, 70};
  return m;
}

TEST(Manifest, SerializeDeserializeRoundTrip) {
  const Manifest m = sample_manifest();
  const std::vector<std::uint8_t> image = serialize_manifest(m);
  const Manifest back = deserialize_manifest(image.data(), image.size());
  EXPECT_EQ(back, m);
}

TEST(Manifest, RejectsEveryCorruptByte) {
  const Manifest m = sample_manifest();
  const std::vector<std::uint8_t> image = serialize_manifest(m);
  // Flipping ANY single byte must be detected (magic, field, or checksum).
  for (std::size_t at = 0; at < image.size(); ++at) {
    std::vector<std::uint8_t> bad = image;
    bad[at] ^= 0x5a;
    EXPECT_THROW(deserialize_manifest(bad.data(), bad.size()), ManifestError)
        << "byte " << at;
  }
}

TEST(Manifest, RejectsTruncation) {
  const std::vector<std::uint8_t> image =
      serialize_manifest(sample_manifest());
  for (std::size_t len : {std::size_t{0}, std::size_t{4}, image.size() / 2,
                          image.size() - 1}) {
    EXPECT_THROW(deserialize_manifest(image.data(), len), ManifestError);
  }
}

TEST(ManifestStore, AlternatesSlotsAndLoadsNewest) {
  extmem::BlockDevice device(tiny_blocks());
  ManifestStore store = ManifestStore::create(device, 4096);
  EXPECT_EQ(store.slot_blocks(), 16u);
  Manifest m = sample_manifest();
  m.seq = 0;
  store.write(m);  // seq 1 -> slot 1
  EXPECT_EQ(m.seq, 1u);
  EXPECT_EQ(store.load().seq, 1u);
  m.checkpoints = 99;
  store.write(m);  // seq 2 -> slot 0
  const Manifest latest = store.load();
  EXPECT_EQ(latest.seq, 2u);
  EXPECT_EQ(latest.checkpoints, 99u);
}

TEST(ManifestStore, TornNewestSlotFallsBackToPreviousCheckpoint) {
  extmem::BlockDevice device(tiny_blocks());
  ManifestStore store = ManifestStore::create(device, 4096);
  Manifest m = sample_manifest();
  m.seq = 0;
  m.checkpoints = 1;
  store.write(m);  // seq 1 -> slot 1
  m.checkpoints = 2;
  store.write(m);  // seq 2 -> slot 0 (the newest)
  store.corrupt_slot(0);  // the torn write
  const Manifest survivor = store.load();
  EXPECT_EQ(survivor.seq, 1u);
  EXPECT_EQ(survivor.checkpoints, 1u);
}

TEST(ManifestStore, BothSlotsCorruptIsTypedError) {
  extmem::BlockDevice device(tiny_blocks());
  ManifestStore store = ManifestStore::create(device, 4096);
  Manifest m = sample_manifest();
  store.write(m);
  store.write(m);
  store.corrupt_slot(0);
  store.corrupt_slot(1);
  EXPECT_THROW(store.load(), ManifestError);
}

TEST(ManifestStore, UnwrittenRegionIsTypedError) {
  extmem::BlockDevice device(tiny_blocks());
  ManifestStore store = ManifestStore::create(device, 4096);
  EXPECT_THROW(store.load(), ManifestError);
}

TEST(AsyncIo, WriterReaderRoundTripAsyncAndInline) {
  for (const bool async : {false, true}) {
    extmem::BlockDevice device(tiny_blocks());
    IoThread io(async);
    const auto values = make_values(1000, 41);
    AsyncRunWriter<std::int32_t> writer(io, device);
    writer.append(values.data(), values.size());
    const extmem::RunHandle run = writer.finish();
    EXPECT_EQ(run.element_count, values.size());
    EXPECT_EQ(read_run<std::int32_t>(device, run), values) << async;

    // Windowed read, starting mid-block.
    AsyncRunReader<std::int32_t> reader(io, device, run, 37, 500);
    std::vector<std::int32_t> window;
    while (!reader.empty()) window.push_back(reader.next());
    EXPECT_EQ(window, std::vector<std::int32_t>(values.begin() + 37,
                                                values.begin() + 537));
    EXPECT_EQ(reader.position(), 537u);
  }
}

TEST(AsyncIo, PreallocatedSlotWriterLandsAtFixedBlocks) {
  extmem::BlockDevice device(tiny_blocks());
  IoThread io(true);
  const std::uint64_t first = device.allocate(4);
  const auto values = make_values(200, 5);  // 4 blocks at 64/elem block
  AsyncRunWriter<std::int32_t> writer(io, device, first);
  writer.append(values.data(), values.size());
  const extmem::RunHandle run = writer.finish();
  EXPECT_EQ(run.first_block, first);
  EXPECT_EQ(read_run<std::int32_t>(device, run), values);
}

TEST(AsyncIo, SurvivesTransientFaultsViaRetry) {
  extmem::BlockDevice device(tiny_blocks());
  fault::FaultConfig fc;
  fc.seed = 99;
  fc.rate = 0.2;  // transient/short/latency storms on every transfer
  fault::FaultPlan plan(fc);
  fault::ScopedInjector injector(device, plan);
  IoThread io(true);
  fault::RetryPolicy retry;
  retry.max_attempts = 64;
  const auto values = make_values(600, 7);
  AsyncRunWriter<std::int32_t> writer(io, device, retry);
  writer.append(values.data(), values.size());
  const extmem::RunHandle run = writer.finish();
  AsyncRunReader<std::int32_t> reader(io, device, run, 0,
                                      run.element_count, retry);
  std::vector<std::int32_t> back;
  while (!reader.empty()) back.push_back(reader.next());
  EXPECT_EQ(back, values);
  if constexpr (fault::kFaultCompiledIn) {
    EXPECT_GT(plan.stats().injected, 0u);
  }
}

/// Stability probe: sort by key only, ids record input order.
struct KeyId {
  std::int32_t key;
  std::int32_t id;
  friend bool operator==(const KeyId&, const KeyId&) = default;
};
struct KeyLess {
  bool operator()(const KeyId& a, const KeyId& b) const {
    return a.key < b.key;
  }
};

PipelineConfig small_config() {
  PipelineConfig cfg;
  cfg.memory_elems = 300;
  cfg.shards = 3;
  cfg.segment_blocks = 2;
  return cfg;
}

TEST(Pipeline, SortsAndIsStableEndToEnd) {
  extmem::BlockDevice device(tiny_blocks());
  Xoshiro256 rng(1);
  std::vector<KeyId> values(2500);
  for (std::size_t i = 0; i < values.size(); ++i)
    values[i] = {static_cast<std::int32_t>(rng() % 50),
                 static_cast<std::int32_t>(i)};
  const extmem::RunHandle input = write_input(device, values);
  auto pipe =
      Pipeline<KeyId, KeyLess>::start(device, input, small_config());
  const PipelineReport report = pipe.run();
  std::vector<KeyId> expected = values;
  std::stable_sort(expected.begin(), expected.end(), KeyLess{});
  EXPECT_EQ(read_run<KeyId>(device, report.output), expected);
  // The input run is never modified.
  EXPECT_EQ(read_run<KeyId>(device, input), values);
  EXPECT_GT(report.runs_formed, 3u);
  EXPECT_GT(report.checkpoints, 0u);
  EXPECT_EQ(report.resumes, 0u);
}

TEST(Pipeline, GeometryMatrixMatchesStdSort) {
  struct Shape {
    std::size_t n;
    PipelineConfig cfg;
  };
  std::vector<Shape> shapes;
  for (const unsigned shards : {1u, 2u, 5u}) {
    for (const std::size_t n : {std::size_t{1}, std::size_t{63},
                                std::size_t{64}, std::size_t{1017}}) {
      PipelineConfig cfg;
      cfg.shards = shards;
      cfg.memory_elems = 100;
      cfg.segment_blocks = 1;
      shapes.push_back({n, cfg});
    }
  }
  {  // serial-I/O baseline and checkpoint-free mode
    PipelineConfig cfg = small_config();
    cfg.double_buffer = false;
    shapes.push_back({800, cfg});
    cfg = small_config();
    cfg.checkpoints = false;
    shapes.push_back({800, cfg});
  }
  int case_index = 0;
  for (const Shape& shape : shapes) {
    extmem::BlockDevice device(tiny_blocks());
    const auto values = make_values(shape.n, 1000 + shape.n);
    const extmem::RunHandle input = write_input(device, values);
    auto pipe = Pipeline<std::int32_t>::start(device, input, shape.cfg);
    const PipelineReport report = pipe.run();
    std::vector<std::int32_t> expected = values;
    std::sort(expected.begin(), expected.end());
    EXPECT_EQ(read_run<std::int32_t>(device, report.output), expected)
        << "case " << case_index << " n=" << shape.n
        << " shards=" << shape.cfg.shards;
    ++case_index;
  }
}

/// Expected steady-state block footprint after a completed pipeline:
/// the input run, the output run, and the two manifest slots. Everything
/// else (formed runs, shard runs, orphans) must have been released.
std::uint64_t expected_live_blocks(const extmem::BlockDevice& device,
                                   std::uint64_t n, std::uint32_t elem_bytes,
                                   const PipelineConfig& cfg) {
  const std::uint64_t epb = device.config().block_bytes / elem_bytes;
  const std::uint64_t run_blocks = (n + epb - 1) / epb;
  const std::uint64_t slot_blocks = ManifestStore::slot_blocks_for(
      device, worst_case_manifest_bytes(cfg.shards, n, cfg.memory_elems));
  return 2 * run_blocks + 2 * slot_blocks;
}

TEST(Pipeline, ScriptedCrashThenResumeIsByteExactAndLeakFree) {
  if constexpr (!fault::kFaultCompiledIn) GTEST_SKIP();
  const std::size_t n = 1200;
  const auto values = make_values(n, 77);
  std::vector<std::int32_t> expected = values;
  std::sort(expected.begin(), expected.end());
  // Kill at a few hand-picked steps: the very first boundary, a
  // pre-checkpoint (non-durable) one, and some mid-pipeline ones.
  for (const std::uint64_t kill : {0u, 1u, 4u, 9u, 16u, 25u}) {
    extmem::BlockDevice device(tiny_blocks());
    const extmem::RunHandle input = write_input(device, values);
    fault::FaultPlan plan;  // inert except the script
    plan.fail_op(kill, fault::FaultKind::kCrash);
    PipelineConfig cfg = small_config();
    cfg.crash_plan = &plan;
    auto pipe = Pipeline<std::int32_t>::start(device, input, cfg);
    const std::uint64_t base = pipe.manifest_block();
    bool crashed = false;
    PipelineReport report;
    for (int incarnation = 0;; ++incarnation) {
      ASSERT_LT(incarnation, 5);
      try {
        report = pipe.run();
        break;
      } catch (const CrashError& e) {
        crashed = true;
        EXPECT_EQ(e.step(), kill);
        pipe = Pipeline<std::int32_t>::resume(device, base, n, cfg);
      }
    }
    EXPECT_TRUE(crashed) << "kill=" << kill;
    EXPECT_EQ(read_run<std::int32_t>(device, report.output), expected)
        << "kill=" << kill;
    EXPECT_EQ(report.resumes, 1u);
    EXPECT_EQ(device.live_blocks(), expected_live_blocks(device, n, 4, cfg))
        << "kill=" << kill;
  }
}

TEST(Pipeline, RateOneCrashLoopNeverRedoesCompletedWork) {
  const std::size_t n = 1000;
  const auto values = make_values(n, 3);
  std::vector<std::int32_t> expected = values;
  std::sort(expected.begin(), expected.end());

  // Clean reference run: counters and output.
  PipelineConfig cfg = small_config();
  extmem::BlockDevice clean_device(tiny_blocks());
  const extmem::RunHandle clean_input = write_input(clean_device, values);
  auto clean = Pipeline<std::int32_t>::start(clean_device, clean_input, cfg);
  const PipelineReport clean_report = clean.run();
  ASSERT_EQ(read_run<std::int32_t>(clean_device, clean_report.output),
            expected);

  // Crash at EVERY durable point: each incarnation completes exactly one
  // new unit, then dies.
  extmem::BlockDevice device(tiny_blocks());
  const extmem::RunHandle input = write_input(device, values);
  fault::FaultConfig fc;
  fc.seed = 11;
  fc.rate = 1.0;
  fault::FaultPlan plan(fc);
  cfg.crash_plan = &plan;
  auto pipe = Pipeline<std::int32_t>::start(device, input, cfg);
  const std::uint64_t base = pipe.manifest_block();
  unsigned incarnations = 1;
  PipelineReport report;
  for (;;) {
    try {
      report = pipe.run();
      break;
    } catch (const CrashError&) {
      ++incarnations;
      ASSERT_LT(incarnations, 10000u);
      pipe = Pipeline<std::int32_t>::resume(device, base, n, cfg);
    }
  }
  EXPECT_EQ(read_run<std::int32_t>(device, report.output), expected);
  if constexpr (fault::kFaultCompiledIn) {
    EXPECT_GT(incarnations, 1u);
    // The no-redo proof: cumulative work counters of the crash-riddled
    // run equal the clean run's exactly — durable-point crashes never
    // re-execute a completed unit (no re-done form/merge/exchange I/O)
    // and never write an extra checkpoint.
    EXPECT_EQ(report.runs_formed, clean_report.runs_formed);
    EXPECT_EQ(report.segments_merged, clean_report.segments_merged);
    EXPECT_EQ(report.ranks_exchanged, clean_report.ranks_exchanged);
    EXPECT_EQ(report.checkpoints, clean_report.checkpoints);
    EXPECT_EQ(report.resumes, incarnations - 1);
  } else {
    // MP_FAULT=0: the crash hooks compile to no-ops — a rate-1.0 plan
    // must not fire once and the run completes in one incarnation.
    EXPECT_EQ(incarnations, 1u);
    EXPECT_EQ(report.resumes, 0u);
  }
  EXPECT_EQ(device.live_blocks(), expected_live_blocks(device, n, 4, cfg));
}

TEST(Pipeline, ResumeWithBothSlotsCorruptIsTypedManifestError) {
  if constexpr (!fault::kFaultCompiledIn) GTEST_SKIP();
  const std::size_t n = 600;
  const auto values = make_values(n, 21);
  extmem::BlockDevice device(tiny_blocks());
  const extmem::RunHandle input = write_input(device, values);
  fault::FaultPlan plan;
  plan.fail_op(6, fault::FaultKind::kCrash);
  PipelineConfig cfg = small_config();
  cfg.crash_plan = &plan;
  auto pipe = Pipeline<std::int32_t>::start(device, input, cfg);
  const std::uint64_t base = pipe.manifest_block();
  EXPECT_THROW(pipe.run(), CrashError);
  ManifestStore store = ManifestStore::attach(
      device, base,
      worst_case_manifest_bytes(cfg.shards, n, cfg.memory_elems));
  store.corrupt_slot(0);
  store.corrupt_slot(1);
  EXPECT_THROW(Pipeline<std::int32_t>::resume(device, base, n, cfg),
               ManifestError);
  // Full restart is the documented recovery: a fresh start() still works
  // on the same device and produces correct bytes.
  cfg.crash_plan = nullptr;
  auto fresh = Pipeline<std::int32_t>::start(device, input, cfg);
  std::vector<std::int32_t> expected = values;
  std::sort(expected.begin(), expected.end());
  EXPECT_EQ(read_run<std::int32_t>(device, fresh.run().output), expected);
}

TEST(Pipeline, ResumeAfterCompletionReturnsSameOutput) {
  const std::size_t n = 500;
  const auto values = make_values(n, 8);
  extmem::BlockDevice device(tiny_blocks());
  const extmem::RunHandle input = write_input(device, values);
  PipelineConfig cfg = small_config();
  auto pipe = Pipeline<std::int32_t>::start(device, input, cfg);
  const PipelineReport first = pipe.run();
  auto again =
      Pipeline<std::int32_t>::resume(device, pipe.manifest_block(), n, cfg);
  const PipelineReport second = again.run();
  EXPECT_EQ(second.output, first.output);
  EXPECT_EQ(second.steps, 0u);  // nothing left to do
  EXPECT_EQ(read_run<std::int32_t>(device, second.output),
            read_run<std::int32_t>(device, first.output));
}

TEST(Pipeline, SurvivesDiskNetworkAndLaneFaultsTogether) {
  // The end-to-end robustness claim: disk faults (device plan), network
  // faults (exchange plan), lane faults (pool plan via ScopedInjector in
  // the form phase's recovery engine), AND rate-driven crashes, all armed
  // at once — output still byte-exact.
  const std::size_t n = 900;
  const auto values = make_values(n, 55);
  std::vector<std::int32_t> expected = values;
  std::sort(expected.begin(), expected.end());
  extmem::BlockDevice device(tiny_blocks());
  const extmem::RunHandle input = write_input(device, values);

  fault::FaultConfig disk_fc{/*seed=*/5, /*rate=*/0.05};
  fault::FaultPlan disk_plan(disk_fc);
  fault::ScopedInjector disk_injector(device, disk_plan);

  fault::FaultConfig net_fc{/*seed=*/6, /*rate=*/0.05};
  fault::FaultPlan net_plan(net_fc);

  fault::FaultConfig crash_fc{/*seed=*/7, /*rate=*/0.15};
  fault::FaultPlan crash_plan(crash_fc);

  PipelineConfig cfg = small_config();
  cfg.retry.max_attempts = 64;
  cfg.retry.jitter = 0.5;
  cfg.net.faults = &net_plan;
  cfg.net.max_resend = 64;
  cfg.net.segment_retries = 8;
  cfg.crash_plan = &crash_plan;
  auto pipe = Pipeline<std::int32_t>::start(device, input, cfg);
  const std::uint64_t base = pipe.manifest_block();
  PipelineReport report;
  unsigned incarnations = 1;
  for (;;) {
    try {
      report = pipe.run();
      break;
    } catch (const CrashError&) {
      ++incarnations;
      ASSERT_LT(incarnations, 10000u);
      pipe = Pipeline<std::int32_t>::resume(device, base, n, cfg);
    }
  }
  EXPECT_EQ(read_run<std::int32_t>(device, report.output), expected);
  EXPECT_EQ(device.live_blocks(), expected_live_blocks(device, n, 4, cfg));
  if constexpr (fault::kFaultCompiledIn) {
    EXPECT_GT(disk_plan.stats().injected, 0u);
  }
}

}  // namespace
}  // namespace mp::pipeline
