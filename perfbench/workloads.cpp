#include "workloads.hpp"

#include <algorithm>
#include <cstring>
#include <span>

#include "core/instrument.hpp"
#include "core/merge_sort.hpp"
#include "core/parallel_merge.hpp"
#include "extmem/run_file.hpp"
#include "fault/fault.hpp"
#include "obs/metrics.hpp"
#include "obs/percentiles.hpp"

namespace perfbench {

using mp::Executor;
using mp::OpCounts;
using mp::ThreadPool;

unsigned lanes_of(Variant variant) {
  return variant == Variant::kP1 ? 1 : kLanes;
}

void tally(Result& result, const OpResult& op) {
  result.attempted += op.attempted;
  result.failed += op.failed;
}

namespace {

/// What a tool's --metrics flag arms: lane metrics and span statistics.
void arm_metrics() {
  mp::obs::LaneMetrics::instance().arm();
  mp::obs::reset_span_stats();
  mp::obs::arm_span_stats();
}

void disarm_metrics() {
  mp::obs::LaneMetrics::instance().disarm();
  mp::obs::disarm_span_stats();
}

/// Arms the mode a variant runs in before its timed region, and disarms
/// it after.
class ObsMode {
 public:
  ObsMode(Variant variant, bool traced)
      : metrics_(variant == Variant::kMetrics), traced_(traced) {
    if (traced_) arm_traced();
    if (metrics_) arm_metrics();
  }
  ~ObsMode() {
    if (metrics_) disarm_metrics();
    if (traced_) disarm_traced();
  }
  ObsMode(const ObsMode&) = delete;
  ObsMode& operator=(const ObsMode&) = delete;

 private:
  bool metrics_;
  bool traced_;
};

void record_lane_ops(const std::vector<OpCounts>& ops) {
  for (std::size_t lane = 0; lane < ops.size(); ++lane)
    mp::obs::LaneMetrics::instance().record_ops(static_cast<unsigned>(lane),
                                                ops[lane]);
}

template <typename T>
void release(std::vector<T>& v) {
  std::vector<T>().swap(v);
}

}  // namespace

// ---- merge -------------------------------------------------------------

void MergeWorkload::setup() {
  pool = std::make_unique<ThreadPool>(static_cast<int>(kLanes) - 1);
  a = sorted_keys(kMergeElems, stream_seed(seed_, kStreamMergeA));
  b = sorted_keys(kMergeElems, stream_seed(seed_, kStreamMergeB));
  out.assign(2 * kMergeElems, 0);
  mp::parallel_merge(a.data(), a.size(), b.data(), b.size(), out.data(),
                     Executor{pool.get(), kLanes});
}

void MergeWorkload::teardown() {
  pool.reset();
  release(a);
  release(b);
  release(out);
}

std::uint64_t MergeWorkload::output_fingerprint() {
  std::vector<std::uint64_t> parts(kLanes);
  pool->parallel_for_lanes(kLanes, [&](unsigned lane) {
    const std::size_t lo = lane * out.size() / kLanes;
    const std::size_t hi = (lane + 1) * out.size() / kLanes;
    parts[lane] = fingerprint(out.data() + lo, hi - lo, lo);
  });
  std::uint64_t sum = 0;
  for (const std::uint64_t part : parts) sum += part;
  return sum;
}

std::uint64_t MergeWorkload::expected_fingerprint() {
  if (!expected_)
    expected_ = std::merge(a.begin(), a.end(), b.begin(), b.end(),
                           FingerprintSink{})
                    .value();
  return *expected_;
}

OpResult MergeWorkload::run(Variant variant, bool traced) {
  // Poison the output so a call that skips a slice cannot pass the check.
  pool->parallel_for_lanes(kLanes, [&](unsigned lane) {
    const std::size_t lo = lane * out.size() / kLanes;
    const std::size_t hi = (lane + 1) * out.size() / kLanes;
    std::fill(out.begin() + static_cast<std::ptrdiff_t>(lo),
              out.begin() + static_cast<std::ptrdiff_t>(hi), -1);
  });
  const Executor exec{pool.get(), lanes_of(variant)};
  std::vector<OpCounts> ops(kLanes);
  OpResult r;
  {
    ObsMode mode(variant, traced);
    const double t0 = now_s();
    if (variant == Variant::kMetrics)
      mp::parallel_merge(a.data(), a.size(), b.data(), b.size(), out.data(),
                         exec, std::less<>{}, std::span<OpCounts>(ops));
    else
      mp::parallel_merge(a.data(), a.size(), b.data(), b.size(), out.data(),
                         exec);
    r.seconds = now_s() - t0;
    if (variant == Variant::kMetrics) record_lane_ops(ops);
  }
  r.elements = static_cast<double>(out.size());
  r.attempted = 1;
  r.failed = output_fingerprint() == expected_fingerprint() ? 0 : 1;
  return r;
}

double MergeWorkload::working_set_bytes() const {
  return 4.0 * kMergeElems * sizeof(std::int32_t);  // A + B + out
}

// ---- sort --------------------------------------------------------------

void SortWorkload::setup() {
  pool = std::make_unique<ThreadPool>(static_cast<int>(kLanes) - 1);
  input = random_keys(kSortElems, stream_seed(seed_, kStreamSort));
  data = input;
  mp::parallel_merge_sort(data.data(), data.size(),
                          Executor{pool.get(), kLanes});
}

void SortWorkload::teardown() {
  pool.reset();
  release(input);
  release(data);
}

const std::vector<std::int32_t>& SortWorkload::expected() {
  if (expected_.size() != input.size()) {
    expected_ = input;
    std::stable_sort(expected_.begin(), expected_.end());
  }
  return expected_;
}

OpResult SortWorkload::run(Variant variant, bool traced) {
  std::memcpy(data.data(), input.data(), input.size() * sizeof(std::int32_t));
  const Executor exec{pool.get(), lanes_of(variant)};
  std::vector<OpCounts> ops(kLanes);
  OpResult r;
  {
    ObsMode mode(variant, traced);
    const double t0 = now_s();
    if (variant == Variant::kMetrics)
      mp::parallel_merge_sort(data.data(), data.size(), exec, std::less<>{},
                              std::span<OpCounts>(ops));
    else
      mp::parallel_merge_sort(data.data(), data.size(), exec);
    r.seconds = now_s() - t0;
    if (variant == Variant::kMetrics) record_lane_ops(ops);
  }
  r.elements = static_cast<double>(data.size());
  r.attempted = 1;
  r.failed = data == expected() ? 0 : 1;
  return r;
}

double SortWorkload::working_set_bytes() const {
  return 2.0 * kSortElems * sizeof(std::int32_t);  // data + scratch
}

// ---- serve -------------------------------------------------------------

mp::serve::LoadGenConfig ServeWorkload::load(std::uint64_t seed,
                                             std::size_t requests) {
  mp::serve::LoadGenConfig lg;
  lg.seed = seed;
  lg.sessions = 16;
  lg.window = 4;
  lg.requests = requests;
  lg.mix.min_elements = 4;
  lg.mix.max_elements = std::size_t{64} << 10;
  lg.mix.size_skew = 8.0;
  lg.mix.merge_fraction = 0.2;
  lg.mix.width64_fraction = 0.2;
  return lg;
}

void ServeWorkload::setup() {
  pool = std::make_unique<ThreadPool>(static_cast<int>(kLanes) - 1);
  mp::serve::ServerConfig cfg;
  cfg.exec = Executor{pool.get(), kLanes};
  server4 = std::make_unique<mp::serve::Server>(cfg);
  cfg.exec = Executor{pool.get(), 1};
  server1 = std::make_unique<mp::serve::Server>(cfg);
  loops_ = 0;
  mp::serve::run_closed_loop(
      *server4, load(stream_seed(seed_, kStreamServe), kServeRequestsPerLoop));
}

void ServeWorkload::teardown() {
  server4.reset();
  server1.reset();
  pool.reset();
}

OpResult ServeWorkload::run(Variant variant, bool traced) {
  mp::serve::Server& server = variant == Variant::kP1 ? *server1 : *server4;
  const mp::serve::LoadGenConfig lg =
      load(stream_seed(seed_, kStreamServe + 1000 * ++loops_),
           kServeRequestsPerLoop);
  OpResult r;
  mp::serve::LoadGenReport report;
  {
    ObsMode mode(variant, traced);
    const double t0 = now_s();
    report = mp::serve::run_closed_loop(server, lg);
    r.seconds = now_s() - t0;
  }
  r.elements = static_cast<double>(report.elements);
  r.attempted = report.submitted;
  // A loop whose responses fail the loadgen's payload, FIFO or
  // conservation checks counts every request as failed.
  r.failed = report.ok()
                 ? report.rejected + report.cancelled + report.failed
                 : report.submitted;
  if (report.submitted > 0)
    mean_request_bytes_ =
        static_cast<double>(report.elements) * 4.8 /  // 20% of keys are 8 B
        static_cast<double>(report.submitted);
  return r;
}

double ServeWorkload::working_set_bytes() const {
  // In flight: sessions x window requests, payload plus result.
  const auto lg = load(0, 0);
  return static_cast<double>(lg.sessions * lg.window) * mean_request_bytes_ *
         2.0;
}

// ---- xsort -------------------------------------------------------------

void XsortWorkload::setup() {
  pool = std::make_unique<ThreadPool>(static_cast<int>(kLanes) - 1);
  input = random_keys(kXsortElems, stream_seed(seed_, kStreamXsort));
  execute(Variant::kP4, false, /*verify=*/false);
}

void XsortWorkload::teardown() {
  pool.reset();
  release(input);
}

const std::vector<std::int32_t>& XsortWorkload::expected() {
  if (expected_.size() != input.size()) {
    expected_ = input;
    std::sort(expected_.begin(), expected_.end());
  }
  return expected_;
}

OpResult XsortWorkload::run(Variant variant, bool traced) {
  return execute(variant, traced, /*verify=*/true);
}

OpResult XsortWorkload::execute(Variant variant, bool traced, bool verify) {
  mp::extmem::DeviceConfig device_config;
  device_config.realize_scale = 0.0;  // no modeled sleeps
  mp::extmem::BlockDevice device(device_config);
  mp::extmem::RunWriter<std::int32_t> writer(device);
  writer.append(input.data(), input.size());
  const mp::extmem::RunHandle handle = writer.finish();
  const mp::extmem::DeviceStats before = device.stats();

  mp::pipeline::PipelineConfig cfg;
  cfg.shards = 4;
  cfg.memory_elems = std::uint64_t{256} << 10;
  cfg.exec = Executor{pool.get(), lanes_of(variant)};

  OpResult r;
  r.attempted = 1;
  bool ok = true;
  {
    ObsMode mode(variant, traced);
    const double t0 = now_s();
    try {
      auto pipe = mp::pipeline::Pipeline<std::int32_t>::start(device, handle,
                                                              cfg);
      report = pipe.run();
    } catch (const mp::fault::FaultError& e) {
      note(std::string("xsort: typed pipeline error: ") + e.what());
      ok = false;
    }
    r.seconds = now_s() - t0;
  }
  io = device.stats();
  io.block_reads -= before.block_reads;
  io.block_writes -= before.block_writes;
  modeled_io_ms = device.modeled_io_us() / 1e3;
  device_mib = static_cast<double>(device.blocks_allocated()) *
               device_config.block_bytes / (1024.0 * 1024.0);
  if (ok && verify) {
    const std::vector<std::int32_t>& want = expected();
    mp::extmem::RunReader<std::int32_t> reader(device, report.output);
    std::size_t at = 0;
    while (ok && !reader.empty()) {
      ok = at < want.size() && reader.next() == want[at];
      ++at;
    }
    ok = ok && at == want.size();
  }
  r.elements = static_cast<double>(input.size());
  r.failed = ok ? 0 : 1;
  return r;
}

double XsortWorkload::working_set_bytes() const {
  return static_cast<double>(input.size()) * sizeof(std::int32_t) +
         device_mib * 1024.0 * 1024.0;
}

// ---- registry ----------------------------------------------------------

std::unique_ptr<Workload> make_workload(const std::string& name,
                                        std::uint64_t seed) {
  if (name == "merge") return std::make_unique<MergeWorkload>(seed);
  if (name == "sort") return std::make_unique<SortWorkload>(seed);
  if (name == "serve") return std::make_unique<ServeWorkload>(seed);
  if (name == "xsort") return std::make_unique<XsortWorkload>(seed);
  return nullptr;
}

}  // namespace perfbench
