#pragma once
/// \file workloads.hpp
/// The four workloads. Each one has a set-up (input generation, pool
/// start, one warm-up operation) and one operation that it runs in three
/// variants, all through the library's public entry points:
///   - kP4:      the production path on 4 lanes;
///   - kP1:      the same path on 1 lane of the same pool;
///   - kMetrics: kP4 as a tool's --metrics flag runs it (lane metrics and
///               span statistics armed, plus per-lane OpCounts where the
///               entry point takes them).
/// Every operation's output is checked outside its timed region.

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "common.hpp"
#include "extmem/block_device.hpp"
#include "pipeline/pipeline.hpp"
#include "serve/loadgen.hpp"
#include "serve/serve.hpp"
#include "util/threading.hpp"

namespace perfbench {

enum class Variant { kP4, kP1, kMetrics };

/// One verified operation.
struct OpResult {
  double seconds = 0.0;              ///< timed region only
  double elements = 0.0;             ///< output elements produced
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
};

class Workload {
 public:
  virtual ~Workload() = default;
  /// Generates inputs, starts the pool, runs one warm-up operation.
  virtual void setup() = 0;
  /// Releases everything setup() built.
  virtual void teardown() = 0;
  /// One operation; `traced` arms span statistics and the trace ring
  /// around it.
  virtual OpResult run(Variant variant, bool traced) = 0;
  /// Bytes one operation touches, for the working-set-to-LLC note.
  virtual double working_set_bytes() const = 0;
};

// Sizes and mixes are part of the workload definitions.
inline constexpr std::size_t kMergeElems = std::size_t{64} << 20;  // per array
inline constexpr std::size_t kSortElems = std::size_t{8} << 20;
inline constexpr std::size_t kXsortElems = std::size_t{4} << 20;
inline constexpr unsigned kLanes = 4;
inline constexpr std::size_t kServeRequestsPerLoop = 2048;

/// Seed streams. The layer suite draws its merge, sort, serve and xsort
/// inputs from the same streams as the workloads.
inline constexpr std::uint64_t kStreamMergeA = 1;
inline constexpr std::uint64_t kStreamMergeB = 2;
inline constexpr std::uint64_t kStreamSort = 3;
inline constexpr std::uint64_t kStreamServe = 4;
inline constexpr std::uint64_t kStreamXsort = 5;

/// Lane count of a variant.
unsigned lanes_of(Variant variant);

/// Adds an operation's attempted and failed counts to `result`.
void tally(Result& result, const OpResult& op);

class MergeWorkload : public Workload {
 public:
  explicit MergeWorkload(std::uint64_t seed) : seed_(seed) {}
  void setup() override;
  void teardown() override;
  OpResult run(Variant variant, bool traced) override;
  double working_set_bytes() const override;

  /// std::merge of the inputs, hashed as it is produced (no buffer).
  std::uint64_t expected_fingerprint();
  /// fingerprint() of `out`, computed on the pool's lanes.
  std::uint64_t output_fingerprint();

  std::unique_ptr<mp::ThreadPool> pool;
  std::vector<std::int32_t> a, b, out;

 private:
  std::uint64_t seed_;
  std::optional<std::uint64_t> expected_;
};

class SortWorkload : public Workload {
 public:
  explicit SortWorkload(std::uint64_t seed) : seed_(seed) {}
  void setup() override;
  void teardown() override;
  OpResult run(Variant variant, bool traced) override;
  double working_set_bytes() const override;

  /// std::stable_sort of the input (computed once, outside any timing).
  const std::vector<std::int32_t>& expected();

  std::unique_ptr<mp::ThreadPool> pool;
  std::vector<std::int32_t> input, data;

 private:
  std::uint64_t seed_;
  std::vector<std::int32_t> expected_;
};

class ServeWorkload : public Workload {
 public:
  explicit ServeWorkload(std::uint64_t seed) : seed_(seed) {}
  void setup() override;
  void teardown() override;
  OpResult run(Variant variant, bool traced) override;
  double working_set_bytes() const override;

  /// The closed loop's request mix and client shape.
  static mp::serve::LoadGenConfig load(std::uint64_t seed,
                                       std::size_t requests);

  // Declared after the pool: the servers' dispatchers submit to it, so
  // they must be destroyed first.
  std::unique_ptr<mp::ThreadPool> pool;
  std::unique_ptr<mp::serve::Server> server4, server1;

 private:
  std::uint64_t seed_;
  std::uint64_t loops_ = 0;
  double mean_request_bytes_ = 0.0;
};

class XsortWorkload : public Workload {
 public:
  explicit XsortWorkload(std::uint64_t seed) : seed_(seed) {}
  void setup() override;
  void teardown() override;
  OpResult run(Variant variant, bool traced) override;
  double working_set_bytes() const override;

  /// std::sort of the input (computed once, outside any timing).
  const std::vector<std::int32_t>& expected();

  std::unique_ptr<mp::ThreadPool> pool;
  std::vector<std::int32_t> input;
  // What the latest run did (block I/O is counted from after the input
  // was written to the device).
  mp::pipeline::PipelineReport report;
  mp::extmem::DeviceStats io;
  double modeled_io_ms = 0.0;
  double device_mib = 0.0;

 private:
  OpResult execute(Variant variant, bool traced, bool verify);

  std::uint64_t seed_;
  std::vector<std::int32_t> expected_;
};

/// nullptr for an unknown name.
std::unique_ptr<Workload> make_workload(const std::string& name,
                                        std::uint64_t seed);

}  // namespace perfbench
