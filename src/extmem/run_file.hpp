#pragma once
/// \file run_file.hpp
/// Sorted-run storage on a BlockDevice: sequential writers and buffered
/// readers with block-granular I/O. Element type is trivially copyable
/// (the on-"disk" format is raw little-endian memory, as an internal
/// sort-spill format would be).
///
/// Fault handling: both endpoints drive the device through its fallible
/// try_* API with a bounded retry-with-backoff loop (fault::RetryPolicy).
/// Transient faults (EINTR, short transfers) are retried with modeled
/// exponential backoff charged to the device clock; permanent faults
/// (ENOSPC, media errors) and exhausted retries surface as the typed
/// IoError. A writer abandoned mid-run releases every block it flushed,
/// so failed operations leave no garbage on the device.

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <string>
#include <type_traits>
#include <vector>

#include "extmem/block_device.hpp"
#include "fault/fault.hpp"
#include "obs/flight.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "util/assert.hpp"

namespace mp::extmem {

/// Descriptor of one run on the device.
struct RunHandle {
  std::uint64_t first_block = 0;
  std::uint64_t element_count = 0;

  friend bool operator==(const RunHandle&, const RunHandle&) = default;
};

namespace detail {

/// Shared retry loop: attempts `op()` (returning IoStatus) up to
/// max_attempts times, charging doubled modeled backoff between tries.
/// Returns the number of retries performed, and adds each one to the
/// `extmem.retries` counter as it happens; throws IoError on a permanent
/// status or when attempts run out. With retry.jitter > 0 and a fault plan
/// attached, each backoff is scaled by a seeded draw from
/// [1 - jitter, 1] (the plan's jitter stream, independent of its decision
/// stream) so lanes that fault in lockstep de-synchronize their retries.
template <typename Op>
std::uint64_t retry_io(BlockDevice& device, const fault::RetryPolicy& retry,
                       std::uint64_t block, const char* what, Op op) {
  double backoff = retry.backoff_us;
  const unsigned attempts = retry.max_attempts < 1 ? 1 : retry.max_attempts;
  for (unsigned attempt = 1;; ++attempt) {
    const IoStatus status = op();
    if (status == IoStatus::kOk) return attempt - 1;
    if (status == IoStatus::kNoSpace || status == IoStatus::kMediaError ||
        attempt >= attempts) {
      obs::flight_report_degraded("extmem.permanent");
      throw IoError(status, block,
                    std::string(what) + " block " + std::to_string(block) +
                        ": " + to_string(status) +
                        (status == IoStatus::kInterrupted ||
                                 status == IoStatus::kShortTransfer
                             ? " (retries exhausted)"
                             : ""));
    }
    obs::Span::instant("xsort.retry", "block", block);
    static obs::Counter& retries =
        obs::MetricsRegistry::instance().counter("extmem.retries");
    retries.add(1);
    double wait = backoff;
    if (retry.jitter > 0.0) {
      if (fault::FaultPlan* plan = device.fault_plan())
        wait *= 1.0 - retry.jitter * plan->jitter01();
    }
    device.charge_latency(wait);
    backoff *= 2.0;
  }
}

}  // namespace detail

/// Streams elements out to freshly allocated blocks.
template <typename T>
class RunWriter {
  static_assert(std::is_trivially_copyable_v<T>);

 public:
  explicit RunWriter(BlockDevice& device, fault::RetryPolicy retry = {})
      : device_(&device), retry_(retry) {
    buffer_.reserve(elems_per_block());
  }

  std::size_t elems_per_block() const {
    return device_->config().block_bytes / sizeof(T);
  }

  void append(const T& value) {
    buffer_.push_back(value);
    if (buffer_.size() == elems_per_block()) flush_block();
  }

  void append(const T* values, std::size_t count) {
    for (std::size_t i = 0; i < count; ++i) append(values[i]);
  }

  /// Flushes the tail and returns the finished run's handle. The writer
  /// may be reused for a new run afterwards.
  RunHandle finish() {
    if (!buffer_.empty()) flush_block();
    RunHandle handle{first_block_, written_};
    first_block_ = kUnset;
    written_ = 0;
    blocks_flushed_ = 0;
    return handle;
  }

  /// Abandons the in-progress run: drops buffered data and releases every
  /// block already flushed for it. Recovery paths call this so a failed
  /// sort leaves no partial run behind. The writer is reusable afterwards.
  void abandon() {
    buffer_.clear();
    if (first_block_ != kUnset)
      device_->release_blocks(first_block_, blocks_flushed_);
    first_block_ = kUnset;
    written_ = 0;
    blocks_flushed_ = 0;
  }

  /// Transient-fault retries performed over this writer's lifetime.
  std::uint64_t retries() const { return retries_; }

 private:
  static constexpr std::uint64_t kUnset = ~0ull;

  void flush_block() {
    // allocate() may throw IoError(kNoSpace); the caller's recovery path
    // abandons the writer, releasing earlier blocks of this run.
    const std::uint64_t block = device_->allocate(1);
    if (first_block_ == kUnset) first_block_ = block;
    retries_ += detail::retry_io(
        *device_, retry_, block, "write", [&] {
          return device_->try_write_block(
              block, buffer_.data(),
              static_cast<std::uint32_t>(buffer_.size() * sizeof(T)));
        });
    ++blocks_flushed_;
    written_ += buffer_.size();
    buffer_.clear();
  }

  BlockDevice* device_;
  fault::RetryPolicy retry_;
  std::vector<T> buffer_;
  std::uint64_t first_block_ = kUnset;
  std::uint64_t written_ = 0;
  std::uint64_t blocks_flushed_ = 0;
  std::uint64_t retries_ = 0;
};

/// Buffered sequential reader over a run. Holds one block in memory —
/// the B-sized buffer of the Aggarwal-Vitter I/O model.
template <typename T>
class RunReader {
  static_assert(std::is_trivially_copyable_v<T>);

 public:
  RunReader(BlockDevice& device, RunHandle handle,
            fault::RetryPolicy retry = {})
      : device_(&device), handle_(handle), retry_(retry) {
    buffer_.resize(elems_per_block());
  }

  /// Windowed reader over elements [offset, offset + count) of the run.
  /// The pipeline's resume path and co-rank fragment fetches start
  /// mid-run; the first refill lands mid-block and the cursor picks up
  /// from there.
  RunReader(BlockDevice& device, RunHandle handle, std::uint64_t offset,
            std::uint64_t count, fault::RetryPolicy retry = {})
      : RunReader(device, handle, retry) {
    MP_ASSERT(offset + count <= handle.element_count);
    consumed_ = offset;
    handle_.element_count = offset + count;
  }

  std::size_t elems_per_block() const {
    return device_->config().block_bytes / sizeof(T);
  }

  bool empty() const { return consumed_ == handle_.element_count; }
  std::uint64_t remaining() const { return handle_.element_count - consumed_; }

  const T& peek() {
    MP_ASSERT(!empty());
    refill_if_needed();
    return buffer_[cursor_];
  }

  T next() {
    const T value = peek();
    ++cursor_;
    ++consumed_;
    return value;
  }

 private:
  void refill_if_needed() {
    if (cursor_ < valid_) return;
    const std::uint64_t block_index = consumed_ / elems_per_block();
    const std::uint64_t in_block = consumed_ % elems_per_block();
    const std::uint64_t block = handle_.first_block + block_index;
    detail::retry_io(*device_, retry_, block, "read", [&] {
      return device_->try_read_block(
          block, buffer_.data(),
          static_cast<std::uint32_t>(buffer_.size() * sizeof(T)));
    });
    valid_ = std::min<std::uint64_t>(
        elems_per_block(),
        handle_.element_count - block_index * elems_per_block());
    cursor_ = static_cast<std::size_t>(in_block);
  }

  BlockDevice* device_;
  RunHandle handle_;
  fault::RetryPolicy retry_;
  std::vector<T> buffer_;
  std::size_t cursor_ = 0;
  std::size_t valid_ = 0;
  std::uint64_t consumed_ = 0;
};

}  // namespace mp::extmem
