#pragma once
/// \file common.hpp
/// Shared pieces of the perfbench driver: input generators that do not
/// depend on the library's RNG (so a change to src/ never changes the
/// inputs), timing, order statistics, process counters, output
/// fingerprints, trace decomposition and the result record that is
/// printed as the final JSON line.

#include <cstddef>
#include <cstdint>
#include <iterator>
#include <string>
#include <utility>
#include <vector>

#include "obs/trace.hpp"

namespace perfbench {

// ---- inputs ----------------------------------------------------------

/// splitmix64: the benchmark's own generator.
class Rng {
 public:
  explicit Rng(std::uint64_t seed) : state_(seed) {}
  std::uint64_t next() {
    std::uint64_t z = (state_ += 0x9e3779b97f4a7c15ull);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
  }

 private:
  std::uint64_t state_;
};

/// Independent stream `stream` of workload seed `seed`.
std::uint64_t stream_seed(std::uint64_t seed, std::uint64_t stream);

/// Sorted int32 keys from seeded random gaps in [0, 31], starting at
/// -2^30: n = 64 Mi ends below 2^31 - 1, so no key overflows. Equal keys
/// occur within and across arrays, which exercises A-priority.
std::vector<std::int32_t> sorted_keys(std::size_t n, std::uint64_t seed);

/// Uniform random int32 keys.
std::vector<std::int32_t> random_keys(std::size_t n, std::uint64_t seed);

// ---- timing and statistics ------------------------------------------

double now_s();  ///< steady_clock seconds

/// Linear-interpolated quantile, q in [0, 1]; 0 for no values.
double quantile(std::vector<double> values, double q);
double median(std::vector<double> values);

/// Peak resident set of the process so far (getrusage), MiB.
double peak_rss_mib();

/// Minor page faults of the process so far (getrusage).
std::uint64_t minor_faults();

/// How many CPUs the host gives `threads` concurrent threads right now:
/// threads x (time of a fixed compute loop on one thread) / (time of the
/// same loop on each of `threads` threads at once). On an oversubscribed
/// host this drops below `threads`, and multi-lane timings drop with it.
double effective_cpus(unsigned threads);

/// Position-sensitive 64-bit fingerprint of an int32 sequence. It is a
/// sum over elements, so the fingerprints of consecutive slices (each
/// given its position `first` in the whole) add up to the whole's.
std::uint64_t fingerprint(const std::int32_t* data, std::size_t n,
                          std::size_t first = 0);

/// Streaming form of fingerprint(): an output iterator, so a reference
/// algorithm (std::merge) can write straight into it without a buffer.
class FingerprintSink {
 public:
  FingerprintSink& operator*() { return *this; }
  FingerprintSink& operator++() { return *this; }
  FingerprintSink operator++(int) { return *this; }
  FingerprintSink& operator=(std::int32_t v);
  std::uint64_t value() const { return hash_; }

  using iterator_category = std::output_iterator_tag;
  using value_type = void;
  using difference_type = std::ptrdiff_t;
  using pointer = void;
  using reference = void;

 private:
  std::uint64_t hash_ = 0;
  std::uint64_t index_ = 0;
};

// ---- tracing ---------------------------------------------------------

/// Arms the span-stat histograms and the trace ring (the traced mode).
void arm_traced();
void disarm_traced();

/// Caller-thread decomposition of every `root` span in a trace snapshot.
/// Each span's exclusive time (its duration minus its direct children's)
/// is charged to the nearest enclosing span, itself included, whose name
/// appears in `rows` (mapped to that row's label); time with no such
/// span is charged to "self". The rows therefore sum exactly to the root
/// spans' total duration.
struct Decomposition {
  std::vector<std::pair<std::string, double>> rows_ms;  ///< incl. "self"
  double row(const std::string& label) const;
  double total() const;  ///< sum of all rows = the root spans' duration
};

Decomposition decompose(
    const std::vector<mp::obs::TraceEvent>& events, const char* root,
    const std::vector<std::pair<const char*, const char*>>& rows);

/// Durations (ms) of every span named `name`, on any thread.
std::vector<double> span_durations_ms(
    const std::vector<mp::obs::TraceEvent>& events, const char* name);

// ---- results ---------------------------------------------------------

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// What one benchmark invocation reports.
struct Result {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  bool checks_ok = true;  ///< non-op checks (layer sums) held
  std::vector<Metric> metrics;

  void add(const std::string& name, double value, const std::string& unit) {
    metrics.push_back(Metric{name, value, unit});
  }
  void count(bool ok) {
    ++attempted;
    if (!ok) ++failed;
  }
  bool correct() const { return failed == 0 && checks_ok && attempted > 0; }
};

/// Human-readable line on stdout ("# ..."), before the JSON line.
void note(const std::string& text);

/// Prints every metric as a text row, then the one-line JSON result.
void print_result(const Result& result);

}  // namespace perfbench
