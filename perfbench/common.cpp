#include "common.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <iostream>
#include <thread>

#include "obs/percentiles.hpp"

namespace perfbench {

std::uint64_t stream_seed(std::uint64_t seed, std::uint64_t stream) {
  Rng rng(seed * 0x9e3779b97f4a7c15ull + stream);
  return rng.next();
}

std::vector<std::int32_t> sorted_keys(std::size_t n, std::uint64_t seed) {
  std::vector<std::int32_t> keys(n);
  Rng rng(seed);
  std::int64_t value = -(std::int64_t{1} << 30);
  std::uint64_t bits = 0;
  for (std::size_t i = 0; i < n; ++i) {
    if (i % 12 == 0) bits = rng.next();  // 12 gaps of 5 bits per draw
    value += static_cast<std::int64_t>(bits & 31u);
    bits >>= 5;
    keys[i] = static_cast<std::int32_t>(value);
  }
  return keys;
}

std::vector<std::int32_t> random_keys(std::size_t n, std::uint64_t seed) {
  std::vector<std::int32_t> keys(n);
  Rng rng(seed);
  for (std::size_t i = 0; i < n; i += 2) {
    const std::uint64_t r = rng.next();
    keys[i] = static_cast<std::int32_t>(static_cast<std::uint32_t>(r));
    if (i + 1 < n)
      keys[i + 1] =
          static_cast<std::int32_t>(static_cast<std::uint32_t>(r >> 32));
  }
  return keys;
}

double now_s() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return values[lo] + (values[hi] - values[lo]) * frac;
}

double median(std::vector<double> values) {
  return quantile(std::move(values), 0.5);
}

double peak_rss_mib() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

std::uint64_t minor_faults() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<std::uint64_t>(usage.ru_minflt);
}

namespace {

std::uint64_t spin(std::uint64_t iterations) {
  std::uint64_t x = 1;
  for (std::uint64_t i = 0; i < iterations; ++i)
    x = x * 6364136223846793005ull + 1442695040888963407ull;
  return x;
}

}  // namespace

double effective_cpus(unsigned threads) {
  constexpr std::uint64_t kIterations = std::uint64_t{1} << 25;
  std::vector<std::uint64_t> sink(threads);
  double t0 = now_s();
  sink[0] = spin(kIterations);
  const double one = now_s() - t0;
  t0 = now_s();
  {
    std::vector<std::jthread> workers;
    for (unsigned t = 0; t < threads; ++t)
      workers.emplace_back([&sink, t] { sink[t] = spin(kIterations); });
  }
  const double all = now_s() - t0;
  // Consume the results so the loops cannot be dropped.
  return sink[threads - 1] == 42 ? 0.0 : threads * one / all;
}

namespace {

inline std::uint64_t fingerprint_term(std::int32_t v, std::uint64_t index) {
  return (static_cast<std::uint64_t>(static_cast<std::uint32_t>(v)) +
          0x9e3779b97f4a7c15ull) *
         (2 * index + 1);
}

}  // namespace

std::uint64_t fingerprint(const std::int32_t* data, std::size_t n,
                          std::size_t first) {
  std::uint64_t hash = 0;
  for (std::size_t i = 0; i < n; ++i)
    hash += fingerprint_term(data[i], first + i);
  return hash;
}

FingerprintSink& FingerprintSink::operator=(std::int32_t v) {
  hash_ += fingerprint_term(v, index_++);
  return *this;
}

void arm_traced() {
  mp::obs::reset_span_stats();
  mp::obs::arm_span_stats();
  mp::obs::arm_tracing();
}

void disarm_traced() {
  mp::obs::disarm_tracing();
  mp::obs::disarm_span_stats();
}

double Decomposition::row(const std::string& label) const {
  for (const auto& [name, ms] : rows_ms)
    if (name == label) return ms;
  return 0.0;
}

double Decomposition::total() const {
  double sum = 0.0;
  for (const auto& [name, ms] : rows_ms) sum += ms;
  return sum;
}

Decomposition decompose(
    const std::vector<mp::obs::TraceEvent>& events, const char* root,
    const std::vector<std::pair<const char*, const char*>>& rows) {
  using mp::obs::EventKind;
  using mp::obs::TraceEvent;
  Decomposition out;
  for (const auto& [name, label] : rows) {
    (void)name;
    if (std::none_of(out.rows_ms.begin(), out.rows_ms.end(),
                     [&](const auto& r) { return r.first == label; }))
      out.rows_ms.emplace_back(label, 0.0);
  }
  out.rows_ms.emplace_back("self", 0.0);
  const auto charge = [&](const std::string& label, double ms) {
    for (auto& r : out.rows_ms)
      if (r.first == label) r.second += ms;
  };
  const auto row_of = [&](const char* name) -> const char* {
    for (const auto& [span, label] : rows)
      if (std::strcmp(span, name) == 0) return label;
    return nullptr;
  };

  // Snapshot order is by start time with longer spans first on ties, so a
  // parent always precedes the children it encloses.
  for (std::size_t r = 0; r < events.size(); ++r) {
    const TraceEvent& top = events[r];
    if (top.kind != EventKind::kSpan || std::strcmp(top.name, root) != 0)
      continue;
    const std::uint64_t end = top.ts_ns + top.dur_ns;
    struct Open {
      std::uint64_t end;
      std::string label;
    };
    std::vector<Open> stack{{end, "self"}};
    charge("self", static_cast<double>(top.dur_ns) / 1e6);
    for (std::size_t k = r + 1; k < events.size(); ++k) {
      const TraceEvent& e = events[k];
      if (e.ts_ns >= end) break;
      if (e.kind != EventKind::kSpan || e.tid != top.tid) continue;
      while (stack.size() > 1 && stack.back().end <= e.ts_ns) stack.pop_back();
      const std::string parent = stack.back().label;
      const char* own = row_of(e.name);
      const std::string label = own ? own : parent;
      const double ms = static_cast<double>(e.dur_ns) / 1e6;
      charge(label, ms);
      charge(parent, -ms);
      stack.push_back(Open{e.ts_ns + e.dur_ns, label});
    }
  }
  return out;
}

std::vector<double> span_durations_ms(
    const std::vector<mp::obs::TraceEvent>& events, const char* name) {
  std::vector<double> out;
  for (const auto& e : events)
    if (e.kind == mp::obs::EventKind::kSpan && std::strcmp(e.name, name) == 0)
      out.push_back(static_cast<double>(e.dur_ns) / 1e6);
  return out;
}

void note(const std::string& text) { std::cout << "# " << text << "\n"; }

void print_result(const Result& result) {
  char buf[64];
  for (const Metric& m : result.metrics) {
    std::snprintf(buf, sizeof buf, "%.6g", m.value);
    std::cout << "  " << m.name << " = " << buf << " " << m.unit << "\n";
  }
  std::cout << "{\"correct\": " << (result.correct() ? "true" : "false")
            << ", \"attempted\": " << result.attempted
            << ", \"failed\": " << result.failed << ", \"metrics\": {";
  for (std::size_t i = 0; i < result.metrics.size(); ++i) {
    const Metric& m = result.metrics[i];
    const double value = std::isfinite(m.value) ? m.value : 0.0;
    std::snprintf(buf, sizeof buf, "%.17g", value);
    std::cout << (i ? ", " : "") << "\"" << m.name << "\": {\"value\": " << buf
              << ", \"unit\": \"" << m.unit << "\"}";
  }
  std::cout << "}}" << std::endl;
}

}  // namespace perfbench
