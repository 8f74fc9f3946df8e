#include "layers.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "core/instrument.hpp"
#include "core/merge_path.hpp"
#include "kernels/kernels.hpp"
#include "kernels/sort_network.hpp"
#include "obs/percentiles.hpp"
#include "obs/trace.hpp"
#include "util/hw.hpp"
#include "util/threading.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace {

constexpr double kMiB = 1024.0 * 1024.0;

/// Median over `batches` of the per-unit time of `reps` calls of `fn`.
template <typename Fn>
double median_per_unit_ns(int batches, int reps, double units_per_rep,
                          Fn&& fn) {
  std::vector<double> per;
  for (int b = 0; b < batches; ++b) {
    const double t0 = now_s();
    for (int r = 0; r < reps; ++r) fn();
    per.push_back((now_s() - t0) * 1e9 / (reps * units_per_rep));
  }
  return median(per);
}

const mp::obs::SpanStat* find_stat(const std::vector<mp::obs::SpanStat>& stats,
                                   const char* name) {
  for (const auto& s : stats)
    if (s.name == name) return &s;
  return nullptr;
}

double ns_to_ms(std::uint64_t ns) { return static_cast<double>(ns) / 1e6; }

/// Records the layer-sum check of one decomposition.
void check_layer_sum(const char* what, double rows_ms, double e2e_ms,
                     Result& result) {
  const double frac = e2e_ms > 0.0 ? rows_ms / e2e_ms : 0.0;
  const bool ok = std::fabs(1.0 - frac) <= kLayerSumTolerance;
  note(std::string(what) + " layer sum: rows " + std::to_string(rows_ms) +
       " ms vs end-to-end " + std::to_string(e2e_ms) + " ms (tolerance " +
       std::to_string(kLayerSumTolerance) + ")" + (ok ? "" : " FAILED"));
  if (!ok) result.checks_ok = false;
}

// ---- kernels, pool, roofline -----------------------------------------

/// Returns the 4-thread memcpy bandwidth (GB/s, bytes read + written).
double kernel_pool_roofline_rows(std::uint64_t seed, mp::ThreadPool& pool,
                                 Result& result) {
  const mp::kernels::Kernel kernel = mp::kernels::selected_kernel();
  note(std::string("kernels.selected = ") + mp::kernels::to_string(kernel) +
       " (" + mp::kernels::kernel_banner() + ")");

  {
    const std::size_t n = std::size_t{16} << 10;  // 2 x 16 Ki: in L2
    const auto a = sorted_keys(n, stream_seed(seed, 101));
    const auto b = sorted_keys(n, stream_seed(seed, 102));
    std::vector<std::int32_t> out(2 * n), want(2 * n);
    const double ns = median_per_unit_ns(7, 200, 2.0 * n, [&] {
      std::size_t i = 0, j = 0;
      mp::kernels::merge_steps_auto(a.data(), n, b.data(), n, &i, &j,
                                    out.data(), 2 * n);
    });
    std::merge(a.begin(), a.end(), b.begin(), b.end(), want.begin());
    result.count(out == want);
    result.add("kernels.merge32_l2_ns_per_elem", ns, "ns/elem");
  }
  {
    constexpr std::size_t kRun = 24;  // the sort's base-case run length
    const std::size_t n = kRun * 43690;
    const auto input = random_keys(n, stream_seed(seed, 103));
    std::vector<std::int32_t> buf(n);
    std::vector<double> per;
    for (int batch = 0; batch < 7; ++batch) {
      std::memcpy(buf.data(), input.data(), n * sizeof(std::int32_t));
      const double t0 = now_s();
      for (std::size_t off = 0; off < n; off += kRun)
        mp::kernels::sort_small_auto(buf.data() + off, kRun);
      per.push_back((now_s() - t0) * 1e9 / static_cast<double>(n));
    }
    bool ok = true;
    for (std::size_t off = 0; off < n; off += kRun)
      ok = ok && std::is_sorted(buf.data() + off, buf.data() + off + kRun);
    result.count(ok);
    result.add("kernels.sort_small_ns_per_elem", median(per), "ns/elem");
  }
  result.add("kernels.selected_id", static_cast<double>(kernel), "enum");

  result.add("pool.fork_join_us",
             median_per_unit_ns(7, 500, 1.0,
                                [&] {
                                  pool.parallel_for_lanes(kLanes,
                                                          [](unsigned) {});
                                }) /
                 1e3,
             "us");

  // memcpy roofline: each buffer is 4x the LLC util/hw reports.
  const std::size_t llc = mp::host_info().llc_bytes();
  const std::size_t bytes = (4 * llc + 4095) / 4096 * 4096;
  note("roofline buffers: 2 x " + std::to_string(bytes / kMiB) +
       " MiB (4 x LLC " + std::to_string(llc / kMiB) +
       " MiB each); GB/s counts bytes read + written");
  std::unique_ptr<char[]> src(new char[bytes]);
  std::unique_ptr<char[]> dst(new char[bytes]);
  std::memset(src.get(), 1, bytes);
  std::memset(dst.get(), 0, bytes);
  std::vector<double> one, four;
  for (int rep = 0; rep < 3; ++rep) {
    double t0 = now_s();
    std::memcpy(dst.get(), src.get(), bytes);
    one.push_back(now_s() - t0);
    t0 = now_s();
    pool.parallel_for_lanes(kLanes, [&](unsigned lane) {
      const std::size_t lo = lane * bytes / kLanes;
      const std::size_t hi = (lane + 1) * bytes / kLanes;
      std::memcpy(dst.get() + lo, src.get() + lo, hi - lo);
    });
    four.push_back(now_s() - t0);
  }
  const double gbs1 = 2.0 * bytes / median(one) / 1e9;
  const double gbs4 = 2.0 * bytes / median(four) / 1e9;
  result.add("roofline.memcpy_1t_gbs", gbs1, "GB/s");
  result.add("roofline.memcpy_4t_gbs", gbs4, "GB/s");
  return gbs4;
}

// ---- core.partition, core.merge, baseline ----------------------------

void merge_rows(std::uint64_t seed, double memcpy_4t_gbs, Result& result) {
  MergeWorkload m(seed);
  m.setup();
  const std::size_t n = kMergeElems;

  double t0 = now_s();
  std::merge(m.a.begin(), m.a.end(), m.b.begin(), m.b.end(), m.out.begin());
  const double std_s = now_s() - t0;
  result.count(m.output_fingerprint() == m.expected_fingerprint());

  // One thread through the kernel entry point over the whole arrays.
  std::fill(m.out.begin(), m.out.end(), -1);
  t0 = now_s();
  {
    std::size_t i = 0, j = 0;
    mp::kernels::merge_steps_auto(m.a.data(), n, m.b.data(), n, &i, &j,
                                  m.out.data(), 2 * n);
  }
  const double dram_s = now_s() - t0;
  result.count(m.output_fingerprint() == m.expected_fingerprint());

  std::vector<double> p4;
  for (int rep = 0; rep < 3; ++rep) {
    const OpResult r = m.run(Variant::kP4, false);
    tally(result, r);
    p4.push_back(r.seconds);
  }
  const OpResult p1 = m.run(Variant::kP1, false);
  tally(result, p1);

  std::vector<double> lane_max, lane_mean, search_ms;
  for (int rep = 0; rep < 2; ++rep) {
    const OpResult r = m.run(Variant::kP4, true);
    tally(result, r);
    const auto events = mp::obs::trace_snapshot();
    const auto lanes = span_durations_ms(events, "merge.segment");
    if (!lanes.empty()) {
      lane_max.push_back(*std::max_element(lanes.begin(), lanes.end()));
      double sum = 0.0;
      for (const double ms : lanes) sum += ms;
      lane_mean.push_back(sum / static_cast<double>(lanes.size()));
    }
    for (const double ms : span_durations_ms(events, "merge.partition"))
      search_ms.push_back(ms);
  }

  // Exact search steps at the 4-lane diagonals (Theorem 14's bound).
  mp::OpCounts steps;
  for (unsigned lane = 0; lane < kLanes; ++lane)
    mp::path_point_on_diagonal(m.a.data(), n, m.b.data(), n,
                               lane * 2 * n / kLanes, std::less<>{}, &steps);

  const double bytes = 4.0 * n * sizeof(std::int32_t);  // read A, B; write out
  const double gbs = bytes / median(p4) / 1e9;
  result.add("baseline.std_merge_ms", std_s * 1e3, "ms");
  result.add("kernels.merge32_dram_ns_per_elem", dram_s * 1e9 / (2.0 * n),
             "ns/elem");
  result.add("merge.p1_overhead_vs_std", p1.seconds / std_s, "x");
  result.add("merge.p4_computed_gbs", gbs, "GB/s");
  result.add("merge.p4_roofline_frac", gbs / memcpy_4t_gbs, "ratio");
  result.add("partition.search_us", median(search_ms) * 1e3, "us");
  result.add("partition.search_steps",
             static_cast<double>(steps.search_steps), "count");
  const double lmax = median(lane_max), lmean = median(lane_mean);
  result.add("merge.lane_ms_max", lmax, "ms");
  result.add("merge.lane_ms_mean", lmean, "ms");
  result.add("merge.lane_imbalance", lmean > 0.0 ? lmax / lmean : 0.0,
             "ratio");
  note("merge.p4_computed_gbs is computed from array sizes (" +
       std::to_string(bytes / kMiB) + " MiB per call), not measured traffic");
  m.teardown();
}

// ---- core.sort -------------------------------------------------------

void sort_rows(std::uint64_t seed, Result& result) {
  SortWorkload s(seed);
  s.setup();

  std::vector<std::int32_t> copy = s.input;
  double t0 = now_s();
  std::stable_sort(copy.begin(), copy.end());
  const double std_s = now_s() - t0;
  result.count(copy == s.expected());

  std::vector<double> p4, faults;
  for (int rep = 0; rep < 3; ++rep) {
    const std::uint64_t f0 = minor_faults();
    const OpResult r = s.run(Variant::kP4, false);
    faults.push_back(static_cast<double>(minor_faults() - f0));
    tally(result, r);
    p4.push_back(r.seconds);
  }
  const OpResult metrics = s.run(Variant::kMetrics, false);
  tally(result, metrics);

  // Caller-thread critical path of a traced p = 4 sort. At p = 4 the two
  // merge rounds leave the result in place, so sort.copyback never runs;
  // it is charged to the rounds row.
  const std::vector<std::pair<const char*, const char*>> rows{
      {"sort.block", "block"},
      {"sort.round", "rounds"},
      {"sort.copyback", "rounds"},
      {"pool.barrier", "barrier"}};
  double block = 0, rounds = 0, barrier = 0, self = 0, sum = 0, e2e = 0;
  constexpr int kTraced = 2;
  for (int rep = 0; rep < kTraced; ++rep) {
    const OpResult r = s.run(Variant::kP4, true);
    tally(result, r);
    const Decomposition d = decompose(mp::obs::trace_snapshot(), "sort", rows);
    block += d.row("block") / kTraced;
    rounds += d.row("rounds") / kTraced;
    barrier += d.row("barrier") / kTraced;
    self += d.row("self") / kTraced;
    sum += d.total() / kTraced;
    e2e += r.seconds * 1e3 / kTraced;
  }
  check_layer_sum("sort", sum, e2e, result);

  result.add("baseline.std_stable_sort_ms", std_s * 1e3, "ms");
  result.add("sort.block_ms", block, "ms");
  result.add("sort.rounds_ms", rounds, "ms");
  result.add("sort.barrier_ms", barrier, "ms");
  result.add("sort.self_ms", self, "ms");
  result.add("sort.layer_sum_frac", e2e > 0 ? sum / e2e : 0.0, "ratio");
  result.add("sort.unassigned_frac", e2e > 0 ? self / e2e : 0.0, "ratio");
  result.add("sort.minor_faults", median(faults), "count");
  result.add("sort.metrics_overhead_x", metrics.seconds / median(p4), "x");
  s.teardown();
}

// ---- serve -----------------------------------------------------------

void serve_rows(std::uint64_t seed, Result& result) {
  ServeWorkload sv(seed);
  sv.setup();
  const mp::serve::ServerStats before = sv.server4->stats();
  const OpResult r = sv.run(Variant::kP4, true);
  tally(result, r);
  const mp::serve::ServerStats after = sv.server4->stats();
  const auto stats = mp::obs::span_stats_snapshot();

  const auto pct = [&](const char* name, bool p99) {
    const mp::obs::SpanStat* s = find_stat(stats, name);
    return s ? ns_to_ms(p99 ? s->p99_ns : s->p50_ns) : 0.0;
  };
  result.add("serve.queue_wait_p50_ms", pct("serve.queue_wait", false), "ms");
  result.add("serve.queue_wait_p99_ms", pct("serve.queue_wait", true), "ms");
  result.add("serve.service_p50_ms", pct("serve.service", false), "ms");
  result.add("serve.service_p99_ms", pct("serve.service", true), "ms");
  result.add("serve.request_p50_ms", pct("serve.request", false), "ms");
  result.add("serve.request_p99_ms", pct("serve.request", true), "ms");
  const auto batches =
      static_cast<double>(after.batches - before.batches);
  const auto batched =
      static_cast<double>(after.batched_requests - before.batched_requests);
  const auto solo =
      static_cast<double>(after.solo_requests - before.solo_requests);
  const auto accepted = static_cast<double>(after.accepted - before.accepted);
  result.add("serve.batches", batches, "count");
  result.add("serve.requests_per_batch",
             batches > 0 ? (batched + solo) / batches : 0.0, "ratio");
  result.add("serve.batched_frac", accepted > 0 ? batched / accepted : 0.0,
             "ratio");
  result.add("serve.rejected",
             static_cast<double>(after.rejected - before.rejected), "count");
  result.add("serve.degraded_batches",
             static_cast<double>(after.degraded_batches -
                                 before.degraded_batches),
             "count");
  note("serve percentiles come from span-stat histograms (relative error <= " +
       std::to_string(mp::obs::kSpanStatsRelativeError) + ")");
  sv.teardown();
}

// ---- pipeline, extmem, dist ------------------------------------------

void xsort_rows(std::uint64_t seed, Result& result) {
  XsortWorkload x(seed);
  x.setup();
  const OpResult r = x.run(Variant::kP4, true);
  tally(result, r);
  const Decomposition d = decompose(
      mp::obs::trace_snapshot(), "pipe.sort",
      {{"pipe.form", "form"},
       {"pipe.segment", "merge"},
       {"pipe.select", "exchange"},
       {"pipe.exchange", "exchange"},
       {"pipe.checkpoint", "checkpoint"}});
  const auto stats = mp::obs::span_stats_snapshot();
  const mp::obs::SpanStat* io = find_stat(stats, "pipe.io");
  const double e2e = r.seconds * 1e3;
  const double sum = d.total();
  check_layer_sum("xsort", sum, e2e, result);

  result.add("pipe.form_ms", d.row("form"), "ms");
  result.add("pipe.merge_ms", d.row("merge"), "ms");
  result.add("pipe.exchange_ms", d.row("exchange"), "ms");
  result.add("pipe.checkpoint_ms", d.row("checkpoint"), "ms");
  result.add("pipe.self_ms", d.row("self"), "ms");
  result.add("pipe.layer_sum_frac", e2e > 0 ? sum / e2e : 0.0, "ratio");
  result.add("pipe.io_ms", io ? ns_to_ms(io->sum_ns) : 0.0, "ms");
  result.add("extmem.block_reads", static_cast<double>(x.io.block_reads),
             "count");
  result.add("extmem.block_writes", static_cast<double>(x.io.block_writes),
             "count");
  result.add("pipe.checkpoints", static_cast<double>(x.report.checkpoints),
             "count");
  result.add("dist.messages", static_cast<double>(x.report.net.messages),
             "count");
  result.add("dist.bytes", static_cast<double>(x.report.net.bytes), "B");
  note("pipe.io_ms runs on the I/O thread, overlapped, outside the sum; "
       "extmem.modeled_io_ms = " + std::to_string(x.modeled_io_ms) +
       " (device model, not measured)");
  x.teardown();
}

}  // namespace

void run_layer_suite(std::uint64_t seed, Result& result) {
  result.add("host.effective_cpus", effective_cpus(kLanes), "cpus");
  double memcpy_4t_gbs = 0.0;
  {
    mp::ThreadPool pool(static_cast<int>(kLanes) - 1);
    memcpy_4t_gbs = kernel_pool_roofline_rows(seed, pool, result);
  }
  merge_rows(seed, memcpy_4t_gbs, result);
  sort_rows(seed, result);
  serve_rows(seed, result);
  xsort_rows(seed, result);
}

}  // namespace perfbench
