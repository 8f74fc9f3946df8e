/// \file main.cpp
/// perfbench: the repository's benchmark.
///
///   perfbench --workload merge|sort|serve|xsort --seed N --seconds S
///             --trace 0|1
///
/// --trace 0 prints the end-to-end metrics of the workload, measured with
/// tracing off. --trace 1 prints the per-layer metrics: the workload's own
/// p = 4 operation alternately untraced and traced (the tracing overhead),
/// then the layer suite (layers.hpp). The last line of stdout is one JSON
/// object; the exit code is 0 only when every output checked correct.
/// README.md defines every metric.

#include <cstdlib>
#include <iostream>
#include <string>
#include <vector>

#include "common.hpp"
#include "kernels/kernels.hpp"
#include "layers.hpp"
#include "util/hw.hpp"
#include "workloads.hpp"

namespace {

using namespace perfbench;

constexpr int kSetups = 5;     // setup_s is the median of these
constexpr int kMinRounds = 3;  // rounds run even if --seconds is up
constexpr double kVariantSecondsPerRound = 0.4;

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
};

[[noreturn]] void usage(const std::string& error) {
  std::cerr << "perfbench: " << error
            << "\nusage: perfbench --workload merge|sort|serve|xsort "
               "--seed N --seconds S --trace 0|1\n";
  std::exit(2);
}

Options parse(int argc, char** argv) {
  Options opt;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) usage("missing value for " + flag);
    const std::string value = argv[++i];
    try {
      if (flag == "--workload") {
        opt.workload = value;
        have_workload = true;
      } else if (flag == "--seed") {
        opt.seed = std::stoull(value);
      } else if (flag == "--seconds") {
        opt.seconds = std::stod(value);
      } else if (flag == "--trace") {
        if (value != "0" && value != "1") usage("--trace takes 0 or 1");
        opt.trace = value == "1";
      } else {
        usage("unknown flag " + flag);
      }
    } catch (const std::exception&) {
      usage("bad value for " + flag + ": " + value);
    }
  }
  if (!have_workload) usage("--workload is required");
  if (!(opt.seconds > 0.0)) usage("--seconds must be positive");
  return opt;
}

/// Keeps running rounds until --seconds have passed (and kMinRounds).
template <typename Fn>
void for_rounds(double seconds, Fn&& round) {
  const double start = now_s();
  for (int r = 0; r < kMinRounds || now_s() - start < seconds; ++r) round();
}

double melem_s(const OpResult& op) {
  return op.seconds > 0.0 ? op.elements / op.seconds / 1e6 : 0.0;
}

void end_to_end(const Options& opt, Workload& w, double setup_s,
                Result& result) {
  const double cpus_before = effective_cpus(kLanes);
  std::vector<double> p4, p1, metrics, p4_ops_s;
  double rss = 0.0;
  for_rounds(opt.seconds, [&] {
    // Each variant runs for about the same time per round, so a short
    // operation contributes as many samples as the run allows.
    for (const Variant v : {Variant::kP4, Variant::kP1, Variant::kMetrics}) {
      double spent = 0.0;
      do {
        const OpResult op = w.run(v, false);
        tally(result, op);
        spent += op.seconds;
        (v == Variant::kP4 ? p4 : v == Variant::kP1 ? p1 : metrics)
            .push_back(melem_s(op));
        if (v == Variant::kP4)
          p4_ops_s.push_back(static_cast<double>(op.attempted) / op.seconds);
      } while (spent < kVariantSecondsPerRound);
    }
    // After set-up and one round of every variant: a fixed amount of work,
    // so the row does not grow with the number of rounds the host allowed.
    if (rss == 0.0) rss = peak_rss_mib();
  });
  note("host effective CPUs for 4 threads: " + std::to_string(cpus_before) +
       " before, " + std::to_string(effective_cpus(kLanes)) + " after");

  note("samples (p4/p1/metrics): " + std::to_string(p4.size()) + "/" +
       std::to_string(p1.size()) + "/" + std::to_string(metrics.size()));
  note("p4 operations per second (requests/s, serve_rps, on serve): " +
       std::to_string(median(p4_ops_s)));
  const double llc = static_cast<double>(mp::host_info().llc_bytes());
  note("working set: " + std::to_string(w.working_set_bytes() / 1048576.0) +
       " MiB = " + std::to_string(w.working_set_bytes() / llc) + " x LLC");

  result.add("setup_s", setup_s, "s");
  result.add("peak_rss_mib", rss, "MiB");
  // Rates at the fast quartile of operations: host interference only
  // adds time, and on an oversubscribed host the fast quartile varies
  // between runs about a third as much as the median does.
  result.add("p4_melem_s", quantile(p4, 0.75), "Melem/s");
  result.add("p1_melem_s", quantile(p1, 0.75), "Melem/s");
  result.add("metrics_p4_melem_s", quantile(metrics, 0.75), "Melem/s");
}

void per_layer(const Options& opt, Workload& w, Result& result) {
  std::vector<double> plain, traced;
  for_rounds(opt.seconds, [&] {
    OpResult op = w.run(Variant::kP4, false);
    tally(result, op);
    plain.push_back(op.seconds);
    op = w.run(Variant::kP4, true);
    tally(result, op);
    traced.push_back(op.seconds);
  });
  w.teardown();  // the suite builds its own inputs
  result.add("obs.trace_overhead_frac", median(traced) / median(plain) - 1.0,
             "ratio");
  run_layer_suite(opt.seed, result);
}

}  // namespace

int main(int argc, char** argv) {
  const Options opt = parse(argc, argv);
  std::unique_ptr<Workload> w = make_workload(opt.workload, opt.seed);
  if (!w) usage("unknown workload " + opt.workload);

  const mp::HostInfo& host = mp::host_info();
  note("workload " + opt.workload + ", seed " + std::to_string(opt.seed) +
       ", seconds " + std::to_string(opt.seconds) + ", trace " +
       (opt.trace ? "1" : "0"));
  note("host: " + mp::describe(host) + "; " + mp::kernels::kernel_banner() +
       "; LLC " + std::to_string(host.llc_bytes() >> 20) + " MiB");

  std::vector<double> setups;
  for (int k = 0; k < kSetups; ++k) {
    if (k > 0) w->teardown();
    const double t0 = now_s();
    w->setup();
    setups.push_back(now_s() - t0);
  }

  Result result;
  if (opt.trace)
    per_layer(opt, *w, result);
  else
    end_to_end(opt, *w, median(setups), result);
  w.reset();
  print_result(result);
  return result.correct() ? 0 : 1;
}
