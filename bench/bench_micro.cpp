// Experiment E10 (micro half) — google-benchmark microbenchmarks of the
// primitives: the diagonal binary search vs the Deo-Sarkar halving
// selection, the full path partition, the sequential merge kernels, the
// loser tree, and multiway selection — plus the kernel ablation family
// (BM_KernelMerge32/64/F32/F64 and BM_SortSmall24) that
// scripts/bench_kernels.py turns into BENCH_5.json. Carries its own
// main(): --kernel <name> is stripped before google-benchmark sees argv,
// forces the dispatch choice for every benchmark, and restricts the
// ablation family to that kernel. An unknown name exits 2; a
// known-but-unsupported one prints a skip notice and exits 0 so CI can
// request avx2/avx512 unconditionally.

#include <benchmark/benchmark.h>

#include <cstdio>
#include <cstring>
#include <string>

#include "baselines/deo_sarkar.hpp"
#include "core/merge_sort.hpp"
#include "core/mergepath.hpp"
#include "core/multiway_merge.hpp"
#include "core/segmented_merge.hpp"
#include "kernels/kernels.hpp"
#include "kernels/sort_network.hpp"
#include "obs/fastclock.hpp"
#include "obs/flight.hpp"
#include "obs/percentiles.hpp"
#include "obs/trace.hpp"
#include "util/data_gen.hpp"
#include "util/hw.hpp"
#include "util/rng.hpp"

namespace {

using namespace mp;

void BM_DiagonalIntersection(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const auto input = make_merge_input(Dist::kUniform, n, n, 42);
  Xoshiro256 rng(7);
  for (auto _ : state) {
    const std::size_t diag = rng.bounded(2 * n + 1);
    benchmark::DoNotOptimize(diagonal_intersection(
        input.a.data(), n, input.b.data(), n, diag));
  }
}
BENCHMARK(BM_DiagonalIntersection)->Arg(1 << 16)->Arg(1 << 24);

void BM_DeoSarkarSelection(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const auto input = make_merge_input(Dist::kUniform, n, n, 42);
  Xoshiro256 rng(7);
  for (auto _ : state) {
    const std::size_t k = rng.bounded(2 * n + 1);
    benchmark::DoNotOptimize(baselines::kth_element_split(
        input.a.data(), n, input.b.data(), n, k));
  }
}
BENCHMARK(BM_DeoSarkarSelection)->Arg(1 << 16)->Arg(1 << 24);

void BM_PartitionMergePath(benchmark::State& state) {
  const std::size_t n = 1 << 20;
  const auto parts = static_cast<std::size_t>(state.range(0));
  const auto input = make_merge_input(Dist::kUniform, n, n, 42);
  for (auto _ : state) {
    benchmark::DoNotOptimize(partition_merge_path(
        input.a.data(), n, input.b.data(), n, parts));
  }
}
BENCHMARK(BM_PartitionMergePath)->Arg(2)->Arg(12)->Arg(128);

void BM_MergeStepsKernel(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const auto input = make_merge_input(Dist::kUniform, n, n, 42);
  std::vector<std::int32_t> out(2 * n);
  for (auto _ : state) {
    std::size_t i = 0, j = 0;
    merge_steps(input.a.data(), n, input.b.data(), n, &i, &j, out.data(),
                2 * n);
    benchmark::DoNotOptimize(out.data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(2 * n) *
                          static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_MergeStepsKernel)->Arg(1 << 16);

void BM_ClassicMergeKernel(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const auto input = make_merge_input(Dist::kUniform, n, n, 42);
  std::vector<std::int32_t> out(2 * n);
  for (auto _ : state) {
    classic_merge(input.a.data(), n, input.b.data(), n, out.data());
    benchmark::DoNotOptimize(out.data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(2 * n) *
                          static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_ClassicMergeKernel)->Arg(1 << 16);

void BM_AdaptiveMergeKernel(benchmark::State& state) {
  // organ_pipe: the run-structured input where galloping pays.
  const auto n = static_cast<std::size_t>(state.range(0));
  const auto input = make_merge_input(Dist::kOrganPipe, n, n, 42);
  std::vector<std::int32_t> out(2 * n);
  for (auto _ : state) {
    adaptive_merge(input.a.data(), n, input.b.data(), n, out.data());
    benchmark::DoNotOptimize(out.data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(2 * n) *
                          static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_AdaptiveMergeKernel)->Arg(1 << 16);

void BM_ClassicMergeKernelOrganPipe(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const auto input = make_merge_input(Dist::kOrganPipe, n, n, 42);
  std::vector<std::int32_t> out(2 * n);
  for (auto _ : state) {
    classic_merge(input.a.data(), n, input.b.data(), n, out.data());
    benchmark::DoNotOptimize(out.data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(2 * n) *
                          static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_ClassicMergeKernelOrganPipe)->Arg(1 << 16);

void BM_LoserTreePopN(benchmark::State& state) {
  const auto k = static_cast<std::size_t>(state.range(0));
  std::vector<std::vector<std::int32_t>> runs(k);
  Xoshiro256 rng(9);
  const std::size_t per_run = (1u << 16) / k;
  for (auto& run : runs) {
    run.resize(per_run);
    for (auto& x : run) x = static_cast<std::int32_t>(rng.bounded(1 << 30));
    std::sort(run.begin(), run.end());
  }
  std::vector<std::int32_t> out(k * per_run);
  for (auto _ : state) {
    std::vector<LoserTree<std::int32_t>::Cursor> cursors(k);
    for (std::size_t t = 0; t < k; ++t)
      cursors[t] = {runs[t].data(), runs[t].data() + runs[t].size()};
    LoserTree<std::int32_t> tree(std::move(cursors));
    tree.pop_n(out.data(), out.size());
    benchmark::DoNotOptimize(out.data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(out.size()) *
                          static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_LoserTreePopN)->Arg(2)->Arg(8)->Arg(64);

void BM_MultiwaySelect(benchmark::State& state) {
  const auto k = static_cast<std::size_t>(state.range(0));
  std::vector<std::vector<std::int32_t>> runs(k);
  Xoshiro256 rng(11);
  for (auto& run : runs) {
    run.resize((1u << 20) / k);
    for (auto& x : run) x = static_cast<std::int32_t>(rng.bounded(1 << 30));
    std::sort(run.begin(), run.end());
  }
  std::vector<std::span<const std::int32_t>> views;
  for (const auto& run : runs) views.emplace_back(run.data(), run.size());
  std::size_t total = 0;
  for (const auto& run : runs) total += run.size();
  for (auto _ : state) {
    const std::size_t rank = rng.bounded(total + 1);
    benchmark::DoNotOptimize(multiway_select(
        std::span<const std::span<const std::int32_t>>(views), rank));
  }
}
BENCHMARK(BM_MultiwaySelect)->Arg(2)->Arg(8)->Arg(64);

// --- Ring-window linearization (SPM) -------------------------------------
// Prices SegmentedConfig::linearize_wrapped: the same serial segmented
// merge with wrapped ring windows either copied flat (vector segment
// loop) or walked through CyclicView (scalar segment loop). L = 192 is
// deliberately not a power of two so most windows wrap.

void run_segmented_linearize(benchmark::State& state, bool linearize) {
  constexpr std::size_t kN = 256 << 10;
  const auto input = make_merge_input(Dist::kUniform, kN, kN, 42);
  std::vector<std::int32_t> out(2 * kN);
  SegmentedConfig config;
  config.segment_length = 192;
  config.linearize_wrapped = linearize;
  for (auto _ : state) {
    segmented_parallel_merge(input.a.data(), kN, input.b.data(), kN,
                             out.data(), config, Executor{nullptr, 1});
    benchmark::DoNotOptimize(out.data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(2 * kN) *
                          static_cast<std::int64_t>(state.iterations()));
}

void BM_SegmentedLinearize_On(benchmark::State& state) {
  run_segmented_linearize(state, true);
}
BENCHMARK(BM_SegmentedLinearize_On);

void BM_SegmentedLinearize_Off(benchmark::State& state) {
  run_segmented_linearize(state, false);
}
BENCHMARK(BM_SegmentedLinearize_Off);

// --- Span overhead -------------------------------------------------------
// Prices one obs::Span construct/destruct edge under every consumer
// configuration the combined state byte can express, plus both clock
// sources for the fully-armed case. "disarmed" is what every instrumented
// region pays when nothing records (one atomic load); "compiled_out" is
// the MP_TRACE=0 call site (NullSpan). The trace_tsc / trace_steady pair
// isolates the clock cost: same consumers, different timestamp source.

struct SpanOverheadConfig {
  bool trace = false;
  bool stats = false;
  bool flight = false;
  obs::ClockMode clock = obs::ClockMode::kAuto;
};

void run_span_overhead(benchmark::State& state,
                       const SpanOverheadConfig& config) {
  // All consumer/clock switches are control-plane operations; flip them
  // outside the timed loop and restore the process defaults afterwards.
  const bool flight_was = obs::flight_enabled();
  obs::FastClock::set_mode(config.clock);
  obs::set_flight_enabled(config.flight);
  if (config.trace)
    obs::arm_tracing();
  else
    obs::disarm_tracing();
  obs::reset_span_stats();
  if (config.stats)
    obs::arm_span_stats();
  else
    obs::disarm_span_stats();
  for (auto _ : state) {
    obs::Span span("bench.span_overhead");
    benchmark::DoNotOptimize(&span);
  }
  obs::disarm_tracing();
  obs::reset_tracing();
  obs::disarm_span_stats();
  obs::reset_span_stats();
  obs::set_flight_enabled(flight_was);
  obs::FastClock::set_mode(obs::ClockMode::kAuto);
}

void BM_SpanOverhead_Disarmed(benchmark::State& state) {
  run_span_overhead(state, {});
}
BENCHMARK(BM_SpanOverhead_Disarmed);

void BM_SpanOverhead_FlightOnly(benchmark::State& state) {
  run_span_overhead(state, {.flight = true});
}
BENCHMARK(BM_SpanOverhead_FlightOnly);

void BM_SpanOverhead_StatsOnly(benchmark::State& state) {
  run_span_overhead(state, {.stats = true});
}
BENCHMARK(BM_SpanOverhead_StatsOnly);

void BM_SpanOverhead_TraceTsc(benchmark::State& state) {
  run_span_overhead(
      state, {.trace = true, .stats = true, .flight = true,
              .clock = obs::ClockMode::kTsc});
}
BENCHMARK(BM_SpanOverhead_TraceTsc);

void BM_SpanOverhead_TraceSteady(benchmark::State& state) {
  run_span_overhead(
      state, {.trace = true, .stats = true, .flight = true,
              .clock = obs::ClockMode::kSteady});
}
BENCHMARK(BM_SpanOverhead_TraceSteady);

void BM_SpanOverhead_CompiledOut(benchmark::State& state) {
  // The MP_TRACE=0 call-site shape, selectable in any build: NullSpan
  // swallows its arguments and carries no state.
  for (auto _ : state) {
    obs::detail::NullSpan span("bench.span_overhead");
    benchmark::DoNotOptimize(&span);
  }
}
BENCHMARK(BM_SpanOverhead_CompiledOut);

// --- Kernel ablation (BENCH_5) -------------------------------------------
// One benchmark per dispatchable kernel on a pinned input (uniform, seed
// 42, m = n = 64 Ki — in-L2 so the measurement is kernel-bound, not
// DRAM-bound). scripts/bench_kernels.py runs this family with
// --benchmark_format=json and emits results/BENCH_5.json (ns/element per
// kernel, speedup vs scalar).

constexpr std::size_t kAblationN = 1 << 16;

void run_kernel_merge32(benchmark::State& state, kernels::Kernel kernel) {
  const auto input = make_merge_input(Dist::kUniform, kAblationN, kAblationN,
                                      42);
  std::vector<std::int32_t> out(2 * kAblationN);
  const kernels::Kernel previous = kernels::selected_kernel();
  kernels::set_kernel(kernel);
  for (auto _ : state) {
    std::size_t i = 0, j = 0;
    kernels::merge_steps_auto(input.a.data(), kAblationN, input.b.data(),
                              kAblationN, &i, &j, out.data(),
                              2 * kAblationN);
    benchmark::DoNotOptimize(out.data());
  }
  kernels::set_kernel(previous);
  state.SetItemsProcessed(static_cast<std::int64_t>(2 * kAblationN) *
                          static_cast<std::int64_t>(state.iterations()));
}

void run_kernel_merge64(benchmark::State& state, kernels::Kernel kernel) {
  // Same pinned keys widened to 64 bits (order-preserving), exercising
  // the half-width lane variants.
  const auto input = make_merge_input(Dist::kUniform, kAblationN, kAblationN,
                                      42);
  std::vector<std::int64_t> a(kAblationN), b(kAblationN);
  for (std::size_t k = 0; k < kAblationN; ++k) {
    a[k] = static_cast<std::int64_t>(input.a[k]) << 16;
    b[k] = static_cast<std::int64_t>(input.b[k]) << 16;
  }
  std::vector<std::int64_t> out(2 * kAblationN);
  const kernels::Kernel previous = kernels::selected_kernel();
  kernels::set_kernel(kernel);
  for (auto _ : state) {
    std::size_t i = 0, j = 0;
    kernels::merge_steps_auto(a.data(), kAblationN, b.data(), kAblationN, &i,
                              &j, out.data(), 2 * kAblationN);
    benchmark::DoNotOptimize(out.data());
  }
  kernels::set_kernel(previous);
  state.SetItemsProcessed(static_cast<std::int64_t>(2 * kAblationN) *
                          static_cast<std::int64_t>(state.iterations()));
}

void run_kernel_merge_f32(benchmark::State& state, kernels::Kernel kernel) {
  // Total-order float mode row: the pinned keys as floats (monotone
  // conversion; mantissa rounding adds extra ties, which is the harder
  // case), merged under TotalOrderLess so dispatch admits the vector
  // path via the sign-flip key bijection.
  const auto input = make_merge_input(Dist::kUniform, kAblationN, kAblationN,
                                      42);
  std::vector<float> a(kAblationN), b(kAblationN);
  for (std::size_t k = 0; k < kAblationN; ++k) {
    a[k] = static_cast<float>(input.a[k]);
    b[k] = static_cast<float>(input.b[k]);
  }
  std::vector<float> out(2 * kAblationN);
  const kernels::Kernel previous = kernels::selected_kernel();
  kernels::set_kernel(kernel);
  for (auto _ : state) {
    std::size_t i = 0, j = 0;
    kernels::merge_steps_auto(a.data(), kAblationN, b.data(), kAblationN, &i,
                              &j, out.data(), 2 * kAblationN,
                              kernels::TotalOrderLess{});
    benchmark::DoNotOptimize(out.data());
  }
  kernels::set_kernel(previous);
  state.SetItemsProcessed(static_cast<std::int64_t>(2 * kAblationN) *
                          static_cast<std::int64_t>(state.iterations()));
}

void run_kernel_merge_f64(benchmark::State& state, kernels::Kernel kernel) {
  const auto input = make_merge_input(Dist::kUniform, kAblationN, kAblationN,
                                      42);
  std::vector<double> a(kAblationN), b(kAblationN);
  for (std::size_t k = 0; k < kAblationN; ++k) {
    a[k] = static_cast<double>(input.a[k]) * 1.25;
    b[k] = static_cast<double>(input.b[k]) * 1.25;
  }
  std::vector<double> out(2 * kAblationN);
  const kernels::Kernel previous = kernels::selected_kernel();
  kernels::set_kernel(kernel);
  for (auto _ : state) {
    std::size_t i = 0, j = 0;
    kernels::merge_steps_auto(a.data(), kAblationN, b.data(), kAblationN, &i,
                              &j, out.data(), 2 * kAblationN,
                              kernels::TotalOrderLess{});
    benchmark::DoNotOptimize(out.data());
  }
  kernels::set_kernel(previous);
  state.SetItemsProcessed(static_cast<std::int64_t>(2 * kAblationN) *
                          static_cast<std::int64_t>(state.iterations()));
}

// Sort base case at the merge-sort grain: 64 Ki keys sorted as
// independent kInsertionSortThreshold-element runs, fresh (unsorted)
// bytes every iteration via a timed memcpy both variants pay
// identically. The "insertion" row calls the fallback directly; the
// per-kernel rows go through sort_small_auto, which takes the network
// path under any vector kernel.
void run_sort_small(benchmark::State& state, kernels::Kernel kernel,
                    bool force_insertion) {
  // Unsorted keys, not make_merge_input (whose arrays are pre-sorted —
  // insertion sort would run its O(n) best case and the comparison would
  // be meaningless).
  std::vector<std::int32_t> pristine(kAblationN);
  Xoshiro256 rng(42);
  for (auto& x : pristine) x = static_cast<std::int32_t>(rng.bounded(1u << 30));
  std::vector<std::int32_t> data(kAblationN);
  const kernels::Kernel previous = kernels::selected_kernel();
  kernels::set_kernel(kernel);
  constexpr std::size_t kGrain = detail::kInsertionSortThreshold;
  for (auto _ : state) {
    std::memcpy(data.data(), pristine.data(),
                kAblationN * sizeof(std::int32_t));
    for (std::size_t begin = 0; begin < kAblationN; begin += kGrain) {
      const std::size_t len = std::min(kGrain, kAblationN - begin);
      if (force_insertion) {
        kernels::detail::insertion_sort_fallback(
            data.data() + begin, len, std::less<>{},
            static_cast<NoInstrument*>(nullptr));
      } else {
        kernels::sort_small_auto(data.data() + begin, len);
      }
    }
    benchmark::DoNotOptimize(data.data());
  }
  kernels::set_kernel(previous);
  state.SetItemsProcessed(static_cast<std::int64_t>(kAblationN) *
                          static_cast<std::int64_t>(state.iterations()));
}

void register_kernel_ablation(bool restrict_to_selected) {
  benchmark::RegisterBenchmark(
      "BM_SortSmall24/insertion", [](benchmark::State& state) {
        run_sort_small(state, kernels::Kernel::kScalar, true);
      });
  for (const kernels::Kernel kernel : kernels::kAllKernels) {
    if (!kernels::kernel_supported(kernel)) continue;
    if (restrict_to_selected && kernel != kernels::selected_kernel())
      continue;
    const std::string name = kernels::to_string(kernel);
    benchmark::RegisterBenchmark(
        ("BM_KernelMerge32/" + name).c_str(),
        [kernel](benchmark::State& state) {
          run_kernel_merge32(state, kernel);
        });
    benchmark::RegisterBenchmark(
        ("BM_KernelMerge64/" + name).c_str(),
        [kernel](benchmark::State& state) {
          run_kernel_merge64(state, kernel);
        });
    benchmark::RegisterBenchmark(
        ("BM_KernelMergeF32/" + name).c_str(),
        [kernel](benchmark::State& state) {
          run_kernel_merge_f32(state, kernel);
        });
    benchmark::RegisterBenchmark(
        ("BM_KernelMergeF64/" + name).c_str(),
        [kernel](benchmark::State& state) {
          run_kernel_merge_f64(state, kernel);
        });
    benchmark::RegisterBenchmark(
        ("BM_SortSmall24/" + name).c_str(),
        [kernel](benchmark::State& state) {
          run_sort_small(state, kernel, false);
        });
  }
}

}  // namespace

int main(int argc, char** argv) {
  // Pre-parse --kernel: google-benchmark rejects flags it doesn't know,
  // and the dispatch choice must be applied before registration.
  std::string forced;
  std::vector<char*> args;
  args.push_back(argv[0]);
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--kernel") == 0) {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "error: --kernel needs a value "
                             "(scalar|sse4|avx2|avx512)\n");
        return 2;
      }
      forced = argv[++i];
    } else if (std::strncmp(argv[i], "--kernel=", 9) == 0) {
      forced = argv[i] + 9;
    } else {
      args.push_back(argv[i]);
    }
  }
  if (!forced.empty()) {
    const auto kernel = kernels::parse_kernel(forced);
    if (!kernel) {
      std::fprintf(stderr,
                   "error: unknown --kernel '%s' "
                   "(scalar|sse4|avx2|avx512)\n",
                   forced.c_str());
      return 2;
    }
    if (!kernels::set_kernel(*kernel)) {
      // Graceful skip: CI asks for avx2 unconditionally and treats a
      // host without it as "nothing to measure", not a failure.
      std::printf("bench_micro: kernel %s not supported on this host/build "
                  "(%s); skipping\n",
                  forced.c_str(), kernels::kernel_banner().c_str());
      return 0;
    }
  }
  // stderr: --benchmark_format=json readers own stdout.
  std::fprintf(stderr, "bench_micro: %s; host: %s\n",
               kernels::kernel_banner().c_str(),
               describe(host_info()).c_str());
  register_kernel_ablation(!forced.empty());

  int bargc = static_cast<int>(args.size());
  benchmark::Initialize(&bargc, args.data());
  if (benchmark::ReportUnrecognizedArguments(bargc, args.data())) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
