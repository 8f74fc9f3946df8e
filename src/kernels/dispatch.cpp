#include "kernels/kernels.hpp"

#include <atomic>
#include <cstdlib>
#include <iostream>
#include <mutex>

#include "util/hw.hpp"

#if MP_SIMD && (defined(MP_KERNELS_HAVE_SSE4) || defined(MP_KERNELS_HAVE_AVX2) || \
                defined(MP_KERNELS_HAVE_AVX512))
#include "kernels/simd_entry.hpp"
#endif

namespace mp::kernels {
namespace {

std::atomic<Kernel> g_selected{Kernel::kScalar};
std::once_flag g_selected_init;

void init_selected() {
  std::string warning;
  const Kernel kernel =
      detail::resolve_override(std::getenv("MP_MERGE_KERNEL"), &warning);
  if (!warning.empty()) std::cerr << "mp_kernels: " << warning << "\n";
  g_selected.store(kernel, std::memory_order_relaxed);
}

}  // namespace

const char* to_string(Kernel kernel) {
  switch (kernel) {
    case Kernel::kScalar:
      return "scalar";
    case Kernel::kSse4:
      return "sse4";
    case Kernel::kAvx2:
      return "avx2";
    case Kernel::kAvx512:
      return "avx512";
  }
  return "?";
}

std::optional<Kernel> parse_kernel(std::string_view name) {
  for (const Kernel kernel : kAllKernels)
    if (name == to_string(kernel)) return kernel;
  return std::nullopt;
}

bool kernel_supported(Kernel kernel) {
  switch (kernel) {
    case Kernel::kScalar:
      return true;
    case Kernel::kSse4:
#if MP_SIMD && defined(MP_KERNELS_HAVE_SSE4)
      return cpu_features().sse42;
#else
      return false;
#endif
    case Kernel::kAvx2:
#if MP_SIMD && defined(MP_KERNELS_HAVE_AVX2)
      return cpu_features().avx2;
#else
      return false;
#endif
    case Kernel::kAvx512:
#if MP_SIMD && defined(MP_KERNELS_HAVE_AVX512)
      return cpu_features().avx512f && cpu_features().avx512bw;
#else
      return false;
#endif
  }
  return false;
}

Kernel widest_supported() {
  if (kernel_supported(Kernel::kAvx512)) return Kernel::kAvx512;
  if (kernel_supported(Kernel::kAvx2)) return Kernel::kAvx2;
  if (kernel_supported(Kernel::kSse4)) return Kernel::kSse4;
  return Kernel::kScalar;
}

Kernel selected_kernel() {
  std::call_once(g_selected_init, init_selected);
  return g_selected.load(std::memory_order_relaxed);
}

bool set_kernel(Kernel kernel) {
  if (!kernel_supported(kernel)) return false;
  // Resolve the env override first so a late first selected_kernel() call
  // cannot clobber an explicit --kernel choice.
  std::call_once(g_selected_init, init_selected);
  g_selected.store(kernel, std::memory_order_relaxed);
  return true;
}

std::string kernel_banner() {
  return std::string("kernel ") + to_string(selected_kernel()) + " (isa " +
         isa_string(cpu_features()) + ")";
}

namespace detail {

Kernel resolve_override(const char* value, std::string* warning) {
  if (value == nullptr || *value == '\0' ||
      std::string_view(value) == "auto") {
    return widest_supported();
  }
  const std::optional<Kernel> parsed = parse_kernel(value);
  if (!parsed) {
    if (warning) {
      *warning = "MP_MERGE_KERNEL='" + std::string(value) +
                 "' is not a kernel name (scalar|sse4|avx2|avx512); "
                 "using " +
                 to_string(widest_supported());
    }
    return widest_supported();
  }
  if (!kernel_supported(*parsed)) {
    if (warning) {
      *warning = std::string("MP_MERGE_KERNEL=") + to_string(*parsed) +
                 " is compiled out or unsupported on this host; using " +
                 to_string(widest_supported());
    }
    return widest_supported();
  }
  return *parsed;
}

std::size_t simd_loop_i32(Kernel kernel, const std::int32_t* a,
                          std::size_t m, const std::int32_t* b, std::size_t n,
                          std::size_t* a_pos, std::size_t* b_pos,
                          std::int32_t* out, std::size_t steps) {
#if MP_SIMD && defined(MP_KERNELS_HAVE_AVX512)
  if (kernel == Kernel::kAvx512)
    return avx512_loop_i32(a, m, b, n, a_pos, b_pos, out, steps);
#endif
#if MP_SIMD && defined(MP_KERNELS_HAVE_AVX2)
  if (kernel == Kernel::kAvx2)
    return avx2_loop_i32(a, m, b, n, a_pos, b_pos, out, steps);
#endif
#if MP_SIMD && defined(MP_KERNELS_HAVE_SSE4)
  if (kernel == Kernel::kSse4)
    return sse4_loop_i32(a, m, b, n, a_pos, b_pos, out, steps);
#endif
  // Compiled out (or an ISA dispatch never selects): pure fallthrough to
  // the caller's scalar tail.
  (void)kernel, (void)a, (void)m, (void)b, (void)n, (void)a_pos, (void)b_pos,
      (void)out, (void)steps;
  return 0;
}

std::size_t simd_loop_u32(Kernel kernel, const std::uint32_t* a,
                          std::size_t m, const std::uint32_t* b, std::size_t n,
                          std::size_t* a_pos, std::size_t* b_pos,
                          std::uint32_t* out, std::size_t steps) {
#if MP_SIMD && defined(MP_KERNELS_HAVE_AVX512)
  if (kernel == Kernel::kAvx512)
    return avx512_loop_u32(a, m, b, n, a_pos, b_pos, out, steps);
#endif
#if MP_SIMD && defined(MP_KERNELS_HAVE_AVX2)
  if (kernel == Kernel::kAvx2)
    return avx2_loop_u32(a, m, b, n, a_pos, b_pos, out, steps);
#endif
#if MP_SIMD && defined(MP_KERNELS_HAVE_SSE4)
  if (kernel == Kernel::kSse4)
    return sse4_loop_u32(a, m, b, n, a_pos, b_pos, out, steps);
#endif
  (void)kernel, (void)a, (void)m, (void)b, (void)n, (void)a_pos, (void)b_pos,
      (void)out, (void)steps;
  return 0;
}

std::size_t simd_loop_i64(Kernel kernel, const std::int64_t* a,
                          std::size_t m, const std::int64_t* b, std::size_t n,
                          std::size_t* a_pos, std::size_t* b_pos,
                          std::int64_t* out, std::size_t steps) {
#if MP_SIMD && defined(MP_KERNELS_HAVE_AVX512)
  if (kernel == Kernel::kAvx512)
    return avx512_loop_i64(a, m, b, n, a_pos, b_pos, out, steps);
#endif
#if MP_SIMD && defined(MP_KERNELS_HAVE_AVX2)
  if (kernel == Kernel::kAvx2)
    return avx2_loop_i64(a, m, b, n, a_pos, b_pos, out, steps);
#endif
#if MP_SIMD && defined(MP_KERNELS_HAVE_SSE4)
  if (kernel == Kernel::kSse4)
    return sse4_loop_i64(a, m, b, n, a_pos, b_pos, out, steps);
#endif
  (void)kernel, (void)a, (void)m, (void)b, (void)n, (void)a_pos, (void)b_pos,
      (void)out, (void)steps;
  return 0;
}

std::size_t simd_loop_u64(Kernel kernel, const std::uint64_t* a,
                          std::size_t m, const std::uint64_t* b, std::size_t n,
                          std::size_t* a_pos, std::size_t* b_pos,
                          std::uint64_t* out, std::size_t steps) {
#if MP_SIMD && defined(MP_KERNELS_HAVE_AVX512)
  if (kernel == Kernel::kAvx512)
    return avx512_loop_u64(a, m, b, n, a_pos, b_pos, out, steps);
#endif
#if MP_SIMD && defined(MP_KERNELS_HAVE_AVX2)
  if (kernel == Kernel::kAvx2)
    return avx2_loop_u64(a, m, b, n, a_pos, b_pos, out, steps);
#endif
#if MP_SIMD && defined(MP_KERNELS_HAVE_SSE4)
  if (kernel == Kernel::kSse4)
    return sse4_loop_u64(a, m, b, n, a_pos, b_pos, out, steps);
#endif
  (void)kernel, (void)a, (void)m, (void)b, (void)n, (void)a_pos, (void)b_pos,
      (void)out, (void)steps;
  return 0;
}

std::size_t simd_loop_f32(Kernel kernel, const float* a,
                          std::size_t m, const float* b, std::size_t n,
                          std::size_t* a_pos, std::size_t* b_pos,
                          float* out, std::size_t steps) {
#if MP_SIMD && defined(MP_KERNELS_HAVE_AVX512)
  if (kernel == Kernel::kAvx512)
    return avx512_loop_f32(a, m, b, n, a_pos, b_pos, out, steps);
#endif
#if MP_SIMD && defined(MP_KERNELS_HAVE_AVX2)
  if (kernel == Kernel::kAvx2)
    return avx2_loop_f32(a, m, b, n, a_pos, b_pos, out, steps);
#endif
#if MP_SIMD && defined(MP_KERNELS_HAVE_SSE4)
  if (kernel == Kernel::kSse4)
    return sse4_loop_f32(a, m, b, n, a_pos, b_pos, out, steps);
#endif
  (void)kernel, (void)a, (void)m, (void)b, (void)n, (void)a_pos, (void)b_pos,
      (void)out, (void)steps;
  return 0;
}

std::size_t simd_loop_f64(Kernel kernel, const double* a,
                          std::size_t m, const double* b, std::size_t n,
                          std::size_t* a_pos, std::size_t* b_pos,
                          double* out, std::size_t steps) {
#if MP_SIMD && defined(MP_KERNELS_HAVE_AVX512)
  if (kernel == Kernel::kAvx512)
    return avx512_loop_f64(a, m, b, n, a_pos, b_pos, out, steps);
#endif
#if MP_SIMD && defined(MP_KERNELS_HAVE_AVX2)
  if (kernel == Kernel::kAvx2)
    return avx2_loop_f64(a, m, b, n, a_pos, b_pos, out, steps);
#endif
#if MP_SIMD && defined(MP_KERNELS_HAVE_SSE4)
  if (kernel == Kernel::kSse4)
    return sse4_loop_f64(a, m, b, n, a_pos, b_pos, out, steps);
#endif
  (void)kernel, (void)a, (void)m, (void)b, (void)n, (void)a_pos, (void)b_pos,
      (void)out, (void)steps;
  return 0;
}

}  // namespace detail
}  // namespace mp::kernels
