#pragma once
/// \file test_support.hpp
/// Shared helpers for the test suite.

#include <algorithm>
#include <cstdint>
#include <sstream>
#include <string>
#include <vector>

#include "kernels/kernels.hpp"
#include "util/data_gen.hpp"

namespace mp::test {

/// Reference merged output: stable std::merge of the two inputs.
inline std::vector<std::int32_t> reference_merge(
    const std::vector<std::int32_t>& a, const std::vector<std::int32_t>& b) {
  std::vector<std::int32_t> out(a.size() + b.size());
  std::merge(a.begin(), a.end(), b.begin(), b.end(), out.begin());
  return out;
}

/// Readable test-parameter name for a distribution.
inline std::string dist_name(Dist dist) { return to_string(dist); }

/// Joins streamable parts into a test-parameter name:
/// param_name("n", 100, "_p", 4) == "n100_p4". Streams rather than
/// `"n" + std::to_string(...)`, which gcc 12 flags with a -Wrestrict
/// false positive inside std::string.
template <typename... Parts>
std::string param_name(const Parts&... parts) {
  std::ostringstream out;
  (out << ... << parts);
  return out.str();
}

/// Saves the selected merge kernel and restores it on scope exit, so a
/// test that forces a kernel cannot leak the choice into later tests.
struct KernelGuard {
  kernels::Kernel saved = kernels::selected_kernel();
  ~KernelGuard() { kernels::set_kernel(saved); }
};

/// Every kernel that can run on this host and build, scalar first.
inline std::vector<kernels::Kernel> supported_kernels() {
  std::vector<kernels::Kernel> out;
  for (kernels::Kernel k : kernels::kAllKernels)
    if (kernels::kernel_supported(k)) out.push_back(k);
  return out;
}

}  // namespace mp::test
