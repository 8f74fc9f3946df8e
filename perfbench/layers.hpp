#pragma once
/// \file layers.hpp
/// The traced layer suite: timed calls into each module's public
/// functions plus the span totals src/ already emits, identical on every
/// workload so that a per-layer row means the same thing wherever it is
/// read. See README.md for each row and the end-to-end metric it should
/// move.

#include <cstdint>

#include "common.hpp"

namespace perfbench {

/// The phase rows of the sort and xsort decompositions must add up to
/// the call's end-to-end wall time within this fraction.
inline constexpr double kLayerSumTolerance = 0.05;

/// Runs every layer probe and appends the per-layer rows to `result`.
void run_layer_suite(std::uint64_t seed, Result& result);

}  // namespace perfbench
