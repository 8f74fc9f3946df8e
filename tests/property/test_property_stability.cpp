// True-stability property tests.
//
// The int32 fuzz suite proves value-level agreement with std::merge, but
// equal int32 keys are indistinguishable, so an implementation that
// reorders ties would still pass. Here every element carries a payload
// encoding (origin array, original index); comparison sees only the key,
// and the assertions compare payloads exactly against the stable reference
// (std::merge / std::stable_sort). Duplicate-heavy Dist shapes (kAllEqual,
// kFewDuplicates) are the interesting rows: they maximise the number of
// ties crossing lane boundaries.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <span>
#include <vector>

#include "core/mergepath.hpp"
#include "core/set_ops.hpp"
#include "core/stream_merger.hpp"
#include "../test_support.hpp"
#include "extmem/block_device.hpp"
#include "extmem/block_device.hpp"
#include "pipeline/pipeline.hpp"
#include "util/data_gen.hpp"
#include "util/rng.hpp"

namespace mp {
namespace {

// Wraps sorted int32 keys as KeyedRecords whose payload encodes
// (origin << 28) | index — the same scheme as make_keyed_input, applied to
// the adversarial Dist generators.
std::vector<KeyedRecord> tag(const std::vector<std::int32_t>& keys,
                             std::uint32_t origin) {
  std::vector<KeyedRecord> out(keys.size());
  for (std::size_t i = 0; i < keys.size(); ++i)
    out[i] = KeyedRecord{keys[i],
                         (origin << 28) | static_cast<std::uint32_t>(i)};
  return out;
}

std::vector<KeyedRecord> stable_reference(
    const std::vector<KeyedRecord>& a, const std::vector<KeyedRecord>& b) {
  std::vector<KeyedRecord> out(a.size() + b.size());
  std::merge(a.begin(), a.end(), b.begin(), b.end(), out.begin());
  return out;
}

struct Shape {
  std::size_t m, n;
};
constexpr Shape kShapes[] = {
    {0, 0}, {1, 0}, {0, 1}, {1, 1}, {7, 5}, {128, 128}, {1000, 333},
    {2048, 2048},
};
constexpr unsigned kThreadCounts[] = {1, 2, 3, 8, 16};

class StabilityByDist : public ::testing::TestWithParam<Dist> {};

TEST_P(StabilityByDist, TwoWayMergesPreservePayloadOrder) {
  const Dist dist = GetParam();
  std::uint64_t seed = 0x57ab1e00;
  for (const Shape& shape : kShapes) {
    const auto input = make_merge_input(dist, shape.m, shape.n, seed++);
    const auto a = tag(input.a, 0);
    const auto b = tag(input.b, 1);
    const auto expected = stable_reference(a, b);
    for (const unsigned threads : kThreadCounts) {
      SCOPED_TRACE(::testing::Message()
                   << to_string(dist) << " m=" << shape.m << " n=" << shape.n
                   << " p=" << threads << " seed=" << input.seed);
      const Executor exec{nullptr, threads};
      std::vector<KeyedRecord> out(a.size() + b.size());

      parallel_merge(a.data(), a.size(), b.data(), b.size(), out.data(),
                     exec);
      ASSERT_EQ(out, expected) << "parallel_merge payload order";
      ASSERT_TRUE(is_stable_merge_of(a.data(), a.size(), b.data(), b.size(),
                                     out.data()));

      std::fill(out.begin(), out.end(), KeyedRecord{-1, 0});
      SegmentedConfig seg;
      seg.segment_length = 64;
      segmented_parallel_merge(a.data(), a.size(), b.data(), b.size(),
                               out.data(), seg, exec);
      ASSERT_EQ(out, expected) << "segmented_parallel_merge payload order";

      std::fill(out.begin(), out.end(), KeyedRecord{-1, 0});
      tiled_parallel_merge(a.data(), a.size(), b.data(), b.size(), out.data(),
                           std::size_t{96}, exec);
      ASSERT_EQ(out, expected) << "tiled_parallel_merge payload order";

      ASSERT_EQ(parallel_multiway_merge(
                    std::vector<std::vector<KeyedRecord>>{a, b}, exec),
                expected)
          << "multiway k=2 payload order";
    }
  }
}

TEST_P(StabilityByDist, MultiwayTiesFavourLowerRunIndex) {
  const Dist dist = GetParam();
  Xoshiro256 rng(0x4b57ab1eULL);
  for (int iter = 0; iter < 6; ++iter) {
    const std::size_t k = 2 + rng.bounded(6);
    std::vector<std::vector<KeyedRecord>> runs(k);
    for (std::size_t r = 0; r < k; ++r) {
      const auto input =
          make_merge_input(dist, rng.bounded(500), 0, rng());
      runs[r] = tag(input.a, static_cast<std::uint32_t>(r));
    }
    // Left-to-right stable folding is the reference: a tie between runs
    // r < s resolves to r in every prefix merge, so the fold preserves
    // lowest-run-first priority.
    std::vector<KeyedRecord> expected;
    for (const auto& run : runs) {
      std::vector<KeyedRecord> next(expected.size() + run.size());
      std::merge(expected.begin(), expected.end(), run.begin(), run.end(),
                 next.begin());
      expected = std::move(next);
    }
    for (const unsigned threads : kThreadCounts) {
      SCOPED_TRACE(::testing::Message() << to_string(dist) << " k=" << k
                                        << " p=" << threads << " iter="
                                        << iter);
      ASSERT_EQ(parallel_multiway_merge(runs, Executor{nullptr, threads}),
                expected);
    }
  }
}

TEST_P(StabilityByDist, MergeByKeyCarriesValuesStably) {
  const Dist dist = GetParam();
  std::uint64_t seed = 0xb7a10e00;
  for (const Shape& shape : kShapes) {
    const auto input = make_merge_input(dist, shape.m, shape.n, seed++);
    const auto a = tag(input.a, 0);
    const auto b = tag(input.b, 1);
    const auto expected = stable_reference(a, b);
    std::vector<std::uint32_t> va(shape.m), vb(shape.n);
    for (std::size_t i = 0; i < shape.m; ++i) va[i] = a[i].payload;
    for (std::size_t j = 0; j < shape.n; ++j) vb[j] = b[j].payload;
    for (const unsigned threads : kThreadCounts) {
      SCOPED_TRACE(::testing::Message()
                   << to_string(dist) << " m=" << shape.m << " n=" << shape.n
                   << " p=" << threads << " seed=" << input.seed);
      const auto [keys, values] = parallel_merge_by_key(
          input.a, va, input.b, vb, Executor{nullptr, threads});
      ASSERT_EQ(keys.size(), expected.size());
      ASSERT_EQ(values.size(), expected.size());
      for (std::size_t i = 0; i < expected.size(); ++i) {
        ASSERT_EQ(keys[i], expected[i].key) << "index " << i;
        ASSERT_EQ(values[i], expected[i].payload) << "index " << i;
      }
    }
  }
}

TEST_P(StabilityByDist, SetOpsPickTheExactElementsStdWould) {
  // Set operations have a stronger contract than "the right keys": the
  // std algorithms specify WHICH side each survivor is copied from (union
  // prefers A's copy of a matched tie; symmetric difference keeps the
  // unmatched surplus of the longer tie group). Payloads expose the
  // provenance, so payload equality proves element-exact agreement.
  const Dist dist = GetParam();
  std::uint64_t seed = 0x5e7ab1e0;
  for (const Shape& shape : kShapes) {
    const auto input = make_merge_input(dist, shape.m, shape.n, seed++);
    const auto a = tag(input.a, 0);
    const auto b = tag(input.b, 1);
    std::vector<KeyedRecord> uni, inter, diff, sym;
    std::set_union(a.begin(), a.end(), b.begin(), b.end(),
                   std::back_inserter(uni));
    std::set_intersection(a.begin(), a.end(), b.begin(), b.end(),
                          std::back_inserter(inter));
    std::set_difference(a.begin(), a.end(), b.begin(), b.end(),
                        std::back_inserter(diff));
    std::set_symmetric_difference(a.begin(), a.end(), b.begin(), b.end(),
                                  std::back_inserter(sym));
    for (const unsigned threads : kThreadCounts) {
      SCOPED_TRACE(::testing::Message()
                   << to_string(dist) << " m=" << shape.m << " n=" << shape.n
                   << " p=" << threads << " seed=" << input.seed);
      const Executor exec{nullptr, threads};
      ASSERT_EQ(parallel_set_union(a, b, exec), uni) << "union payloads";
      ASSERT_EQ(parallel_set_intersection(a, b, exec), inter)
          << "intersection payloads";
      ASSERT_EQ(parallel_set_difference(a, b, exec), diff)
          << "difference payloads";
      ASSERT_EQ(parallel_set_symmetric_difference(a, b, exec), sym)
          << "symmetric difference payloads";
    }
  }
}

TEST_P(StabilityByDist, StreamMergerPreservesPayloadOrder) {
  // Randomly chunked pushes with interleaved partial pulls must reproduce
  // the one-shot stable merge payload-for-payload: the incremental
  // exhaustion-diagonal logic may never emit a not-yet-determined element
  // or resolve a cross-boundary tie differently than std::merge.
  const Dist dist = GetParam();
  Xoshiro256 rng(0x57e3a300 + static_cast<std::uint64_t>(dist));
  for (int iter = 0; iter < 4; ++iter) {
    const auto input =
        make_merge_input(dist, 500 + rng.bounded(1500),
                         500 + rng.bounded(1500), rng());
    const auto a = tag(input.a, 0);
    const auto b = tag(input.b, 1);
    const auto expected = stable_reference(a, b);
    const unsigned threads = static_cast<unsigned>(1 + rng.bounded(8));
    SCOPED_TRACE(::testing::Message()
                 << to_string(dist) << " m=" << a.size() << " n=" << b.size()
                 << " p=" << threads << " iter=" << iter);
    StreamMerger<KeyedRecord> merger({}, Executor{nullptr, threads});
    std::vector<KeyedRecord> out;
    std::size_t fed_a = 0, fed_b = 0;
    while (merger.a_open() || merger.b_open() || !merger.finished()) {
      const std::uint64_t action = rng.bounded(4);
      if (action == 0 && merger.a_open()) {
        const std::size_t take =
            std::min<std::size_t>(rng.bounded(400), a.size() - fed_a);
        merger.push_a(std::span<const KeyedRecord>(a.data() + fed_a, take));
        fed_a += take;
        if (fed_a == a.size()) merger.close_a();
      } else if (action == 1 && merger.b_open()) {
        const std::size_t take =
            std::min<std::size_t>(rng.bounded(400), b.size() - fed_b);
        merger.push_b(std::span<const KeyedRecord>(b.data() + fed_b, take));
        fed_b += take;
        if (fed_b == b.size()) merger.close_b();
      } else {
        std::vector<KeyedRecord> chunk(1 + rng.bounded(600));
        chunk.resize(merger.pull(std::span<KeyedRecord>(chunk)));
        out.insert(out.end(), chunk.begin(), chunk.end());
      }
    }
    ASSERT_EQ(out, expected) << "streamed payload order";
  }
}

TEST_P(StabilityByDist, ExternalSortMatchesStableSortPayloadExactly) {
  // The external path adds run formation, k-way merging with run-index
  // tie-breaks, the co-rank exchange across 1-7 shards, and
  // block-granular round-trips through the device — any
  // of which could silently reorder ties. Payload-exact equality with
  // std::stable_sort over the same shuffled input pins all of it down.
  const Dist dist = GetParam();
  Xoshiro256 rng(0xe87e3a00 + static_cast<std::uint64_t>(dist));
  for (int iter = 0; iter < 2; ++iter) {
    const auto input = make_merge_input(dist, 1000 + rng.bounded(2000), 0,
                                        rng());
    // Deterministic shuffle of the sorted keys, then payload = position
    // AFTER the shuffle (what a stable sort must preserve for ties).
    auto keys = input.a;
    for (std::size_t i = keys.size(); i > 1; --i)
      std::swap(keys[i - 1], keys[rng.bounded(i)]);
    std::vector<KeyedRecord> data(keys.size());
    for (std::size_t i = 0; i < keys.size(); ++i)
      data[i] = KeyedRecord{keys[i], static_cast<std::uint32_t>(i)};
    auto expected = data;
    std::stable_sort(expected.begin(), expected.end());

    const unsigned threads = static_cast<unsigned>(1 + rng.bounded(4));
    SCOPED_TRACE(::testing::Message() << to_string(dist) << " n="
                                      << data.size() << " p=" << threads
                                      << " iter=" << iter);
    extmem::DeviceConfig device_config;
    device_config.block_bytes = 1024;  // 128 records: forces real merging
    extmem::BlockDevice device(device_config);
    pipeline::PipelineConfig config;
    config.memory_elems = 256;
    config.shards = 1 + static_cast<unsigned>(rng.bounded(7));
    config.exec.threads = threads;
    ASSERT_EQ(pipeline::sort_vector(device, data, config), expected)
        << "external sort payload order";
  }
}

TEST(StabilityExternal, ThreeValueKeysStraddleEveryRankBoundary) {
  // Three distinct keys: every exchange rank boundary falls inside a run of
  // ties, so each rank's co-rank selection and merge must split those ties
  // across shards exactly as std::stable_sort orders them.
  constexpr std::size_t kN = 3000;
  constexpr std::size_t kPerBlock = 128;  // 1 KiB blocks of 8-byte records
  Xoshiro256 rng(0x3a1e5);
  std::vector<KeyedRecord> data(kN);
  for (std::size_t i = 0; i < kN; ++i)
    data[i] = KeyedRecord{static_cast<std::int32_t>(rng.bounded(3)),
                          static_cast<std::uint32_t>(i)};
  auto expected = data;
  std::stable_sort(expected.begin(), expected.end());
  for (const unsigned shards : {4u, 7u}) {
    SCOPED_TRACE(::testing::Message() << "shards=" << shards);
    // The pipeline's block-aligned rank boundaries all split a tie.
    for (unsigned r = 1; r < shards; ++r) {
      const std::size_t b = (r * kN / shards) / kPerBlock * kPerBlock;
      ASSERT_EQ(expected[b - 1].key, expected[b].key) << "rank " << r;
    }
    extmem::DeviceConfig device_config;
    device_config.block_bytes = kPerBlock * sizeof(KeyedRecord);
    extmem::BlockDevice device(device_config);
    pipeline::PipelineConfig config;
    config.memory_elems = 256;
    config.shards = shards;
    config.exec.threads = 2;
    ASSERT_EQ(pipeline::sort_vector(device, data, config), expected);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Dists, StabilityByDist, ::testing::ValuesIn(kAllDists),
    [](const ::testing::TestParamInfo<Dist>& param_info) {
      return test::dist_name(param_info.param);
    });

// Sorts: payloads are pre-sort positions; a stable sort must match
// std::stable_sort exactly, payloads included.
TEST(StabilitySorts, ParallelSortsMatchStableSort) {
  Xoshiro256 rng(0x5047ab1eULL);
  for (int iter = 0; iter < 8; ++iter) {
    const std::size_t n = iter < 2 ? iter : (std::size_t{1} << (5 + iter));
    const unsigned threads = static_cast<unsigned>(1 + rng.bounded(12));
    // Tiny key universe => massive duplication => ties everywhere.
    const std::int32_t universe = 1 + static_cast<std::int32_t>(rng.bounded(8));
    std::vector<KeyedRecord> data(n);
    for (std::size_t i = 0; i < n; ++i)
      data[i] = KeyedRecord{
          static_cast<std::int32_t>(
              rng.bounded(static_cast<std::uint64_t>(universe))),
          static_cast<std::uint32_t>(i)};
    SCOPED_TRACE(::testing::Message() << "n=" << n << " p=" << threads
                                      << " universe=" << universe);
    auto expected = data;
    std::stable_sort(expected.begin(), expected.end());

    auto d1 = data;
    parallel_merge_sort(d1.data(), n, Executor{nullptr, threads});
    ASSERT_EQ(d1, expected) << "parallel_merge_sort payload order";

    auto d2 = data;
    multiway_merge_sort(d2.data(), n, Executor{nullptr, threads});
    ASSERT_EQ(d2, expected) << "multiway_merge_sort payload order";
  }
}

}  // namespace
}  // namespace mp
