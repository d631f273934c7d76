#include <gtest/gtest.h>

#include <atomic>
#include <cstring>
#include <latch>
#include <thread>

#include "storage/store.hpp"
#include "test_helpers.hpp"

namespace graphm::storage {
namespace {

StoreMeta make_meta(graph::VertexId n, std::uint32_t partitions, bool by_source = true) {
  StoreMeta meta;
  meta.num_vertices = n;
  meta.num_partitions = partitions;
  meta.partitions_by_source = by_source;
  meta.blocks_per_partition = 1;
  meta.block_offsets.assign(partitions, 0);
  meta.block_edges.assign(partitions, 0);
  return meta;
}

class VertexRangeProperties
    : public ::testing::TestWithParam<std::tuple<graph::VertexId, std::uint32_t>> {};

TEST_P(VertexRangeProperties, RangesTileTheVertexSpace) {
  const auto [n, partitions] = GetParam();
  const StoreMeta meta = make_meta(n, partitions);

  graph::VertexId cursor = 0;
  for (std::uint32_t p = 0; p < partitions; ++p) {
    const auto [begin, end] = meta.vertex_range(p);
    EXPECT_EQ(begin, cursor) << "partition " << p;
    EXPECT_LE(begin, end);
    cursor = end;
  }
  EXPECT_EQ(cursor, n) << "ranges must cover every vertex exactly once";
}

TEST_P(VertexRangeProperties, PartitionOfIsInverseOfVertexRange) {
  const auto [n, partitions] = GetParam();
  const StoreMeta meta = make_meta(n, partitions);
  for (graph::VertexId v = 0; v < n; ++v) {
    const std::uint32_t p = meta.partition_of(v);
    ASSERT_LT(p, partitions);
    const auto [begin, end] = meta.vertex_range(p);
    ASSERT_GE(v, begin) << "vertex " << v;
    ASSERT_LT(v, end) << "vertex " << v;
  }
}

INSTANTIATE_TEST_SUITE_P(Shapes, VertexRangeProperties,
                         ::testing::Values(std::tuple{100u, 4u}, std::tuple{101u, 4u},
                                           std::tuple{7u, 8u}, std::tuple{1u, 1u},
                                           std::tuple{64u, 64u}, std::tuple{1000u, 3u},
                                           std::tuple{65u, 64u}));

TEST(StoreMeta, DestinationPartitionedStoresSpanEverything) {
  const StoreMeta meta = make_meta(1000, 8, /*by_source=*/false);
  for (std::uint32_t p = 0; p < 8; ++p) {
    const auto [begin, end] = meta.vertex_range(p);
    EXPECT_EQ(begin, 0u);
    EXPECT_EQ(end, 1000u);
  }
}

TEST(StoreMeta, PartitionBytesFollowBlockEdges) {
  StoreMeta meta = make_meta(100, 2);
  meta.blocks_per_partition = 2;
  meta.block_offsets = {0, 120, 240, 360};
  meta.block_edges = {10, 10, 5, 3};
  EXPECT_EQ(meta.partition_edges(0), 20u);
  EXPECT_EQ(meta.partition_edges(1), 8u);
  EXPECT_EQ(meta.partition_bytes(0), 20 * sizeof(graph::Edge));
  EXPECT_EQ(meta.max_partition_bytes(), 20 * sizeof(graph::Edge));
  EXPECT_EQ(meta.partition_offset(1), 240u);
}

TEST(PartitionedStore, GridAndShardExposeTheSameEdgeMultiset) {
  // The two formats must describe the same graph — the precondition for
  // GraphM serving both ("one storage system for all").
  const auto g = test::small_rmat(200, 2000);
  const grid::GridStore grid_store = test::make_grid(g, 4);
  const shard::ShardStore shard_store = test::make_shards(g, 4);

  auto collect = [](const PartitionedStore& store) {
    sim::Platform platform;
    std::vector<graph::Edge> buffer;
    std::vector<std::uint64_t> keys;
    for (std::uint32_t p = 0; p < store.meta().num_partitions; ++p) {
      store.read_partition(p, buffer, platform, 0);
      for (const auto& e : buffer) {
        keys.push_back((static_cast<std::uint64_t>(e.src) << 32) | e.dst);
      }
    }
    std::sort(keys.begin(), keys.end());
    return keys;
  };
  EXPECT_EQ(collect(grid_store), collect(shard_store));
}

TEST(ConcurrentStoreReads, EightThreadsMatchASerialReadOnGridAndShards) {
  // Reads take no lock: eight threads read interleaved partitions and
  // sub-ranges of one grid store and one shard store at once, through one
  // simulated platform, and must see the bytes a serial read sees.
  const auto g = test::small_rmat(2000, 30000);
  const grid::GridStore grid_store = test::make_grid(g, 6);
  const shard::ShardStore shard_store = test::make_shards(g, 5);
  const std::vector<const PartitionedStore*> stores = {&grid_store, &shard_store};

  sim::Platform platform;
  std::vector<std::vector<std::vector<graph::Edge>>> serial(stores.size());
  for (std::size_t s = 0; s < stores.size(); ++s) {
    serial[s].resize(stores[s]->meta().num_partitions);
    for (std::uint32_t p = 0; p < serial[s].size(); ++p) {
      stores[s]->read_partition(p, serial[s][p], platform, 0);
    }
  }
  const auto same = [](const graph::Edge* a, const graph::Edge* b, std::size_t n) {
    return std::memcmp(a, b, n * sizeof(graph::Edge)) == 0;
  };

  constexpr std::uint32_t kThreads = 8;
  std::atomic<std::uint64_t> reads{0};
  std::atomic<std::uint64_t> mismatches{0};
  std::latch start(kThreads);
  std::vector<std::thread> threads;
  for (std::uint32_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      std::vector<graph::Edge> buffer;
      start.arrive_and_wait();
      for (std::uint32_t round = 0; round < 20; ++round) {
        for (std::size_t s = 0; s < stores.size(); ++s) {
          const auto& parts = serial[s];
          for (std::uint32_t k = 0; k < parts.size(); ++k) {
            const std::uint32_t p = (t + k + round) % parts.size();
            const auto& want = parts[p];
            try {
              stores[s]->read_partition(p, buffer, platform, t);
              if (buffer.size() != want.size() || !same(buffer.data(), want.data(), want.size())) {
                ++mismatches;
              }
              if (want.empty()) continue;
              const graph::EdgeCount first = (t * 7919 + k * 131 + round) % want.size();
              const graph::EdgeCount count =
                  std::min<graph::EdgeCount>(want.size() - first, 1 + (t * 37 + round) % 500);
              buffer.assign(count, graph::Edge{});
              stores[s]->read_edges(p, first, count, buffer.data(), platform, t);
              if (!same(buffer.data(), want.data() + first, count)) ++mismatches;
              reads += 2;
            } catch (const std::runtime_error&) {
              ++mismatches;  // a read that throws is a wrong read too
            }
          }
        }
      }
    });
  }
  for (auto& thread : threads) thread.join();
  EXPECT_EQ(reads.load(), kThreads * 20 * 2 * (6 + 5));
  EXPECT_EQ(mismatches.load(), 0u);
}

}  // namespace
}  // namespace graphm::storage
