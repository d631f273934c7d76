// Failure injection: corrupt or missing on-disk state and invalid arguments
// must fail loudly (exceptions), never silently return wrong graphs.
#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <memory>
#include <ostream>

#include "graph/datasets.hpp"
#include "sim/cache_sim.hpp"
#include "test_helpers.hpp"

namespace graphm {
namespace {

namespace fs = std::filesystem;

void write_bytes(const std::string& path, const std::string& bytes) {
  std::FILE* f = std::fopen(path.c_str(), "wb");
  ASSERT_NE(f, nullptr);
  std::fwrite(bytes.data(), 1, bytes.size(), f);
  std::fclose(f);
}

TEST(FailureInjection, GridOpenMissingFilesThrows) {
  EXPECT_THROW(grid::GridStore::open(test::unique_temp_path("nope")), std::runtime_error);
}

TEST(FailureInjection, GridOpenCorruptMetaThrows) {
  const std::string path = test::unique_temp_path("corrupt_grid");
  write_bytes(path + ".meta", "garbage that is not a grid meta header");
  write_bytes(path + ".data", "");
  EXPECT_THROW(grid::GridStore::open(path), std::runtime_error);
}

TEST(FailureInjection, ShardOpenCorruptMetaThrows) {
  const std::string path = test::unique_temp_path("corrupt_shard");
  write_bytes(path + ".meta", "not a shard header either");
  write_bytes(path + ".data", "");
  EXPECT_THROW(shard::ShardStore::open(path), std::runtime_error);
}

TEST(FailureInjection, GridMetaIsNotAValidShardMeta) {
  // Magic numbers differ: opening a grid as shards must fail, not misread.
  const auto g = test::small_rmat(64, 500);
  const std::string path = test::unique_temp_path("cross_format");
  grid::GridStore::preprocess(g, 2, path);
  EXPECT_THROW(shard::ShardStore::open(path), std::runtime_error);
}

TEST(FailureInjection, ZeroPartitionPreprocessRejected) {
  const auto g = test::small_rmat(64, 500);
  EXPECT_THROW(grid::GridStore::preprocess(g, 0, test::unique_temp_path("p0")),
               std::invalid_argument);
  EXPECT_THROW(shard::ShardStore::preprocess(g, 0, test::unique_temp_path("s0")),
               std::invalid_argument);
}

// The damaged-file cases run over every on-disk format: the formats share
// their files and read path, and must fail alike.
struct StoreFormatCase {
  const char* name;
  void (*preprocess)(const graph::EdgeList& graph, const std::string& path);
  std::unique_ptr<storage::PartitionedStore> (*open)(const std::string& path);
};

void PrintTo(const StoreFormatCase& format, std::ostream* os) { *os << format.name; }

template <typename Store>
StoreFormatCase format_case(const char* name) {
  return {name, [](const graph::EdgeList& graph, const std::string& path) {
            Store::preprocess(graph, 2, path);
          },
          [](const std::string& path) -> std::unique_ptr<storage::PartitionedStore> {
            return std::make_unique<Store>(Store::open(path));
          }};
}

class StoreFailureInjection : public ::testing::TestWithParam<StoreFormatCase> {
 protected:
  /// Preprocesses a small graph in the format under test; returns its path.
  std::string preprocess(const std::string& tag) const {
    const std::string path = test::unique_temp_path(std::string(GetParam().name) + "_" + tag);
    GetParam().preprocess(test::small_rmat(64, 500), path);
    return path;
  }
};

TEST_P(StoreFailureInjection, OpenTruncatedMetaThrows) {
  const std::string path = preprocess("trunc_meta");
  fs::resize_file(path + ".meta", fs::file_size(path + ".meta") / 2);
  EXPECT_THROW(GetParam().open(path), std::runtime_error);
}

TEST_P(StoreFailureInjection, OpenMetaWithImpossiblePartitionCountThrows) {
  // A partition count off disk sizes the per-block arrays: one that the
  // file's length cannot hold is refused before anything is allocated.
  const std::string path = preprocess("huge_p");
  std::FILE* f = std::fopen((path + ".meta").c_str(), "r+b");
  ASSERT_NE(f, nullptr);
  const std::uint32_t partitions = 0xFFFFFFFFu;
  std::fseek(f, 16, SEEK_SET);  // after magic, |V| and |E|
  std::fwrite(&partitions, sizeof(partitions), 1, f);
  std::fclose(f);
  EXPECT_THROW(GetParam().open(path), std::runtime_error);
}

TEST_P(StoreFailureInjection, ReadPastTruncatedDataThrows) {
  const std::string path = preprocess("trunc_data");
  fs::resize_file(path + ".data", 10);
  const auto store = GetParam().open(path);
  sim::Platform platform;
  std::vector<graph::Edge> buffer;
  EXPECT_THROW(store->read_partition(0, buffer, platform, 0), std::runtime_error);
}

TEST_P(StoreFailureInjection, MissingDegreeFileThrows) {
  const std::string path = preprocess("nodeg");
  fs::remove(path + ".deg");
  const auto store = GetParam().open(path);
  EXPECT_THROW(store->load_out_degrees(), std::runtime_error);
}

INSTANTIATE_TEST_SUITE_P(Formats, StoreFailureInjection,
                         ::testing::Values(format_case<grid::GridStore>("grid"),
                                           format_case<shard::ShardStore>("shard")),
                         [](const auto& info) { return std::string(info.param.name); });

TEST(FailureInjection, CacheSimRejectsDegenerateGeometry) {
  EXPECT_THROW(sim::CacheSim(1024, 0, 64), std::invalid_argument);
  EXPECT_THROW(sim::CacheSim(1024, 4, 0), std::invalid_argument);
}

TEST(FailureInjection, UnknownDatasetThrows) {
  EXPECT_THROW(graph::load_dataset("no_such_graph"), std::invalid_argument);
}

}  // namespace
}  // namespace graphm
