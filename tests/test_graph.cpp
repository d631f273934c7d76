#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>

#include "graph/csr.hpp"
#include "graph/datasets.hpp"
#include "graph/edge_list.hpp"
#include "graph/generators.hpp"
#include "test_helpers.hpp"

namespace graphm::graph {
namespace {

TEST(EdgeList, RoundTripsThroughFile) {
  EdgeList g;
  g.add_edge(0, 1, 2.0f);
  g.add_edge(1, 2, 3.0f);
  g.add_edge(5, 0, 1.0f);
  const std::string path = test::unique_temp_path("edgelist") + ".bin";
  g.save(path);
  const EdgeList loaded = EdgeList::load(path);
  EXPECT_EQ(loaded, g);
  EXPECT_EQ(loaded.num_vertices(), 6u);
}

TEST(EdgeList, OutDegrees) {
  EdgeList g;
  g.add_edge(0, 1);
  g.add_edge(0, 2);
  g.add_edge(2, 0);
  const auto degrees = g.out_degrees();
  EXPECT_EQ(degrees[0], 2u);
  EXPECT_EQ(degrees[1], 0u);
  EXPECT_EQ(degrees[2], 1u);
  EXPECT_EQ(g.max_out_degree(), 2u);
}

TEST(EdgeList, LoadRejectsGarbage) {
  const std::string path = test::unique_temp_path("garbage") + ".bin";
  {
    std::FILE* f = std::fopen(path.c_str(), "wb");
    std::fwrite("not a graph file at all", 1, 23, f);
    std::fclose(f);
  }
  EXPECT_THROW(EdgeList::load(path), std::runtime_error);
}

TEST(Generators, RmatDeterministicAndInRange) {
  const auto a = generate_rmat(1000, 5000, 42);
  const auto b = generate_rmat(1000, 5000, 42);
  EXPECT_EQ(a, b);
  EXPECT_EQ(a.num_edges(), 5000u);
  for (const Edge& e : a.edges()) {
    EXPECT_LT(e.src, 1000u);
    EXPECT_LT(e.dst, 1000u);
  }
}

TEST(Generators, RmatIsSkewed) {
  const auto g = generate_rmat(4096, 80000, 7);
  const auto er = generate_erdos_renyi(4096, 80000, 7);
  EXPECT_GT(g.max_out_degree(), 2 * er.max_out_degree())
      << "RMAT should concentrate many more edges on hubs than uniform";
}

TEST(Generators, ChungLuFollowsSeedAndCount) {
  const auto g = generate_chung_lu(500, 3000, 0.6, 11);
  EXPECT_EQ(g.num_edges(), 3000u);
  EXPECT_EQ(g, generate_chung_lu(500, 3000, 0.6, 11));
}

TEST(Generators, RingHasExpectedShape) {
  const auto ring = generate_ring(10);
  EXPECT_EQ(ring.num_edges(), 10u);
  const auto degrees = ring.out_degrees();
  for (auto d : degrees) EXPECT_EQ(d, 1u);
  const auto chords = generate_ring(10, 3);
  EXPECT_EQ(chords.num_edges(), 20u);
}

TEST(Generators, RandomizeWeightsWithinRange) {
  auto g = generate_ring(100);
  randomize_weights(g, 2.0f, 8.0f, 3);
  for (const Edge& e : g.edges()) {
    EXPECT_GE(e.weight, 2.0f);
    EXPECT_LT(e.weight, 8.0f);
  }
}

TEST(Csr, MatchesEdgeList) {
  const auto g = test::small_rmat(128, 1024);
  const Csr csr = Csr::build(g);
  EXPECT_EQ(csr.num_vertices(), g.num_vertices());
  EXPECT_EQ(csr.num_edges(), g.num_edges());
  const auto degrees = g.out_degrees();
  std::uint64_t total = 0;
  for (VertexId v = 0; v < g.num_vertices(); ++v) {
    EXPECT_EQ(csr.degree(v), degrees[v]);
    total += csr.neighbors(v).size();
  }
  EXPECT_EQ(total, g.num_edges());
}

TEST(Csr, TransposeSwapsEndpoints) {
  EdgeList g;
  g.add_edge(0, 1);
  g.add_edge(2, 1);
  const Csr in_csr = Csr::build(g, /*transpose=*/true);
  EXPECT_EQ(in_csr.degree(1), 2u);
  EXPECT_EQ(in_csr.degree(0), 0u);
}

TEST(Datasets, SpecsMatchPaperTable2Shape) {
  const auto& specs = dataset_specs();
  ASSERT_EQ(specs.size(), 5u);
  EXPECT_EQ(specs[0].name, "livej_s");
  EXPECT_EQ(specs[4].name, "clueweb_s");
  // The in-memory/out-of-core split of the paper.
  EXPECT_TRUE(specs[0].fits_in_memory);
  EXPECT_TRUE(specs[2].fits_in_memory);
  EXPECT_FALSE(specs[3].fits_in_memory);
  EXPECT_FALSE(specs[4].fits_in_memory);
}

TEST(Datasets, LoadIsCachedAndDeterministic) {
  const auto a = load_dataset("livej_s", 0.05);
  const auto b = load_dataset("livej_s", 0.05);
  EXPECT_EQ(a, b);
  EXPECT_GT(a.num_edges(), 0u);
}

TEST(Datasets, LeftoverTempFileIsIgnoredAndDatasetRegenerated) {
  // An interrupted save leaves only its temporary file behind: the published
  // name is written by rename alone, so it never holds a partial file, and
  // the next open regenerates the dataset. (Scale unique to this test.)
  namespace fs = std::filesystem;
  const double scale = 0.0123;
  const fs::path path = fs::path(dataset_cache_dir()) / "livej_s_0.0123.bin";
  fs::remove(path);
  const std::string leftover = path.string() + ".tmp.Ab12Cd";
  { std::ofstream(leftover) << "torn"; }

  EXPECT_EQ(dataset_path("livej_s", scale), path.string());
  const EdgeList g = load_dataset("livej_s", scale);
  EXPECT_GT(g.num_edges(), 0u);
  EXPECT_EQ(fs::file_size(path), 16 + g.num_edges() * sizeof(Edge));
  fs::remove(leftover);
  fs::remove(path);
}

TEST(Datasets, UnknownNameThrows) {
  EXPECT_THROW(dataset_spec("bogus"), std::invalid_argument);
}

}  // namespace
}  // namespace graphm::graph
