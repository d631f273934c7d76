// Order statistics and result checks shared by the harness and its
// self-tests.
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <vector>

#include "algos/factory.hpp"
#include "graph/edge_list.hpp"

namespace perfbench {

/// Tail percentiles are reported only when at least this many samples lie
/// beyond them; with fewer, one outlier moves the figure.
inline constexpr std::size_t kMinSamplesBeyond = 10;

/// Nearest-rank percentile `p` (0 < p < 1) of `samples`. Refuses (nullopt)
/// when fewer than `min_beyond` samples rank above the picked one, or when
/// `samples` is empty.
std::optional<double> pick_percentile(std::vector<double> samples, double p,
                                      std::size_t min_beyond = kMinSamplesBeyond);

/// Median (mean of the middle pair for even counts); 0 for no samples.
double median(std::vector<double> samples);

/// What one job's final vertex values must be. BFS, SSSP and WCC must match
/// the reference exactly, so only a digest of its values is kept; PageRank
/// keeps the values and may differ by kPageRankTolerance per vertex.
inline constexpr double kPageRankTolerance = 1e-9;
struct Expected {
  graphm::algos::AlgorithmKind kind = graphm::algos::AlgorithmKind::kPageRank;
  std::size_t size = 0;
  std::uint64_t digest = 0;
  std::vector<double> values;  // PageRank only
};
Expected expect_result(graphm::algos::AlgorithmKind kind, const std::vector<double>& reference);
bool result_matches(const Expected& want, const std::vector<double>& got);

/// Number of jobs whose result does not match (a missing result counts as a
/// mismatch). Reports each mismatch on stderr.
std::size_t count_mismatches(const std::vector<graphm::algos::JobSpec>& jobs,
                             const std::vector<Expected>& expected,
                             const std::vector<std::vector<double>>& results);

/// Serial reference result of every job over the plain edge list
/// (algos::reference::run_streaming), computed on up to `threads` threads.
std::vector<Expected> reference_results(const graphm::graph::EdgeList& graph,
                                        const std::vector<graphm::algos::JobSpec>& jobs,
                                        std::size_t threads);

}  // namespace perfbench
