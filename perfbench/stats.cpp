#include "stats.hpp"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <thread>

#include "algos/reference.hpp"

namespace perfbench {

std::optional<double> pick_percentile(std::vector<double> samples, double p,
                                      std::size_t min_beyond) {
  if (samples.empty() || p <= 0.0 || p >= 1.0) return std::nullopt;
  const std::size_t n = samples.size();
  const auto rank = static_cast<std::size_t>(std::ceil(p * static_cast<double>(n)));
  const std::size_t index = std::clamp<std::size_t>(rank, 1, n) - 1;
  if (n - 1 - index < min_beyond) return std::nullopt;
  std::nth_element(samples.begin(), samples.begin() + static_cast<std::ptrdiff_t>(index),
                   samples.end());
  return samples[index];
}

double median(std::vector<double> samples) {
  if (samples.empty()) return 0.0;
  std::sort(samples.begin(), samples.end());
  const std::size_t mid = samples.size() / 2;
  return samples.size() % 2 == 1 ? samples[mid] : 0.5 * (samples[mid - 1] + samples[mid]);
}

namespace {

std::uint64_t digest(const std::vector<double>& values) {
  std::uint64_t h = 0x9E3779B97F4A7C15ULL ^ values.size();
  for (double v : values) {
    if (v == 0.0) v = 0.0;  // -0.0 equals 0.0, so it must hash alike
    std::uint64_t word = 0;
    std::memcpy(&word, &v, sizeof(word));
    h = (h ^ word) * 0xBF58476D1CE4E5B9ULL;
    h ^= h >> 31;
  }
  return h;
}

}  // namespace

Expected expect_result(graphm::algos::AlgorithmKind kind, const std::vector<double>& reference) {
  Expected want;
  want.kind = kind;
  want.size = reference.size();
  want.digest = digest(reference);
  if (kind == graphm::algos::AlgorithmKind::kPageRank) want.values = reference;
  return want;
}

bool result_matches(const Expected& want, const std::vector<double>& got) {
  if (got.size() != want.size) return false;
  if (want.kind != graphm::algos::AlgorithmKind::kPageRank) return digest(got) == want.digest;
  for (std::size_t v = 0; v < got.size(); ++v) {
    if (!(std::fabs(got[v] - want.values[v]) <= kPageRankTolerance)) return false;
  }
  return true;
}

std::size_t count_mismatches(const std::vector<graphm::algos::JobSpec>& jobs,
                             const std::vector<Expected>& expected,
                             const std::vector<std::vector<double>>& results) {
  std::size_t mismatches = 0;
  for (std::size_t j = 0; j < jobs.size(); ++j) {
    if (j < results.size() && j < expected.size() && result_matches(expected[j], results[j])) {
      continue;
    }
    ++mismatches;
    std::fprintf(stderr, "perfbench: job %zu (%s) result mismatch\n", j, jobs[j].label().c_str());
  }
  return mismatches;
}

std::vector<Expected> reference_results(const graphm::graph::EdgeList& graph,
                                        const std::vector<graphm::algos::JobSpec>& jobs,
                                        std::size_t threads) {
  std::vector<Expected> expected(jobs.size());
  std::atomic<std::size_t> next{0};
  auto worker = [&] {
    for (std::size_t j = next.fetch_add(1); j < jobs.size(); j = next.fetch_add(1)) {
      auto algorithm = graphm::algos::make_algorithm(jobs[j]);
      expected[j] = expect_result(jobs[j].kind,
                                  graphm::algos::reference::run_streaming(graph, *algorithm));
    }
  };
  std::vector<std::thread> pool;
  for (std::size_t t = 0; t < std::max<std::size_t>(1, threads); ++t) pool.emplace_back(worker);
  for (auto& t : pool) t.join();
  return expected;
}

}  // namespace perfbench
