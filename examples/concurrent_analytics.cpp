// Concurrent analytics: the paper's motivating scenario — a mixed stream of
// analysis jobs (WCC / PageRank / SSSP / BFS with randomized parameters)
// arriving as a Poisson process over one social graph. Runs the same job set
// under the three execution schemes and prints the figure-9 style comparison.
#include <cstdio>

#include "graph/datasets.hpp"
#include "grid/grid_store.hpp"
#include "runtime/executor.hpp"
#include "runtime/job_queue.hpp"
#include "runtime/workloads.hpp"
#include "util/table_printer.hpp"

using namespace graphm;

int main() {
  const double scale = 0.08;  // small enough to finish in seconds
  const grid::GridStore store = storage::open_dataset<grid::GridStore>("twitter_s", 8, scale);

  const std::size_t num_jobs = 12;
  const auto jobs = runtime::paper_mix(num_jobs, store.meta().num_vertices, /*seed=*/2024);
  std::printf("submitting %zu jobs:\n", jobs.size());
  for (const auto& job : jobs) std::printf("  %s\n", job.label().c_str());

  runtime::ExecutorConfig config;
  config.arrival_offsets_ns = runtime::poisson_arrivals(num_jobs, /*lambda=*/16.0,
                                                        /*mean_scale_ns=*/5'000'000, 7);

  util::TablePrinter table("concurrent analytics: 12 mixed jobs on twitter_s");
  table.set_header({"scheme", "total s", "disk GB", "LLC miss %", "peak mem MB"});
  for (const auto scheme : {runtime::Scheme::kSequential, runtime::Scheme::kConcurrent,
                            runtime::Scheme::kShared}) {
    const auto metrics = runtime::run_jobs(scheme, store, jobs, config);
    table.add_row({metrics.scheme,
                   util::TablePrinter::fmt(metrics.total_time_ns() / 1e9, 3),
                   util::TablePrinter::fmt(metrics.io.disk_read_bytes / 1e9, 3),
                   util::TablePrinter::fmt(100.0 * metrics.llc.miss_rate(), 1),
                   util::TablePrinter::fmt(metrics.peak_memory_bytes / 1e6, 1)});
  }
  table.print();
  return 0;
}
