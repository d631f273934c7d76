// Bench support: the scheme runner and result summary the per-figure
// binaries share.
#pragma once

#include <functional>
#include <string>
#include <vector>

#include "bench_common.hpp"

namespace graphm::bench {

/// Flat, serializable summary of one scheme run.
struct BenchResult {
  double total_s = 0;       // figure-9 style total execution time
  double makespan_s = 0;
  double compute_s = 0;
  double io_stall_s = 0;
  double mem_stall_s = 0;
  double llc_accesses = 0;
  double llc_misses = 0;
  double llc_swapped_gb = 0;
  double llc_miss_rate = 0;
  double io_read_gb = 0;
  double disk_read_gb = 0;
  double peak_mem_mb = 0;
  double peak_graph_mb = 0;
  double peak_job_mb = 0;
  double peak_table_mb = 0;
  double avg_lpi = 0;
  double avg_job_time_s = 0;
  double loads = 0;
  double attaches = 0;
  double suspensions = 0;
  double barriers = 0;
};

BenchResult summarize(const runtime::RunMetrics& metrics);

using Customize =
    std::function<void(runtime::ExecutorConfig&, std::vector<algos::JobSpec>&)>;

/// Runs `requested_jobs` of the paper mix on `dataset` under `scheme`,
/// honouring the shared bench platform/scale; `customize` may adjust the
/// configuration and the job list before the run. Every call runs the
/// current code: results are never cached.
BenchResult run_scheme(runtime::Scheme scheme, const std::string& dataset,
                       std::size_t requested_jobs, const Customize& customize = nullptr);

}  // namespace graphm::bench
