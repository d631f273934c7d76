#include "bench_support.hpp"

namespace graphm::bench {

BenchResult summarize(const runtime::RunMetrics& m) {
  BenchResult r;
  r.total_s = seconds(m.total_time_ns());
  r.makespan_s = seconds(m.makespan_wall_ns);
  r.compute_s = seconds(m.compute_ns);
  r.io_stall_s = seconds(m.io_stall_ns);
  r.mem_stall_s = seconds(m.mem_stall_ns);
  r.llc_accesses = static_cast<double>(m.llc.accesses);
  r.llc_misses = static_cast<double>(m.llc.misses);
  r.llc_swapped_gb = static_cast<double>(m.llc.bytes_swapped_in) / 1e9;
  r.llc_miss_rate = m.llc.miss_rate();
  r.io_read_gb = static_cast<double>(m.io.read_bytes) / 1e9;
  r.disk_read_gb = static_cast<double>(m.io.disk_read_bytes) / 1e9;
  r.peak_mem_mb = static_cast<double>(m.peak_memory_bytes) / 1e6;
  r.peak_graph_mb = static_cast<double>(m.peak_graph_memory_bytes) / 1e6;
  r.peak_job_mb = static_cast<double>(m.peak_job_memory_bytes) / 1e6;
  r.peak_table_mb = static_cast<double>(m.peak_table_memory_bytes) / 1e6;
  r.avg_lpi = m.average_lpi;
  r.avg_job_time_s = m.average_job_time_ns() / 1e9;
  r.loads = static_cast<double>(m.sharing.partition_loads);
  r.attaches = static_cast<double>(m.sharing.attaches);
  r.suspensions = static_cast<double>(m.sharing.suspensions);
  r.barriers = static_cast<double>(m.sharing.chunk_barriers);
  return r;
}

BenchResult run_scheme(runtime::Scheme scheme, const std::string& dataset,
                       std::size_t requested_jobs, const Customize& customize) {
  const double scale = bench_scale();
  const grid::GridStore store =
      storage::open_dataset<grid::GridStore>(dataset, kPartitions, scale);
  auto jobs = runtime::paper_mix(bench_jobs_for(dataset, requested_jobs),
                                 store.meta().num_vertices, 0xBEEF);
  runtime::ExecutorConfig config;
  config.platform = bench_platform();
  if (customize) customize(config, jobs);
  return summarize(runtime::run_jobs(scheme, store, jobs, config));
}

}  // namespace graphm::bench
