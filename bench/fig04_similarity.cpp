// Figure 4: spatial/temporal similarity of concurrent jobs' data accesses.
// (a) percentage of the graph's chunks needed by more than 1/2/4/8 of the
//     live jobs at each sampled "hour" (spatial similarity; paper: >82%),
// (b) average number of jobs re-accessing a shared chunk per hour (temporal
//     similarity; paper: ~7 on average).
// Computed honestly from the jobs' active-vertex bitmaps and the chunk
// tables, stepping a 16-job mix iteration by iteration.
#include "bench_support.hpp"

#include "graphm/graphm.hpp"
#include "grid/stream_engine.hpp"

using namespace graphm;
using namespace graphm::bench;

int main() {
  const double scale = bench_scale();
  const grid::GridStore store =
      storage::open_dataset<grid::GridStore>("twitter_s", kPartitions, scale);
  sim::Platform platform(bench_platform());
  core::GraphM graphm(store, platform);
  graphm.init();
  const grid::StreamEngine engine(store, platform);

  // Instantiate 16 jobs and drive them iteration-by-iteration in lock-step so
  // we can snapshot the chunk-level overlap each "hour".
  const auto specs = runtime::paper_mix(16, store.meta().num_vertices, 0xF16);
  std::vector<std::unique_ptr<algos::StreamingAlgorithm>> jobs;
  for (const auto& spec : specs) {
    jobs.push_back(algos::make_algorithm(spec));
    jobs.back()->init(store.meta().num_vertices, engine.out_degrees(), nullptr);
  }

  util::TablePrinter table("Figure 4: data-access similarity between 16 concurrent jobs");
  table.set_header({"hour", "% chunks >1 job", ">2", ">4", ">8", "avg accesses/chunk"});

  std::size_t total_chunks = 0;
  for (const auto& t : graphm.chunk_tables()) total_chunks += t.chunks.size();

  bool spatial_high = true;
  double temporal_sum = 0.0;
  int hours = 0;
  for (int hour = 1; hour <= 6; ++hour) {
    // Count, for every chunk, how many live jobs have an active source in it.
    std::vector<std::size_t> counts;
    counts.reserve(total_chunks);
    for (std::uint32_t pid = 0; pid < store.meta().num_partitions; ++pid) {
      for (const auto& chunk : graphm.chunk_tables()[pid].chunks) {
        std::size_t needed_by = 0;
        for (const auto& job : jobs) {
          if (!job->done() && chunk.active_edges(job->active_vertices()) > 0) ++needed_by;
        }
        counts.push_back(needed_by);
      }
    }
    auto pct_over = [&](std::size_t k) {
      std::size_t n = 0;
      for (std::size_t c : counts) {
        if (c > k) ++n;
      }
      return 100.0 * static_cast<double>(n) / static_cast<double>(counts.size());
    };
    double accessed_sum = 0.0;
    std::size_t accessed = 0;
    for (std::size_t c : counts) {
      if (c > 1) {
        accessed_sum += static_cast<double>(c);
        ++accessed;
      }
    }
    const double avg_access = accessed == 0 ? 0.0 : accessed_sum / accessed;
    table.add_row({std::to_string(hour), util::TablePrinter::fmt(pct_over(1), 1),
                   util::TablePrinter::fmt(pct_over(2), 1),
                   util::TablePrinter::fmt(pct_over(4), 1),
                   util::TablePrinter::fmt(pct_over(8), 1),
                   util::TablePrinter::fmt(avg_access, 1)});
    spatial_high = spatial_high && pct_over(1) > 50.0;
    temporal_sum += avg_access;
    ++hours;

    // Advance every live job by one iteration ("one hour" of trace time).
    for (auto& job : jobs) {
      if (job->done()) continue;
      job->iteration_start(hour - 1);
      const auto& active = job->active_vertices();
      sim::Platform scratch;
      std::vector<graph::Edge> buffer;
      for (std::uint32_t pid = 0; pid < store.meta().num_partitions; ++pid) {
        const auto [vb, ve] = store.meta().vertex_range(pid);
        if (!active.any_in_range(vb, ve)) continue;
        store.read_partition(pid, buffer, scratch, 0);
        job->process_edge_block(buffer.data(), buffer.size(), active);
      }
      job->iteration_end();
    }
  }
  table.print();
  print_shape("most chunks shared by >1 job every hour (paper: >82%)", spatial_high);
  print_shape("shared chunks re-accessed by several jobs (paper: ~7)",
              temporal_sum / hours > 3.0);
  return 0;
}
