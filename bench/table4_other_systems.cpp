// Table 4: 64 concurrent jobs on the other host systems — GraphChi (real
// shard engine, executed), PowerGraph and Chaos (simulated cluster) — with
// the -S / -C / -M schemes. Paper's shape: every system speeds up with
// GraphM; Chaos-C is *slower* than Chaos-S (disk interference).
#include "bench_support.hpp"

#include <memory>
#include <thread>

#include "dist/chaos_engine.hpp"
#include "dist/powergraph_engine.hpp"
#include "graphm/graphm.hpp"
#include "shard/graphchi_engine.hpp"

using namespace graphm;
using namespace graphm::bench;

namespace {

// GraphChi runs for real on the shard store. Job counts are kept modest on
// the big graphs (bench_jobs_for), as everywhere in the suite.
double run_graphchi(runtime::Scheme scheme, const std::string& dataset, std::size_t jobs) {
  const double scale = bench_scale();
  const shard::ShardStore store =
      storage::open_dataset<shard::ShardStore>(dataset, kPartitions, scale);
  const auto specs = runtime::paper_mix(bench_jobs_for(dataset, jobs),
                                        store.meta().num_vertices, 0x44);
  runtime::ExecutorConfig config;
  config.platform = bench_platform();
  const auto metrics = runtime::run_jobs(scheme, store, specs, config);
  return seconds(metrics.total_time_ns());
}

}  // namespace

int main() {
  util::TablePrinter table("Table 4: other systems, 64-job workload (seconds; sim cluster "
                           "for PowerGraph/Chaos)");
  table.set_header({"system", "dataset", "-S", "-C", "-M", "S/M", "shape"});

  bool graphchi_ok = true;
  for (const std::string& dataset : bench_datasets()) {
    const double s = run_graphchi(runtime::Scheme::kSequential, dataset, 64);
    const double c = run_graphchi(runtime::Scheme::kConcurrent, dataset, 64);
    const double m = run_graphchi(runtime::Scheme::kShared, dataset, 64);
    const bool ok = m < s && m < c;
    graphchi_ok = graphchi_ok && ok;
    table.add_row({"GraphChi", dataset, util::TablePrinter::fmt(s, 2),
                   util::TablePrinter::fmt(c, 2), util::TablePrinter::fmt(m, 2),
                   util::TablePrinter::fmt(s / m), ok ? "ok" : "BAD"});
  }

  // Simulated-cluster systems. Groups per Section 5.1's Table-4 setup.
  const std::map<std::string, std::pair<int, int>> groups = {
      {"livej_s", {8, 8}}, {"orkut_s", {8, 4}}, {"twitter_s", {4, 2}},
      {"ukunion_s", {1, 1}}, {"clueweb_s", {1, 1}}};
  bool power_ok = true;
  bool chaos_ok = true;
  bool chaos_inversion = true;
  for (const std::string& dataset : bench_datasets()) {
    const auto g = graph::load_dataset(dataset, bench_scale());
    const auto jobs = runtime::paper_mix(64, g.num_vertices(), 0x45);
    const auto profiles = dist::profile_jobs(g, jobs);

    dist::ClusterConfig cluster;
    cluster.num_nodes = 128;
    // Scale node memory with the bench scale so Clueweb behaves like the
    // paper's memory-error case for PowerGraph.
    cluster.node_memory_bytes =
        static_cast<std::uint64_t>(1.2 * 1024 * 1024 * bench_scale() / 0.12);

    for (const bool chaos : {false, true}) {
      cluster.num_groups = chaos ? groups.at(dataset).second : groups.at(dataset).first;
      double secs[3];
      bool feasible = true;
      for (int k = 0; k < 3; ++k) {
        dist::DistScheme scheme;
        scheme.kind = static_cast<dist::DistScheme::Kind>(k);
        const auto estimate = chaos ? dist::run_chaos(scheme, profiles, g, cluster)
                                    : dist::run_powergraph(scheme, profiles, g, cluster);
        secs[k] = estimate.seconds;
        feasible = feasible && estimate.feasible;
      }
      const char* name = chaos ? "Chaos" : "PowerGraph";
      if (!feasible) {
        table.add_row({name, dataset, "-", "-", "-", "-", "mem"});
        continue;
      }
      const bool ok = secs[2] < secs[0] && secs[2] < secs[1];
      if (chaos) {
        chaos_ok = chaos_ok && ok;
        chaos_inversion = chaos_inversion && secs[1] > secs[0];
      } else {
        power_ok = power_ok && ok;
      }
      table.add_row({name, dataset, util::TablePrinter::fmt(secs[0], 2),
                     util::TablePrinter::fmt(secs[1], 2),
                     util::TablePrinter::fmt(secs[2], 2),
                     util::TablePrinter::fmt(secs[0] / secs[2]), ok ? "ok" : "BAD"});
    }
  }
  table.print();
  print_shape("GraphChi-M fastest on every dataset", graphchi_ok);
  print_shape("PowerGraph-M fastest where feasible", power_ok);
  print_shape("Chaos-M fastest on every dataset", chaos_ok);
  print_shape("Chaos-C slower than Chaos-S (paper's inversion)", chaos_inversion);
  return 0;
}
