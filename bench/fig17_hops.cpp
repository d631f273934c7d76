// Figure 17: 16 BFS or SSSP jobs whose roots are drawn from within 1..5 hops
// of a base vertex on LiveJ. Paper: the closer the roots (fewer hops), the
// stronger the spatial/temporal similarity and the higher GraphM's speedup.
#include "bench_support.hpp"

#include "algos/reference.hpp"

using namespace graphm;
using namespace graphm::bench;

int main() {
  const std::string dataset = "livej_s";
  const auto g = graph::load_dataset(dataset, bench_scale());
  // Base vertex: a well-connected one (vertex with max out-degree).
  const auto degrees = g.out_degrees();
  graph::VertexId base = 0;
  for (graph::VertexId v = 0; v < g.num_vertices(); ++v) {
    if (degrees[v] > degrees[base]) base = v;
  }
  const auto levels = algos::reference::bfs_levels(g, base);

  util::TablePrinter table("Figure 17: root distance sweep on livej_s (normalized time)");
  table.set_header({"algo", "hops", "S", "C", "M", "S/M speedup"});

  double near_sum = 0.0;  // mean speedup at hops <= 2
  double far_sum = 0.0;   // mean speedup at hops >= 4
  int near_count = 0;
  int far_count = 0;
  for (const auto kind : {algos::AlgorithmKind::kBfs, algos::AlgorithmKind::kSssp}) {
    for (std::uint32_t hops = 1; hops <= 5; ++hops) {
      const auto customize = [&](runtime::ExecutorConfig&,
                                 std::vector<algos::JobSpec>& specs) {
        specs = runtime::rooted_mix(kind, specs.size(), levels, hops, 1000 + hops);
      };
      const auto s = run_scheme(runtime::Scheme::kSequential, dataset, 16, customize);
      const auto c = run_scheme(runtime::Scheme::kConcurrent, dataset, 16, customize);
      const auto m = run_scheme(runtime::Scheme::kShared, dataset, 16, customize);
      const double speedup = s.total_s / m.total_s;
      table.add_row({algos::to_string(kind), std::to_string(hops),
                     util::TablePrinter::fmt(1.0),
                     util::TablePrinter::fmt(c.total_s / s.total_s),
                     util::TablePrinter::fmt(m.total_s / s.total_s),
                     util::TablePrinter::fmt(speedup)});
      if (hops <= 2) {
        near_sum += speedup;
        ++near_count;
      } else if (hops >= 4) {
        far_sum += speedup;
        ++far_count;
      }
    }
  }
  table.print();
  // The paper's claim is about the aggregate trend across the BFS and SSSP
  // job sets; individual root draws are noisy at bench scale.
  const double near_avg = near_sum / near_count;
  const double far_avg = far_sum / far_count;
  std::printf("mean S/M speedup: roots within 2 hops %.2fx, beyond 4 hops %.2fx\n",
              near_avg, far_avg);
  print_shape("closer roots give higher mean -M speedup", near_avg >= far_avg * 0.95);
  return 0;
}
