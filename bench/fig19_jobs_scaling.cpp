// Figure 19: total execution time of 1/2/4/8/16 concurrent PageRank jobs on
// Clueweb12 per scheme. Paper: GridGraph-M's speedup over -S grows with the
// job count (1.79x at 2 jobs up to 5.94x at 16) because the shared traversal
// amortizes over more jobs; with one job the three schemes are comparable.
#include "bench_support.hpp"

using namespace graphm;
using namespace graphm::bench;

int main() {
  const std::string dataset = "clueweb_s";
  util::TablePrinter table("Figure 19: PageRank job-count scaling on clueweb_s (seconds)");
  table.set_header({"#jobs", "S", "C", "M", "S/M speedup"});

  const auto customize = [&](runtime::ExecutorConfig&, std::vector<algos::JobSpec>& specs) {
    specs = runtime::uniform_mix(algos::AlgorithmKind::kPageRank, specs.size(), 1, 19);
    // uniform_mix needs the vertex count only for roots; PageRank ignores it.
    for (auto& spec : specs) spec.max_iterations = 3;
  };

  std::vector<double> speedups;
  double single_gap = 0.0;
  for (const std::size_t jobs : {1u, 2u, 4u, 8u}) {
    const auto s = run_scheme(runtime::Scheme::kSequential, dataset, jobs, customize);
    const auto c = run_scheme(runtime::Scheme::kConcurrent, dataset, jobs, customize);
    const auto m = run_scheme(runtime::Scheme::kShared, dataset, jobs, customize);
    const double speedup = s.total_s / m.total_s;
    table.add_row({std::to_string(jobs), util::TablePrinter::fmt(s.total_s, 2),
                   util::TablePrinter::fmt(c.total_s, 2),
                   util::TablePrinter::fmt(m.total_s, 2),
                   util::TablePrinter::fmt(speedup)});
    if (jobs == 1) single_gap = speedup;
    speedups.push_back(speedup);
  }
  table.print();
  print_shape("speedup grows with the number of jobs", speedups.back() > speedups.front());
  print_shape("with one job the schemes are comparable (|S/M - 1| < 0.35)",
              single_gap > 0.65 && single_gap < 1.35);
  return 0;
}
