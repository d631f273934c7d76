// Figure 18: ablation of Section 4's scheduling strategy — GridGraph-M with
// the Formula-5 loading order vs GridGraph-M-without (default pid order).
// Paper: the strategy always helps; on Clueweb12, -M runs in 72.5% of
// -M-without's time.
#include "bench_support.hpp"

using namespace graphm;
using namespace graphm::bench;

int main() {
  util::TablePrinter table("Figure 18: scheduling strategy ablation (normalized time)");
  table.set_header({"dataset", "M-without", "M", "M/M-without"});

  int wins = 0;
  int count = 0;
  for (const std::string& dataset : bench_datasets()) {
    const auto without = run_scheme(
        runtime::Scheme::kShared, dataset, 16,
        [](runtime::ExecutorConfig& config, std::vector<algos::JobSpec>&) {
          config.graphm.use_scheduling = false;
        });
    const auto with = run_scheme(runtime::Scheme::kShared, dataset, 16);
    const double ratio = with.total_s / without.total_s;
    table.add_row({dataset, util::TablePrinter::fmt(1.0),
                   util::TablePrinter::fmt(ratio),
                   util::TablePrinter::fmt(100.0 * ratio, 1) + "%"});
    ++count;
    if (ratio <= 1.05) ++wins;
  }
  table.print();
  print_shape("scheduling strategy never hurts materially (ratio <= 1.05)",
              wins == count);
  return 0;
}
