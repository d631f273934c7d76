// Figure 16: sensitivity to the job-submission frequency lambda on UK-union.
// Paper: the higher the lambda (more tightly packed submissions), the higher
// GraphM's speedup, because more jobs overlap and share each traversal.
#include "bench_support.hpp"

#include "runtime/job_queue.hpp"

using namespace graphm;
using namespace graphm::bench;

int main() {
  util::TablePrinter table("Figure 16: normalized execution time vs lambda (ukunion_s)");
  table.set_header({"lambda", "S", "C", "M", "S/M speedup"});

  double first_speedup = 0.0;
  double last_speedup = 0.0;
  for (const double lambda : {2.0, 4.0, 6.0, 8.0, 10.0}) {
    const auto customize = [&](runtime::ExecutorConfig& config,
                               std::vector<algos::JobSpec>& specs) {
      config.arrival_offsets_ns =
          runtime::poisson_arrivals(specs.size(), lambda, 40'000'000, 7);
    };
    const auto s = run_scheme(runtime::Scheme::kSequential, "ukunion_s", 8, customize);
    const auto c = run_scheme(runtime::Scheme::kConcurrent, "ukunion_s", 8, customize);
    const auto m = run_scheme(runtime::Scheme::kShared, "ukunion_s", 8, customize);
    const double speedup = s.total_s / m.total_s;
    table.add_row({util::TablePrinter::fmt(lambda, 0), util::TablePrinter::fmt(1.0),
                   util::TablePrinter::fmt(c.total_s / s.total_s),
                   util::TablePrinter::fmt(m.total_s / s.total_s),
                   util::TablePrinter::fmt(speedup)});
    if (first_speedup == 0.0) first_speedup = speedup;
    last_speedup = speedup;
  }
  table.print();
  print_shape("speedup grows with lambda (paper: higher lambda, higher gain)",
              last_speedup > first_speedup);
  return 0;
}
