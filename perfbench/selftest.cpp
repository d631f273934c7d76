// Self-tests of the harness's own logic: the percentile picker's sample
// floor, the result check feeding failed_frac, and the ledger adding up to
// job wall time. Exits 0 when every check passes.
//
//   perfbench_selftest --data-dir .bench_build/perfbench-data
#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "graph/generators.hpp"
#include "grid/grid_store.hpp"
#include "probe.hpp"
#include "runtime/executor.hpp"
#include "runtime/workloads.hpp"
#include "stats.hpp"

namespace gm = graphm;
using perfbench::Ledger;
using perfbench::SpanKind;

namespace {

int g_failures = 0;

void expect(bool ok, const std::string& what) {
  std::printf("%s  %s\n", ok ? "ok  " : "FAIL", what.c_str());
  if (!ok) ++g_failures;
}

std::vector<double> ramp(std::size_t n) {
  std::vector<double> v(n);
  for (std::size_t i = 0; i < n; ++i) v[i] = static_cast<double>(n - i);  // unsorted input
  return v;
}

void test_percentile_picker() {
  expect(!perfbench::pick_percentile(ramp(16), 0.95),
         "p95 of 16 samples is refused (0 beyond)");
  expect(!perfbench::pick_percentile(ramp(199), 0.95),
         "p95 of 199 samples is refused (9 beyond)");
  const auto p95_200 = perfbench::pick_percentile(ramp(200), 0.95);
  expect(p95_200 && *p95_200 == 190.0, "p95 of 200 samples is the 190th (10 beyond)");
  const auto p95_320 = perfbench::pick_percentile(ramp(320), 0.95);
  expect(p95_320 && *p95_320 == 304.0, "p95 of 320 samples is the 304th (16 beyond)");
  expect(!perfbench::pick_percentile(ramp(320), 0.99),
         "p99 of 320 samples is refused (3 beyond)");
  expect(!perfbench::pick_percentile({}, 0.5), "empty sample is refused");
  expect(perfbench::median({3, 1, 2, 10}) == 2.5, "median of an even count");
}

void test_ledger_synthetic() {
  // One job thread: job [0,100] > acquire [10,40] > storage read [15,35];
  // barrier [50,60]; bookkeeping [60,62]. Another track holds a storage read
  // outside any job (set-up) that overlaps the job in time; the ledger must
  // ignore it.
  const auto tracer = perfbench::make_tracer(64);
  const std::uint32_t job_track = tracer->track("job thread");
  const std::uint32_t setup_track = tracer->track("set-up thread");
  auto span = [&](std::uint32_t track, SpanKind kind, std::uint64_t start, std::uint64_t end) {
    tracer->complete(track, perfbench::span_kind_name(kind), start, end - start, 0,
                     static_cast<std::uint64_t>(kind));
  };
  span(setup_track, SpanKind::kStorageRead, 0, 1000);
  span(job_track, SpanKind::kBookkeeping, 60, 62);
  span(job_track, SpanKind::kBarrier, 50, 60);
  span(job_track, SpanKind::kStorageRead, 15, 35);
  span(job_track, SpanKind::kAcquire, 10, 40);
  span(job_track, SpanKind::kJob, 0, 100);
  const Ledger l = perfbench::build_ledger(tracer->snapshot(), /*compute_ns=*/20, /*sim_ns=*/5);
  expect(l.wall_ns == 100 && l.storage_ns == 20 && l.acquire_ns == 10 && l.barrier_ns == 10 &&
             l.bookkeeping_ns == 2 && l.other_ns == 33,
         "synthetic ledger: self times, nested read counted once, other tracks ignored");
  expect(l.acquire_wait_ns() == 30, "acquire wait includes the read it made");
}

bool ledger_closes(const Ledger& l) {
  const auto sum = static_cast<std::int64_t>(l.storage_ns + l.acquire_ns + l.barrier_ns +
                                             l.bookkeeping_ns + l.sim_ns + l.compute_ns) +
                   l.other_ns;
  return sum == static_cast<std::int64_t>(l.wall_ns) && l.other_ns >= 0 && l.wall_ns > 0;
}

void test_batches(const std::string& data_dir) {
  auto graph = gm::graph::generate_rmat(4096, 60'000, 7);
  gm::graph::randomize_weights(graph, 1.0f, 64.0f, 8);
  const auto jobs = gm::runtime::paper_mix(8, graph.num_vertices(), 9);
  const auto reference = perfbench::reference_results(graph, jobs, 2);
  const std::string path = data_dir + "/selftest-" + std::to_string(::getpid());
  gm::grid::GridStore::preprocess(graph, 4, path);
  {
    const gm::grid::GridStore store = gm::grid::GridStore::open(path);
    gm::runtime::ExecutorConfig config;
    config.platform.memory_bytes = 256 * 1024;  // out of core at this size
    config.record_results = true;

    for (const auto scheme : {gm::runtime::Scheme::kShared, gm::runtime::Scheme::kConcurrent}) {
      const std::string name = gm::runtime::scheme_name(scheme);
      auto metrics = gm::runtime::run_jobs(scheme, store, jobs, config);
      std::vector<std::vector<double>> results;
      for (auto& job : metrics.jobs) results.push_back(std::move(job.result));
      expect(perfbench::count_mismatches(jobs, reference, results) == 0,
             name + ": every job matches the reference");

      // A corrupted result is counted; PageRank noise below tolerance is not.
      auto corrupted = results;
      corrupted[3][1] += 1.0;  // a BFS level off by one
      expect(perfbench::count_mismatches(jobs, reference, corrupted) == 1,
             name + ": a corrupted BFS result is counted as failed");
      auto jittered = results;
      jittered[1][0] += 1e-12;
      expect(perfbench::count_mismatches(jobs, reference, jittered) == 0,
             name + ": PageRank within 1e-9 passes");
      jittered[1][0] += 1e-6;
      expect(perfbench::count_mismatches(jobs, reference, jittered) == 1,
             name + ": PageRank off by 1e-6 is counted as failed");
      auto truncated = results;
      truncated[0].clear();
      expect(perfbench::count_mismatches(jobs, reference, truncated) == 1,
             name + ": a missing result is counted as failed");

      const auto traced = perfbench::run_traced_batch(scheme, store, jobs, config);
      expect(perfbench::count_mismatches(jobs, reference, traced.results) == 0,
             name + ": traced batch matches the reference");
      expect(ledger_closes(traced.ledger), name + ": ledger buckets add up to job wall");
      expect(traced.storage.calls > 0 && traced.storage.bytes > 0,
             name + ": storage reads are counted");
    }
  }
  for (const char* ext : {".meta", ".data", ".deg"}) std::remove((path + ext).c_str());
}

}  // namespace

int main(int argc, char** argv) {
  std::string data_dir = ".";
  for (int i = 1; i + 1 < argc; ++i) {
    if (std::string(argv[i]) == "--data-dir") data_dir = argv[i + 1];
  }
  test_percentile_picker();
  test_ledger_synthetic();
  test_batches(data_dir);
  std::printf("%s\n", g_failures == 0 ? "selftest passed" : "selftest FAILED");
  return g_failures == 0 ? 0 : 1;
}
