// Wall-clock benchmark harness. Runs one workload on inputs generated from
// --seed, checks every job's result against the serial reference, and prints
// one JSON line: the end-to-end metrics (--trace 0) or the per-layer metrics
// (--trace 1). See README.md for the workloads and the metric map.
//
//   perfbench_harness --workload ooc-batch-shared --seed 1 --seconds 20
//                     --trace 0 --data-dir .bench_build/perfbench-data
#include <malloc.h>
#include <spawn.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <functional>
#include <numeric>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "graph/generators.hpp"
#include "grid/grid_store.hpp"
#include "probe.hpp"
#include "runtime/executor.hpp"
#include "runtime/workloads.hpp"
#include "service/job_service.hpp"
#include "stats.hpp"
#include "util/rng.hpp"
#include "util/timer.hpp"

namespace gm = graphm;
using gm::runtime::Scheme;
using perfbench::median;

namespace {

// --- inputs -----------------------------------------------------------------

// Out-of-core batches: 12 MB of edges against a 4 MiB simulated memory. The
// paper-scale plan (4M edges, 16 MiB) keeps the 3:1 ratio but took 7-8 s a
// batch under -M, too few batches in a run for a steady median; this size
// takes about 2 s.
constexpr gm::graph::VertexId kOocVertices = 65'536;
constexpr gm::graph::EdgeCount kOocEdges = 1'000'000;
constexpr std::uint32_t kOocPartitions = 8;
constexpr std::size_t kOocMemoryBytes = 4ull << 20;
constexpr std::size_t kBatchJobs = 16;

// A batch during which the hypervisor took more than this share of the
// guest's CPU time (/proc/stat steal) is left out of the medians, and the run
// goes on, up to kMaxStretch times --seconds, until kMinCleanBatches batches
// are clean. Without enough clean batches the least-stolen ones are used.
// The lock-step -M batch ran 3-4x slower at 17-20% steal than at 1%.
constexpr double kMaxStealFrac = 0.05;
constexpr std::size_t kMinCleanBatches = 5;
constexpr double kMaxStretch = 1.5;

// In-memory service: 12 MB of edges against the default 32 MiB memory, one
// worker on its own loader, fed by a closed loop of one client. Shared
// execution and more workers were not steady on a 4-vCPU guest: an
// open-loop Poisson stream into shared groups swung latency by 35-100%
// between seeds even at 8 jobs/s, and 4 isolated workers swung 27-62 jobs/s
// with the host's steal time. One worker ran the same seed within 7%.
constexpr gm::graph::VertexId kSvcVertices = 65'536;
constexpr gm::graph::EdgeCount kSvcEdges = 1'000'000;
constexpr std::uint32_t kSvcPartitions = 8;
constexpr std::size_t kSvcWorkers = 1;
constexpr std::size_t kSvcCatalogue = 256;  // distinct jobs, cycled in order
// The loop runs past --seconds until this many jobs are done, so that the
// p95 has at least ten samples beyond it even on a slow host.
constexpr std::size_t kSvcMinJobs = 256;
// Storage spans the service worker records in a traced loop: about 45 a job,
// so a ring of this size holds some 5,000 jobs.
constexpr std::size_t kSvcRingCapacity = 1 << 18;

// peak_rss_mb is the RSS high-water mark of a separate process that opens the
// workload's grid files and runs only the workload, for a fixed amount of
// work: kRssBatches batches, or one pass over the service's catalogue. The
// timed process's own RSS also holds the harness's graph, reference runs
// and their allocator arenas, and grows with the number of jobs it times.
// The probe process fixes glibc's mmap threshold, so freed large blocks leave
// the RSS: with the adaptive threshold, what glibc kept of freed blocks swung
// one -M seed's peak between 73 and 96 MB; fixed, it read 45.0-45.3 MB.
constexpr int kRssBatches = 3;
constexpr int kRssMmapThreshold = 128 * 1024;

constexpr int kSetupRepeats = 5;
constexpr double kModeledCores = 16.0;
constexpr double kDramLatencyS = 150e-9;

// Holdout inputs come from a separate seed stream; nobody tunes on them.
constexpr std::uint64_t kHoldoutStream = 0x401D;

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  bool holdout = false;
  std::string data_dir = ".";
  std::string rss_probe;  // grid files to open in the RSS probe process
};

struct Seeds {
  std::uint64_t graph, jobs;
  explicit Seeds(const Options& o) {
    const std::uint64_t root =
        o.holdout ? gm::util::derive_stream_seed(o.seed, kHoldoutStream) : o.seed;
    graph = gm::util::derive_stream_seed(root, 1);
    jobs = gm::util::derive_stream_seed(root, 2);
  }
};

gm::graph::EdgeList make_graph(gm::graph::VertexId vertices, gm::graph::EdgeCount edges,
                               const Seeds& seeds) {
  return gm::graph::generate_rmat(vertices, edges, seeds.graph);
}

/// Gives the jobs of `kind` in each block of kBatchJobs evenly spaced
/// iteration budgets over [lo, lo + span), in a seed-driven order.
void stratify_budgets(std::vector<gm::algos::JobSpec>& jobs, gm::algos::AlgorithmKind kind,
                      std::uint32_t lo, std::uint32_t span, gm::util::SplitMix64& rng) {
  for (std::size_t block = 0; block < jobs.size(); block += kBatchJobs) {
    std::vector<std::size_t> members;
    for (std::size_t i = block; i < std::min(block + kBatchJobs, jobs.size()); ++i) {
      if (jobs[i].kind == kind) members.push_back(i);
    }
    for (std::size_t k = members.size(); k > 1; --k) {
      std::swap(members[k - 1], members[rng.next_below(k)]);
    }
    for (std::size_t k = 0; k < members.size(); ++k) {
      jobs[members[k]].max_iterations =
          lo + static_cast<std::uint32_t>((static_cast<double>(k) + 0.5) * span /
                                          static_cast<double>(members.size()));
    }
  }
}

/// The paper mix (WCC, PageRank, SSSP, BFS in turn, parameters drawn from
/// the seed) with two changes that keep one seed's mix from being much
/// heavier or lighter than another's:
///  * within each block of 16 jobs, the PageRank (6-11) and WCC (1-24)
///    iteration budgets are stratified over the paper's ranges rather than
///    drawn independently. The longest job sets a batch's makespan, and
///    independent draws swung batch throughput by about 10% between seeds;
///  * a BFS or SSSP root without out-edges moves to the next vertex that has
///    some. Such a job ends after one empty iteration, and how many of them
///    a seed drew swung the service's latency median between seeds.
std::vector<gm::algos::JobSpec> make_jobs(std::size_t count,
                                          const std::vector<std::uint32_t>& degrees,
                                          std::uint64_t seed) {
  const auto num_vertices = static_cast<gm::graph::VertexId>(degrees.size());
  auto jobs = gm::runtime::paper_mix(count, num_vertices, seed);
  gm::util::SplitMix64 rng(gm::util::derive_stream_seed(seed, 1));
  stratify_budgets(jobs, gm::algos::AlgorithmKind::kPageRank, 6, 6, rng);
  stratify_budgets(jobs, gm::algos::AlgorithmKind::kWcc, 1, 24, rng);
  for (auto& job : jobs) {
    if (job.kind != gm::algos::AlgorithmKind::kBfs &&
        job.kind != gm::algos::AlgorithmKind::kSssp) {
      continue;
    }
    for (std::size_t step = 0; step < degrees.size() && degrees[job.root] == 0; ++step) {
      job.root = (job.root + 1) % num_vertices;
    }
  }
  return jobs;
}

gm::runtime::ExecutorConfig batch_config() {
  gm::runtime::ExecutorConfig config;
  config.platform.memory_bytes = kOocMemoryBytes;
  config.record_results = true;
  return config;
}

gm::service::ServiceConfig service_config() {
  gm::service::ServiceConfig config;
  config.mode = gm::service::ExecMode::kIsolated;
  config.policy = gm::service::AdmissionPolicy::kImmediate;
  config.workers = kSvcWorkers;
  config.record_results = true;
  config.stream.model_llc = false;
  config.stream.model_vertex_data = false;
  return config;
}

std::size_t host_threads() {
  return std::max(1u, std::thread::hardware_concurrency());
}

// --- report -----------------------------------------------------------------

class Report {
 public:
  void add(const std::string& name, double value, const std::string& unit) {
    if (!std::isfinite(value)) throw std::runtime_error("metric " + name + " is not finite");
    metrics_.push_back({name, value, unit});
  }
  void print(bool correct, std::uint64_t attempted, std::uint64_t failed) const {
    std::ostringstream out;
    out << "{\"correct\": " << (correct ? "true" : "false") << ", \"attempted\": " << attempted
        << ", \"failed\": " << failed << ", \"metrics\": {";
    char number[64];
    for (std::size_t i = 0; i < metrics_.size(); ++i) {
      std::snprintf(number, sizeof(number), "%.17g", metrics_[i].value);
      out << (i == 0 ? "" : ", ") << '"' << metrics_[i].name << "\": {\"value\": " << number
          << ", \"unit\": \"" << metrics_[i].unit << "\"}";
    }
    out << "}}";
    std::printf("%s\n", out.str().c_str());
    std::fflush(stdout);
  }

 private:
  struct Metric {
    std::string name;
    double value;
    std::string unit;
  };
  std::vector<Metric> metrics_;
};

struct Tally {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  [[nodiscard]] double failed_frac() const {
    return attempted == 0 ? 0.0 : static_cast<double>(failed) / static_cast<double>(attempted);
  }
};

// --- process counters -------------------------------------------------------

struct Usage {
  double user_s = 0, sys_s = 0, voluntary = 0, involuntary = 0;
  double host_ticks = 0, steal_ticks = 0;  // all CPUs, from /proc/stat
  [[nodiscard]] double steal_frac() const {
    return host_ticks > 0 ? steal_ticks / host_ticks : 0.0;
  }
  Usage operator-(const Usage& o) const {
    return {user_s - o.user_s,           sys_s - o.sys_s,
            voluntary - o.voluntary,     involuntary - o.involuntary,
            host_ticks - o.host_ticks,   steal_ticks - o.steal_ticks};
  }
};

Usage usage_now() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  auto secs = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) + static_cast<double>(tv.tv_usec) / 1e6;
  };
  Usage u{secs(ru.ru_utime), secs(ru.ru_stime), static_cast<double>(ru.ru_nvcsw),
          static_cast<double>(ru.ru_nivcsw)};
  // "cpu user nice system idle iowait irq softirq steal ...": time the
  // hypervisor ran something else on this guest's CPUs.
  std::ifstream stat("/proc/stat");
  std::string cpu;
  stat >> cpu;
  double ticks = 0;
  for (int field = 0; field < 8 && stat >> ticks; ++field) {
    u.host_ticks += ticks;
    if (field == 7) u.steal_ticks = ticks;
  }
  return u;
}

void add_usage(Report& report, const std::vector<Usage>& samples) {
  auto med = [&](auto field) {
    std::vector<double> v;
    for (const Usage& u : samples) v.push_back(std::invoke(field, u));
    return median(v);
  };
  report.add("proc.user_cpu_s", med(&Usage::user_s), "s");
  report.add("proc.sys_cpu_s", med(&Usage::sys_s), "s");
  report.add("proc.voluntary_ctx_switches", med(&Usage::voluntary), "count");
  report.add("proc.involuntary_ctx_switches", med(&Usage::involuntary), "count");
  report.add("host.steal_frac", med(&Usage::steal_frac), "ratio");
}

/// The calling process's RSS high-water mark.
double peak_rss_mb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) return std::stod(line.substr(6)) * 1024.0 / 1e6;
  }
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) * 1024.0 / 1e6;
}

/// Share of requested bytes the simulated page cache served. Whole-page
/// fetches can exceed the bytes requested, hence the clamp.
double hit_ratio(const gm::sim::IoStats& io) {
  if (io.read_bytes == 0) return 0.0;
  return std::max(0.0, 1.0 - static_cast<double>(io.disk_read_bytes) /
                                 static_cast<double>(io.read_bytes));
}

double ms(std::uint64_t ns) { return static_cast<double>(ns) / 1e6; }
double secs(std::uint64_t ns) { return static_cast<double>(ns) / 1e9; }

/// The tail percentile of a pooled sample, refused below the sample floor.
double tail(const std::vector<double>& samples, double p, const char* what) {
  const auto value = perfbench::pick_percentile(samples, p);
  if (!value) {
    throw std::runtime_error(std::string(what) + ": too few samples (" +
                             std::to_string(samples.size()) + ") for the percentile");
  }
  return *value;
}

/// Batches hold 16 jobs, too few for a p95 with ten samples beyond it, so a
/// batch's tail is its own nearest-rank p95 (the last of 16), median over
/// the run's batches.
double batch_tail(const std::vector<std::vector<double>>& per_batch) {
  std::vector<double> tails;
  for (std::vector<double> batch : per_batch) {
    if (batch.empty()) continue;
    std::sort(batch.begin(), batch.end());
    const auto rank = static_cast<std::size_t>(std::ceil(0.95 * static_cast<double>(batch.size())));
    tails.push_back(batch[rank - 1]);
  }
  return median(tails);
}

/// Most jobs executing at once, from their [start, completion) intervals.
double peak_concurrency(const std::vector<gm::runtime::JobOutcome>& jobs) {
  std::vector<std::pair<std::uint64_t, int>> events;
  for (const auto& j : jobs) {
    events.emplace_back(j.start_ns, 1);
    events.emplace_back(j.completion_ns, -1);
  }
  std::sort(events.begin(), events.end());
  int running = 0, peak = 0;
  for (const auto& [t, delta] : events) {
    running += delta;
    peak = std::max(peak, running);
  }
  return peak;
}

class GridFiles {
 public:
  explicit GridFiles(std::string path) : path_(std::move(path)) {}
  ~GridFiles() {
    for (const char* ext : {".meta", ".data", ".deg"}) std::remove((path_ + ext).c_str());
  }
  GridFiles(const GridFiles&) = delete;
  GridFiles& operator=(const GridFiles&) = delete;
  [[nodiscard]] const std::string& path() const { return path_; }

 private:
  std::string path_;
};

std::string data_path(const Options& o, const char* stem) {
  return o.data_dir + "/" + stem + "-" + std::to_string(::getpid());
}

/// Dumps a traced part's spans as Chrome trace JSON next to the grid files,
/// one file per workload, overwritten by each run.
void write_spans(const Options& o, const gm::obs::TraceProcess& trace) {
  const std::string path = o.data_dir + "/spans-" + o.workload + ".json";
  if (!gm::obs::write_chrome_trace(path, {trace})) {
    std::fprintf(stderr, "perfbench: cannot write spans to %s\n", path.c_str());
  }
}

// --- peak RSS probe ----------------------------------------------------------

/// The probe process's work: opens the grid files, runs the workload's fixed
/// amount of work with neither checks nor timing, and returns its peak RSS.
double run_rss_probe(const Options& o) {
  mallopt(M_MMAP_THRESHOLD, kRssMmapThreshold);
  const Seeds seeds(o);
  const gm::grid::GridStore store = gm::grid::GridStore::open(o.rss_probe);
  if (o.workload == "inmem-service-isolated") {
    const auto catalogue = make_jobs(kSvcCatalogue, store.load_out_degrees(), seeds.jobs);
    gm::service::JobService svc(store, service_config());
    for (const auto& spec : catalogue) svc.submit(spec).await();
  } else {
    const Scheme scheme =
        o.workload == "ooc-batch-shared" ? Scheme::kShared : Scheme::kConcurrent;
    const auto jobs = make_jobs(kBatchJobs, store.load_out_degrees(), seeds.jobs);
    for (int b = 0; b < kRssBatches; ++b) {
      gm::runtime::run_jobs(scheme, store, jobs, batch_config());
    }
  }
  return peak_rss_mb();
}

/// Runs this binary with --rss-probe on `grid_path`, waits for it, and
/// returns the peak RSS it prints.
double probe_peak_rss(const Options& o, const std::string& grid_path) {
  std::vector<std::string> args = {"perfbench_harness", "--workload", o.workload,
                                   "--seed", std::to_string(o.seed), "--rss-probe", grid_path};
  if (o.holdout) args.emplace_back("--holdout");
  std::vector<char*> argv;
  for (std::string& arg : args) argv.push_back(arg.data());
  argv.push_back(nullptr);

  int fds[2];
  if (::pipe(fds) != 0) throw std::runtime_error("RSS probe: cannot create a pipe");
  posix_spawn_file_actions_t actions;
  posix_spawn_file_actions_init(&actions);
  posix_spawn_file_actions_adddup2(&actions, fds[1], STDOUT_FILENO);
  posix_spawn_file_actions_addclose(&actions, fds[0]);
  pid_t pid = 0;
  const int spawned = posix_spawn(&pid, "/proc/self/exe", &actions, nullptr, argv.data(), environ);
  posix_spawn_file_actions_destroy(&actions);
  ::close(fds[1]);
  std::string out;
  if (spawned == 0) {
    char buffer[256];
    ssize_t n = 0;
    while ((n = ::read(fds[0], buffer, sizeof(buffer))) > 0 || (n < 0 && errno == EINTR)) {
      if (n > 0) out.append(buffer, static_cast<std::size_t>(n));
    }
  }
  ::close(fds[0]);
  int status = 0;
  if (spawned != 0) throw std::runtime_error("RSS probe: cannot start the probe process");
  if (::waitpid(pid, &status, 0) != pid || !WIFEXITED(status) || WEXITSTATUS(status) != 0) {
    throw std::runtime_error("RSS probe process failed");
  }
  return std::stod(out);
}

// --- batch workloads ---------------------------------------------------------

struct BatchSample {
  double makespan_s = 0;
  double setup_s = 0;  // the run_jobs call outside its measured makespan
  std::vector<double> latency_ms, queue_wait_ms, exec_ms;
  Usage usage;
  gm::runtime::RunMetrics metrics;  // results dropped once checked
};

/// The batches the medians use: those with at most kMaxStealFrac steal or,
/// when fewer than kMinCleanBatches are, the kMinCleanBatches least stolen.
template <class Batch>
std::vector<Batch> keep_least_stolen(std::vector<Batch> batches, const std::vector<double>& steal) {
  std::vector<std::size_t> order(batches.size());
  std::iota(order.begin(), order.end(), 0);
  std::stable_sort(order.begin(), order.end(),
                   [&](std::size_t a, std::size_t b) { return steal[a] < steal[b]; });
  std::vector<Batch> kept;
  for (const std::size_t i : order) {
    if (kept.size() >= kMinCleanBatches && steal[i] > kMaxStealFrac) break;
    kept.push_back(std::move(batches[i]));
  }
  return kept;
}

void check_batch(const std::vector<gm::algos::JobSpec>& jobs,
                 const std::vector<perfbench::Expected>& reference,
                 const std::vector<std::vector<double>>& results, Tally& tally) {
  tally.attempted += jobs.size();
  tally.failed += perfbench::count_mismatches(jobs, reference, results);
}

Tally run_batch(const Options& o, Scheme scheme, Report& report) {
  const Seeds seeds(o);
  auto graph = make_graph(kOocVertices, kOocEdges, seeds);
  const auto jobs = make_jobs(kBatchJobs, graph.out_degrees(), seeds.jobs);
  const auto reference = perfbench::reference_results(graph, jobs, host_threads());

  const GridFiles files(data_path(o, "ooc"));
  std::vector<double> store_setup_s;
  std::optional<gm::grid::GridStore> store;
  for (int r = 0; r < kSetupRepeats; ++r) {
    store.reset();
    const gm::util::Timer timer;
    gm::grid::GridStore::preprocess(graph, kOocPartitions, files.path());
    store.emplace(gm::grid::GridStore::open(files.path()));
    store_setup_s.push_back(timer.elapsed_s());
  }
  graph = gm::graph::EdgeList{};  // the harness's copy is not the program's memory

  const gm::runtime::ExecutorConfig config = batch_config();

  Tally tally;
  std::vector<BatchSample> plain;
  std::vector<perfbench::TracedBatch> traced;
  std::vector<double> plain_steal, traced_steal;
  double timed_s = 0;
  auto more = [&] {
    if (plain.empty() || (o.trace && traced.empty()) || timed_s < o.seconds) return true;
    const auto clean = std::count_if(plain_steal.begin(), plain_steal.end(),
                                     [](double f) { return f <= kMaxStealFrac; });
    return static_cast<std::size_t>(clean) < kMinCleanBatches &&
           timed_s < kMaxStretch * o.seconds;
  };
  for (std::size_t b = 0; more(); ++b) {
    const Usage before = usage_now();
    if (o.trace && b % 2 == 1) {
      const gm::util::Timer timer;
      traced.push_back(perfbench::run_traced_batch(scheme, *store, jobs, config));
      timed_s += timer.elapsed_s();
      traced_steal.push_back((usage_now() - before).steal_frac());
      check_batch(jobs, reference, traced.back().results, tally);
      traced.back().results.clear();
      if (traced.size() > 1) traced[traced.size() - 2].trace = {};  // keep the last
      continue;
    }
    BatchSample sample;
    const gm::util::Timer timer;
    sample.metrics = gm::runtime::run_jobs(scheme, *store, jobs, config);
    const double call_s = timer.elapsed_s();
    sample.usage = usage_now() - before;
    plain_steal.push_back(sample.usage.steal_frac());
    timed_s += call_s;
    sample.makespan_s = secs(sample.metrics.makespan_wall_ns);
    sample.setup_s = call_s - sample.makespan_s;
    std::vector<std::vector<double>> results;
    for (auto& job : sample.metrics.jobs) {
      sample.latency_ms.push_back(ms(job.latency_ns()));
      sample.queue_wait_ms.push_back(ms(job.queue_wait_ns()));
      sample.exec_ms.push_back(ms(job.completion_ns - job.start_ns));
      results.push_back(std::move(job.result));
    }
    check_batch(jobs, reference, results, tally);
    plain.push_back(std::move(sample));
  }
  if (o.trace) write_spans(o, traced.back().trace);
  const std::size_t ran = plain.size();
  plain = keep_least_stolen(std::move(plain), plain_steal);
  traced = keep_least_stolen(std::move(traced), traced_steal);
  std::fprintf(stderr, "perfbench: medians over %zu of %zu untraced batches (steal <= %.0f%%)\n",
               plain.size(), ran, kMaxStealFrac * 100);

  auto over_plain = [&](auto&& field) {
    std::vector<double> v;
    for (const BatchSample& s : plain) v.push_back(field(s));
    return median(v);
  };
  std::vector<std::vector<double>> latency_by_batch, queue_by_batch, exec_by_batch;
  std::vector<double> latency_pooled, exec_pooled;
  for (const BatchSample& s : plain) {
    latency_by_batch.push_back(s.latency_ms);
    queue_by_batch.push_back(s.queue_wait_ms);
    exec_by_batch.push_back(s.exec_ms);
    latency_pooled.insert(latency_pooled.end(), s.latency_ms.begin(), s.latency_ms.end());
    exec_pooled.insert(exec_pooled.end(), s.exec_ms.begin(), s.exec_ms.end());
  }
  const double makespan_s = over_plain([](const BatchSample& s) { return s.makespan_s; });

  if (!o.trace) {
    report.add("jobs_per_s",
               over_plain([](const BatchSample& s) { return kBatchJobs / s.makespan_s; }), "1/s");
    report.add("latency_p50_ms", median(latency_pooled), "ms");
    report.add("latency_p95_ms", batch_tail(latency_by_batch), "ms");
    report.add("setup_s",
               median(store_setup_s) + over_plain([](const BatchSample& s) { return s.setup_s; }),
               "s");
    report.add("peak_rss_mb", probe_peak_rss(o, files.path()), "MB");
    return tally;
  }

  // Per-layer metrics: counts and modeled figures from the untraced
  // run_jobs batches, times from the traced batches; all per batch.
  auto over_traced = [&](auto&& field) {
    std::vector<double> v;
    for (const perfbench::TracedBatch& t : traced) v.push_back(field(t));
    return median(v);
  };
  using TB = perfbench::TracedBatch;
  report.add("storage.read_calls", over_traced([](const TB& t) { return t.storage.calls; }),
             "count");
  report.add("storage.read_bytes", over_traced([](const TB& t) { return t.storage.bytes; }),
             "B");
  report.add("storage.read_s", over_traced([](const TB& t) { return secs(t.storage.ns); }), "s");

  using BS = BatchSample;
  report.add("sim.page_cache.disk_read_bytes",
             over_plain([](const BS& s) { return s.metrics.io.disk_read_bytes; }), "B");
  report.add("sim.page_cache.hit_ratio",
             over_plain([](const BS& s) { return hit_ratio(s.metrics.io); }), "ratio");
  report.add("sim.llc_accesses", over_plain([](const BS& s) { return s.metrics.llc.accesses; }),
             "count");
  report.add("sim.llc_misses", over_plain([](const BS& s) { return s.metrics.llc.misses; }),
             "count");
  report.add("sim.peak_memory_mb",
             over_plain([](const BS& s) { return s.metrics.peak_memory_bytes / 1e6; }), "MB");
  report.add("sim.llc_s", over_traced([](const TB& t) { return secs(t.ledger.sim_ns); }), "s");

  report.add("graphm.acquire_wait_s",
             over_traced([](const TB& t) { return secs(t.ledger.acquire_wait_ns()); }), "s");
  report.add("graphm.barrier_wait_s",
             over_traced([](const TB& t) { return secs(t.ledger.barrier_ns); }), "s");
  report.add("graphm.bookkeeping_s",
             over_traced([](const TB& t) { return secs(t.ledger.bookkeeping_ns); }), "s");
  const auto sharing = [&](auto member) {
    return over_plain([&](const BS& s) { return static_cast<double>(s.metrics.sharing.*member); });
  };
  using Stats = gm::core::SharingController::Stats;
  const double loads = sharing(&Stats::partition_loads);
  const double attaches = sharing(&Stats::attaches);
  report.add("graphm.partition_loads", loads, "count");
  report.add("graphm.attaches", attaches, "count");
  report.add("graphm.mid_round_attaches", sharing(&Stats::mid_round_attaches), "count");
  report.add("graphm.suspensions", sharing(&Stats::suspensions), "count");
  report.add("graphm.chunk_barriers", sharing(&Stats::chunk_barriers), "count");
  report.add("graphm.attach_ratio", loads + attaches == 0 ? 0.0 : attaches / (loads + attaches),
             "ratio");

  const auto engine_sum = [&](auto member) {
    return over_plain([&](const BS& s) {
      double sum = 0;
      for (const auto& j : s.metrics.jobs) sum += static_cast<double>(j.stats.*member);
      return sum;
    });
  };
  using JRS = gm::grid::JobRunStats;
  const double streamed = engine_sum(&JRS::edges_streamed);
  const double processed = engine_sum(&JRS::edges_processed);
  report.add("engine.compute_s", engine_sum(&JRS::compute_ns) / 1e9, "s");
  report.add("engine.edges_streamed", streamed, "count");
  report.add("engine.edges_processed", processed, "count");
  report.add("engine.active_edge_ratio", streamed == 0 ? 0.0 : processed / streamed, "ratio");

  const double wall_s = over_traced([](const TB& t) { return secs(t.ledger.wall_ns); });
  const double other_s =
      over_traced([](const TB& t) { return static_cast<double>(t.ledger.other_ns) / 1e9; });
  report.add("job.wall_s", wall_s, "s");
  report.add("job.other_s", other_s, "s");
  report.add("job.other_frac", over_traced([](const TB& t) {
               return t.ledger.wall_ns == 0 ? 0.0
                                            : static_cast<double>(t.ledger.other_ns) /
                                                  static_cast<double>(t.ledger.wall_ns);
             }),
             "ratio");

  report.add("service.queue_wait_p50_ms", over_plain([](const BS& s) {
               return median(s.queue_wait_ms);
             }),
             "ms");
  report.add("service.queue_wait_p95_ms", batch_tail(queue_by_batch), "ms");
  report.add("service.exec_p50_ms", median(exec_pooled), "ms");
  report.add("service.peak_concurrency",
             over_plain([](const BS& s) { return peak_concurrency(s.metrics.jobs); }), "count");

  std::vector<Usage> usage;
  for (const BatchSample& s : plain) usage.push_back(s.usage);
  add_usage(report, usage);
  report.add("harness.lag_max_ms", 0.0, "ms");

  report.add("model.total_s", over_plain([](const BS& s) { return secs(s.metrics.total_time_ns()); }),
             "s");
  report.add("model.io_stall_s", over_plain([](const BS& s) { return secs(s.metrics.io_stall_ns); }),
             "s");
  report.add("model.mem_stall_s",
             over_plain([](const BS& s) { return secs(s.metrics.mem_stall_ns); }), "s");

  const double traced_makespan = over_traced([](const TB& t) { return secs(t.makespan_ns); });
  report.add("trace.overhead_frac", traced_makespan / makespan_s - 1.0, "ratio");
  report.add("failed_frac", tally.failed_frac(), "ratio");
  return tally;
}

// --- service workload --------------------------------------------------------

struct StreamResult {
  std::vector<double> latency_ms, queue_wait_ms, exec_ms;
  double lag_max_ms = 0;
  double jobs_per_s = 0;
  double compute_s = 0, exec_s = 0;
  double edges_streamed = 0, edges_processed = 0;
  Usage usage;
};

/// Runs a closed loop of kSvcWorkers clients from this one thread: each
/// client submits its next job as soon as its previous one finishes, until
/// `seconds` have passed and kSvcMinJobs jobs are done; then the service
/// drains. Each finished job's result is checked before its client's next
/// submission.
StreamResult run_closed_loop(gm::service::JobService& svc,
                             const std::vector<gm::algos::JobSpec>& catalogue,
                             const std::vector<perfbench::Expected>& reference, double seconds,
                             Tally& tally) {
  struct InFlight {
    gm::service::JobHandle handle;
    std::size_t spec;
  };
  StreamResult out;
  std::vector<InFlight> in_flight;
  std::uint64_t last_completion = 0;
  std::size_t next = 0;
  auto settle = [&](const InFlight& job) {
    const gm::service::JobRecord& rec = job.handle.await();
    const auto& outcome = rec.outcome;
    const bool done = rec.state.load() == gm::service::JobState::kDone;
    if (!done || !perfbench::result_matches(reference[job.spec], outcome.result)) {
      ++tally.failed;
      std::fprintf(stderr, "perfbench: service job %u (%s) failed or mismatched\n", rec.job_id,
                   catalogue[job.spec].label().c_str());
      return;
    }
    out.latency_ms.push_back(ms(outcome.latency_ns()));
    out.queue_wait_ms.push_back(ms(outcome.queue_wait_ns()));
    out.exec_ms.push_back(ms(outcome.completion_ns - outcome.start_ns));
    out.compute_s += secs(outcome.stats.compute_ns);
    out.exec_s += secs(outcome.completion_ns - outcome.start_ns);
    out.edges_streamed += static_cast<double>(outcome.stats.edges_streamed);
    out.edges_processed += static_cast<double>(outcome.stats.edges_processed);
    last_completion = std::max(last_completion, outcome.completion_ns);
    // How long the finished job's client waited for its next submission.
    out.lag_max_ms = std::max(out.lag_max_ms, ms(svc.now_ns() - outcome.completion_ns));
  };
  auto submit = [&] {
    const std::size_t spec = next++ % catalogue.size();
    ++tally.attempted;
    gm::service::JobHandle handle = svc.submit(catalogue[spec]);
    if (handle.state() == gm::service::JobState::kRejected) {
      ++tally.failed;
      std::fprintf(stderr, "perfbench: service rejected a %s job\n",
                   catalogue[spec].label().c_str());
      return;
    }
    in_flight.push_back({std::move(handle), spec});
  };

  const Usage before = usage_now();
  const std::uint64_t start = svc.now_ns();
  const auto deadline = start + static_cast<std::uint64_t>(seconds * 1e9);
  for (std::size_t c = 0; c < kSvcWorkers; ++c) submit();
  while (!in_flight.empty()) {
    std::size_t finished = 0;
    auto done = [&](const InFlight& job) {
      const auto state = job.handle.state();
      if (state != gm::service::JobState::kDone && state != gm::service::JobState::kCancelled) {
        return false;
      }
      settle(job);
      ++finished;
      return true;
    };
    in_flight.erase(std::remove_if(in_flight.begin(), in_flight.end(), done), in_flight.end());
    if (svc.now_ns() < deadline || out.latency_ms.size() < kSvcMinJobs) {
      for (; finished > 0; --finished) submit();
    }
    if (finished == 0) std::this_thread::sleep_for(std::chrono::microseconds(100));
  }
  out.usage = usage_now() - before;
  out.jobs_per_s = last_completion > start ? static_cast<double>(out.latency_ms.size()) /
                                                 secs(last_completion - start)
                                           : 0.0;
  return out;
}

Tally run_service(const Options& o, Report& report) {
  const Seeds seeds(o);
  auto graph = make_graph(kSvcVertices, kSvcEdges, seeds);
  const auto catalogue = make_jobs(kSvcCatalogue, graph.out_degrees(), seeds.jobs);
  const auto reference = perfbench::reference_results(graph, catalogue, host_threads());

  const gm::service::ServiceConfig config = service_config();

  const GridFiles files(data_path(o, "svc"));
  std::vector<double> setup_s;
  std::unique_ptr<gm::service::JobService> svc;
  std::optional<gm::grid::GridStore> store;
  for (int r = 0; r < kSetupRepeats; ++r) {
    svc.reset();
    store.reset();
    const gm::util::Timer timer;
    gm::grid::GridStore::preprocess(graph, kSvcPartitions, files.path());
    store.emplace(gm::grid::GridStore::open(files.path()));
    svc = std::make_unique<gm::service::JobService>(*store, config);
    setup_s.push_back(timer.elapsed_s());
  }
  graph = gm::graph::EdgeList{};

  Tally tally;
  const StreamResult plain = run_closed_loop(*svc, catalogue, reference, o.seconds, tally);
  std::fprintf(stderr, "perfbench: %zu jobs, host steal %.1f%%\n", plain.latency_ms.size(),
               plain.usage.steal_frac() * 100);

  if (!o.trace) {
    report.add("jobs_per_s", plain.jobs_per_s, "1/s");
    report.add("latency_p50_ms", median(plain.latency_ms), "ms");
    report.add("latency_p95_ms", tail(plain.latency_ms, 0.95, "latency_p95_ms"), "ms");
    report.add("setup_s", median(setup_s), "s");
    report.add("peak_rss_mb", probe_peak_rss(o, files.path()), "MB");
    return tally;
  }

  // Per-layer: counters from the untraced loop; a second, traced loop (same
  // jobs, store wrapped) gives storage times and the ledger. The
  // service builds its loaders internally, so acquire and barrier waits are
  // not observable from outside on this path and read 0, as does the LLC
  // model, which is off here.
  const auto platform_io = svc->platform().page_cache().total_stats();
  const auto platform_llc = svc->platform().llc().total_stats();
  const double sim_peak_mb = static_cast<double>(svc->platform().memory().peak_total()) / 1e6;
  const gm::service::ServiceStats plain_stats = svc->stats();
  const gm::core::SharingController::Stats sharing = svc->sharing_stats();
  svc.reset();

  const auto tracer = perfbench::make_tracer(kSvcRingCapacity);
  perfbench::TracedStore traced_store(*store, *tracer);
  StreamResult traced;
  {
    gm::service::JobService traced_svc(traced_store, config);
    traced_store.reset_counters();  // labelling is set-up
    traced = run_closed_loop(traced_svc, catalogue, reference, o.seconds, tally);
  }
  const auto storage = traced_store.counters();
  if (tracer->dropped() != 0) {
    throw std::runtime_error("traced service loop dropped " + std::to_string(tracer->dropped()) +
                             " spans; raise the ring capacity");
  }
  write_spans(o, {1, "perfbench traced service", tracer->track_names(), tracer->snapshot()});

  report.add("storage.read_calls", static_cast<double>(storage.calls), "count");
  report.add("storage.read_bytes", static_cast<double>(storage.bytes), "B");
  report.add("storage.read_s", secs(storage.ns), "s");

  report.add("sim.page_cache.disk_read_bytes", static_cast<double>(platform_io.disk_read_bytes),
             "B");
  report.add("sim.page_cache.hit_ratio", hit_ratio(platform_io), "ratio");
  report.add("sim.llc_accesses", static_cast<double>(platform_llc.accesses), "count");
  report.add("sim.llc_misses", static_cast<double>(platform_llc.misses), "count");
  report.add("sim.peak_memory_mb", sim_peak_mb, "MB");
  report.add("sim.llc_s", 0.0, "s");

  report.add("graphm.acquire_wait_s", 0.0, "s");
  report.add("graphm.barrier_wait_s", 0.0, "s");
  report.add("graphm.bookkeeping_s", 0.0, "s");
  const auto loads = static_cast<double>(sharing.partition_loads);
  const auto attaches = static_cast<double>(sharing.attaches);
  report.add("graphm.partition_loads", loads, "count");
  report.add("graphm.attaches", attaches, "count");
  report.add("graphm.mid_round_attaches", static_cast<double>(sharing.mid_round_attaches),
             "count");
  report.add("graphm.suspensions", static_cast<double>(sharing.suspensions), "count");
  report.add("graphm.chunk_barriers", static_cast<double>(sharing.chunk_barriers), "count");
  report.add("graphm.attach_ratio", loads + attaches == 0 ? 0.0 : attaches / (loads + attaches),
             "ratio");

  report.add("engine.compute_s", plain.compute_s, "s");
  report.add("engine.edges_streamed", plain.edges_streamed, "count");
  report.add("engine.edges_processed", plain.edges_processed, "count");
  report.add("engine.active_edge_ratio",
             plain.edges_streamed == 0 ? 0.0 : plain.edges_processed / plain.edges_streamed,
             "ratio");

  const double other_s = traced.exec_s - secs(storage.ns) - traced.compute_s;
  report.add("job.wall_s", traced.exec_s, "s");
  report.add("job.other_s", other_s, "s");
  report.add("job.other_frac", traced.exec_s == 0 ? 0.0 : other_s / traced.exec_s, "ratio");

  report.add("service.queue_wait_p50_ms", median(plain.queue_wait_ms), "ms");
  report.add("service.queue_wait_p95_ms",
             tail(plain.queue_wait_ms, 0.95, "service.queue_wait_p95_ms"), "ms");
  report.add("service.exec_p50_ms", median(plain.exec_ms), "ms");
  report.add("service.peak_concurrency", plain_stats.peak_concurrency, "count");
  add_usage(report, {plain.usage});
  report.add("harness.lag_max_ms", plain.lag_max_ms, "ms");

  const double io_s = secs(platform_io.virtual_io_ns);
  const double mem_s = static_cast<double>(platform_llc.misses) * kDramLatencyS;
  report.add("model.total_s", (plain.compute_s + mem_s) / kModeledCores + io_s, "s");
  report.add("model.io_stall_s", io_s, "s");
  report.add("model.mem_stall_s", mem_s, "s");

  report.add("trace.overhead_frac", median(traced.latency_ms) / median(plain.latency_ms) - 1.0,
             "ratio");
  report.add("failed_frac", tally.failed_frac(), "ratio");
  return tally;
}

// --- main ------------------------------------------------------------------

Options parse(int argc, char** argv) {
  Options o;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto value = [&]() -> std::string {
      if (i + 1 >= argc) throw std::invalid_argument("missing value for " + arg);
      return argv[++i];
    };
    if (arg == "--workload") {
      o.workload = value();
    } else if (arg == "--seed") {
      o.seed = std::stoull(value());
    } else if (arg == "--seconds") {
      o.seconds = std::stod(value());
    } else if (arg == "--trace") {
      o.trace = value() == "1";
    } else if (arg == "--holdout") {
      o.holdout = true;
    } else if (arg == "--data-dir") {
      o.data_dir = value();
    } else if (arg == "--rss-probe") {
      o.rss_probe = value();
    } else {
      throw std::invalid_argument("unknown argument " + arg);
    }
  }
  if (!(o.seconds > 0)) throw std::invalid_argument("--seconds must be positive");
  return o;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    const Options o = parse(argc, argv);
    if (!o.rss_probe.empty()) {
      std::printf("%.17g\n", run_rss_probe(o));
      return 0;
    }
    Report report;
    Tally tally;
    if (o.workload == "ooc-batch-shared") {
      tally = run_batch(o, Scheme::kShared, report);
    } else if (o.workload == "ooc-batch-isolated") {
      tally = run_batch(o, Scheme::kConcurrent, report);
    } else if (o.workload == "inmem-service-isolated") {
      tally = run_service(o, report);
    } else {
      throw std::invalid_argument("unknown workload '" + o.workload + "'");
    }
    report.print(tally.failed == 0, tally.attempted, tally.failed);
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
}
