#include "probe.hpp"

#include <cstdio>
#include <exception>
#include <latch>
#include <stdexcept>
#include <string>
#include <thread>
#include <unordered_map>

#include "graphm/graphm.hpp"
#include "util/timer.hpp"

namespace perfbench {

namespace gm = graphm;

const char* span_kind_name(SpanKind kind) {
  switch (kind) {
    case SpanKind::kJob: return "job";
    case SpanKind::kAcquire: return "acquire";
    case SpanKind::kBarrier: return "barrier";
    case SpanKind::kBookkeeping: return "bookkeeping";
    case SpanKind::kStorageRead: return "storage_read";
  }
  return "?";
}

std::unique_ptr<gm::obs::Tracer> make_tracer(std::size_t ring_capacity) {
  auto tracer = std::make_unique<gm::obs::Tracer>(ring_capacity);
  tracer->set_enabled(true);
  return tracer;
}

// --- TracedStore -------------------------------------------------------------

void TracedStore::account(std::uint64_t bytes, std::uint64_t ns) const {
  calls_.fetch_add(1, std::memory_order_relaxed);
  bytes_.fetch_add(bytes, std::memory_order_relaxed);
  ns_.fetch_add(ns, std::memory_order_relaxed);
}

std::uint64_t TracedStore::read_partition(std::uint32_t i, std::vector<gm::graph::Edge>& out,
                                          gm::sim::Platform& platform,
                                          std::uint32_t job_id) const {
  SpanScope span(tracer_, SpanKind::kStorageRead, job_id);
  const gm::util::Timer timer;
  const std::uint64_t stall = inner_.read_partition(i, out, platform, job_id);
  account(out.size() * sizeof(gm::graph::Edge), timer.elapsed_ns());
  return stall;
}

std::uint64_t TracedStore::read_edges(std::uint32_t i, gm::graph::EdgeCount first_edge,
                                      gm::graph::EdgeCount count, gm::graph::Edge* out,
                                      gm::sim::Platform& platform, std::uint32_t job_id) const {
  SpanScope span(tracer_, SpanKind::kStorageRead, job_id);
  const gm::util::Timer timer;
  const std::uint64_t stall = inner_.read_edges(i, first_edge, count, out, platform, job_id);
  account(count * sizeof(gm::graph::Edge), timer.elapsed_ns());
  return stall;
}

TracedStore::Counters TracedStore::counters() const {
  return {calls_.load(), bytes_.load(), ns_.load()};
}

void TracedStore::reset_counters() {
  calls_ = 0;
  bytes_ = 0;
  ns_ = 0;
}

// --- TracedLoader ------------------------------------------------------------

void TracedLoader::register_iteration(std::uint32_t job_id,
                                      const std::vector<std::uint32_t>& active_partitions) {
  SpanScope span(tracer_, SpanKind::kBookkeeping, job_id);
  inner_->register_iteration(job_id, active_partitions);
}

std::optional<gm::grid::PartitionView> TracedLoader::acquire_next(std::uint32_t job_id) {
  SpanScope span(tracer_, SpanKind::kAcquire, job_id);
  return inner_->acquire_next(job_id);
}

void TracedLoader::release(std::uint32_t job_id, std::uint32_t pid) {
  SpanScope span(tracer_, SpanKind::kBookkeeping, job_id);
  inner_->release(job_id, pid);
}

void TracedLoader::begin_chunk(std::uint32_t job_id, std::uint32_t pid, std::uint32_t chunk_id) {
  {
    SpanScope span(tracer_, SpanKind::kBarrier, job_id);
    inner_->begin_chunk(job_id, pid, chunk_id);
  }
  chunk_open_ns_ = tracer_.now_ns();
}

void TracedLoader::end_chunk(std::uint32_t job_id, std::uint32_t pid, std::uint32_t chunk_id,
                             std::uint64_t active_edges, std::uint64_t total_edges,
                             std::uint64_t elapsed_ns) {
  // The engine times its edge loop inside this interval, so gap >= elapsed.
  const std::uint64_t gap = tracer_.now_ns() - chunk_open_ns_;
  compute_ns_ += elapsed_ns;
  sim_ns_ += gap > elapsed_ns ? gap - elapsed_ns : 0;
  SpanScope span(tracer_, SpanKind::kBarrier, job_id);
  inner_->end_chunk(job_id, pid, chunk_id, active_edges, total_edges, elapsed_ns);
}

void TracedLoader::job_finished(std::uint32_t job_id) {
  SpanScope span(tracer_, SpanKind::kBookkeeping, job_id);
  inner_->job_finished(job_id);
}

// --- ledger ------------------------------------------------------------------

Ledger build_ledger(const std::vector<gm::obs::TraceEvent>& events, std::uint64_t compute_ns,
                    std::uint64_t sim_ns) {
  // Events come sorted by (start, duration descending), so a parent precedes
  // its children; one stack of open spans per track finds each parent.
  std::unordered_map<std::uint32_t, std::vector<std::size_t>> open_by_track;
  std::vector<std::uint64_t> child_ns(events.size(), 0);
  std::vector<bool> in_job(events.size(), false);
  for (std::size_t i = 0; i < events.size(); ++i) {
    const gm::obs::TraceEvent& e = events[i];
    if (e.phase != 'X') continue;
    std::vector<std::size_t>& open = open_by_track[e.track];
    while (!open.empty() && events[open.back()].ts_ns + events[open.back()].dur_ns <= e.ts_ns) {
      open.pop_back();
    }
    if (!open.empty()) child_ns[open.back()] += e.dur_ns;
    in_job[i] = e.detail == static_cast<std::uint64_t>(SpanKind::kJob) ||
                (!open.empty() && in_job[open.back()]);
    open.push_back(i);
  }
  std::uint64_t self_by_kind[kNumSpanKinds] = {};
  Ledger ledger;
  for (std::size_t i = 0; i < events.size(); ++i) {
    if (!in_job[i] || events[i].detail >= kNumSpanKinds) continue;
    self_by_kind[events[i].detail] += events[i].dur_ns - child_ns[i];
    if (events[i].detail == static_cast<std::uint64_t>(SpanKind::kJob)) {
      ledger.wall_ns += events[i].dur_ns;
    }
  }
  ledger.storage_ns = self_by_kind[static_cast<std::size_t>(SpanKind::kStorageRead)];
  ledger.acquire_ns = self_by_kind[static_cast<std::size_t>(SpanKind::kAcquire)];
  ledger.barrier_ns = self_by_kind[static_cast<std::size_t>(SpanKind::kBarrier)];
  ledger.bookkeeping_ns = self_by_kind[static_cast<std::size_t>(SpanKind::kBookkeeping)];
  ledger.sim_ns = sim_ns;
  ledger.compute_ns = compute_ns;
  ledger.other_ns = static_cast<std::int64_t>(ledger.wall_ns) -
                    static_cast<std::int64_t>(ledger.storage_ns + ledger.acquire_ns +
                                              ledger.barrier_ns + ledger.bookkeeping_ns +
                                              ledger.sim_ns + ledger.compute_ns);
  return ledger;
}

// --- traced batch ------------------------------------------------------------

TracedBatch run_traced_batch(gm::runtime::Scheme scheme,
                             const gm::storage::PartitionedStore& store,
                             const std::vector<gm::algos::JobSpec>& jobs,
                             const gm::runtime::ExecutorConfig& config) {
  const bool shared = scheme == gm::runtime::Scheme::kShared;
  const auto tracer = make_tracer(kBatchRingCapacity);
  TracedStore traced(store, *tracer);
  gm::sim::Platform platform(config.platform);
  const gm::grid::StreamEngine engine(traced, platform, config.stream);
  std::unique_ptr<gm::core::GraphM> graphm;
  if (shared) {
    graphm = std::make_unique<gm::core::GraphM>(traced, platform, config.graphm);
    graphm->init();
    platform.page_cache().reset();  // as run_jobs: every batch starts cold
  }
  traced.reset_counters();  // the degree load and labelling are set-up

  const std::size_t n = jobs.size();
  TracedBatch batch;
  batch.stats.resize(n);
  batch.results.resize(n);
  std::vector<std::uint64_t> compute(n, 0);
  std::vector<std::uint64_t> sim(n, 0);
  std::latch start_line(static_cast<std::ptrdiff_t>(n));
  const gm::util::Timer wall;
  std::vector<std::thread> threads;
  threads.reserve(n);
  for (std::size_t j = 0; j < n; ++j) {
    threads.emplace_back([&, j] {
      const auto id = static_cast<std::uint32_t>(j);
      // An empty result fails the correctness check; the batch goes on.
      auto report = [j](const std::exception& e) {
        std::fprintf(stderr, "perfbench: traced job %zu failed: %s\n", j, e.what());
      };
      std::unique_ptr<gm::algos::StreamingAlgorithm> algorithm;
      std::unique_ptr<TracedLoader> loader;
      try {
        algorithm = gm::algos::make_algorithm(jobs[j]);
        std::unique_ptr<gm::grid::PartitionLoader> inner;
        if (shared) {
          inner = graphm->make_loader(id);
        } else {
          inner = std::make_unique<gm::grid::DefaultLoader>(traced, platform);
        }
        loader = std::make_unique<TracedLoader>(std::move(inner), *tracer);
      } catch (const std::exception& e) {
        report(e);
      }
      tracer->thread_track();  // allocates this thread's ring before the start
      start_line.arrive_and_wait();
      if (!loader) return;
      try {
        {
          SpanScope job_span(*tracer, SpanKind::kJob, id);
          batch.stats[j] = engine.run_job(id, *algorithm, *loader);
        }
        compute[j] = loader->compute_ns();
        sim[j] = loader->sim_ns();
        batch.results[j] = algorithm->result();
      } catch (const std::exception& e) {
        report(e);
      }
    });
  }
  for (auto& t : threads) t.join();
  batch.makespan_ns = wall.elapsed_ns();

  if (tracer->dropped() != 0) {
    throw std::runtime_error("traced batch dropped " + std::to_string(tracer->dropped()) +
                             " spans; raise the ring capacity");
  }
  batch.trace.name = "perfbench traced batch";
  batch.trace.tracks = tracer->track_names();
  batch.trace.events = tracer->snapshot();
  std::uint64_t compute_total = 0;
  std::uint64_t sim_total = 0;
  for (std::size_t j = 0; j < n; ++j) {
    compute_total += compute[j];
    sim_total += sim[j];
  }
  batch.ledger = build_ledger(batch.trace.events, compute_total, sim_total);
  batch.storage = traced.counters();
  if (graphm) batch.sharing = graphm->controller().stats();
  return batch;
}

}  // namespace perfbench
