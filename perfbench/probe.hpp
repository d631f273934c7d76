// Outside-in instrumentation: wrappers around the program's two public seams
// (storage::PartitionedStore and grid::PartitionLoader) that record a span
// around every call, plus the per-job time ledger built from those spans.
//
// Spans are recorded through a private obs::Tracer: each thread writes its
// own ring, on its own track, and the rings are only read once a run is
// over. A span's kind travels in TraceEvent::detail and its job in
// TraceEvent::job; nesting is rebuilt from the spans of one track.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "grid/loader.hpp"
#include "obs/trace.hpp"
#include "obs/trace_export.hpp"
#include "runtime/executor.hpp"
#include "storage/store.hpp"

namespace perfbench {

enum class SpanKind : std::uint8_t {
  kJob = 0,          // StreamEngine::run_job, on the job's thread
  kAcquire = 1,      // PartitionLoader::acquire_next
  kBarrier = 2,      // PartitionLoader::begin_chunk / end_chunk
  kBookkeeping = 3,  // register_iteration / release / job_finished
  kStorageRead = 4,  // PartitionedStore::read_partition / read_edges
};
inline constexpr std::size_t kNumSpanKinds = 5;
const char* span_kind_name(SpanKind kind);

/// A recording tracer: enabled, with rings of `ring_capacity` events. Runs
/// must check dropped() == 0, since a dropped span breaks the ledger.
std::unique_ptr<graphm::obs::Tracer> make_tracer(std::size_t ring_capacity);

/// RAII span of `kind` on the calling thread's own track.
class SpanScope : graphm::obs::Span {
 public:
  SpanScope(graphm::obs::Tracer& tracer, SpanKind kind, std::uint32_t job)
      : Span(tracer, tracer.thread_track(), span_kind_name(kind), job,
             static_cast<std::uint64_t>(kind)) {}
};

/// Counts and times every read that reaches the wrapped store.
class TracedStore final : public graphm::storage::PartitionedStore {
 public:
  TracedStore(const graphm::storage::PartitionedStore& inner, graphm::obs::Tracer& tracer)
      : inner_(inner), tracer_(tracer) {}

  [[nodiscard]] const graphm::storage::StoreMeta& meta() const override { return inner_.meta(); }
  [[nodiscard]] std::uint32_t file_id() const override { return inner_.file_id(); }
  std::uint64_t read_partition(std::uint32_t i, std::vector<graphm::graph::Edge>& out,
                               graphm::sim::Platform& platform,
                               std::uint32_t job_id) const override;
  std::uint64_t read_edges(std::uint32_t i, graphm::graph::EdgeCount first_edge,
                           graphm::graph::EdgeCount count, graphm::graph::Edge* out,
                           graphm::sim::Platform& platform, std::uint32_t job_id) const override;
  [[nodiscard]] std::vector<std::uint32_t> load_out_degrees() const override {
    return inner_.load_out_degrees();
  }

  struct Counters {
    std::uint64_t calls = 0;
    std::uint64_t bytes = 0;
    std::uint64_t ns = 0;  // includes waiting on the store's own locks
  };
  [[nodiscard]] Counters counters() const;
  void reset_counters();

 private:
  void account(std::uint64_t bytes, std::uint64_t ns) const;

  const graphm::storage::PartitionedStore& inner_;
  graphm::obs::Tracer& tracer_;
  mutable std::atomic<std::uint64_t> calls_{0};
  mutable std::atomic<std::uint64_t> bytes_{0};
  mutable std::atomic<std::uint64_t> ns_{0};
};

/// Wraps one job's loader. Besides the spans it accumulates, per job, the
/// engine's in-loop compute time (the elapsed_ns end_chunk receives) and the
/// simulator time: the rest of each interval from begin_chunk's return to
/// end_chunk's call, which is where the engine feeds the LLC model.
class TracedLoader final : public graphm::grid::PartitionLoader {
 public:
  TracedLoader(std::unique_ptr<graphm::grid::PartitionLoader> inner,
               graphm::obs::Tracer& tracer)
      : inner_(std::move(inner)), tracer_(tracer) {}

  void register_iteration(std::uint32_t job_id,
                          const std::vector<std::uint32_t>& active_partitions) override;
  std::optional<graphm::grid::PartitionView> acquire_next(std::uint32_t job_id) override;
  void release(std::uint32_t job_id, std::uint32_t pid) override;
  void begin_chunk(std::uint32_t job_id, std::uint32_t pid, std::uint32_t chunk_id) override;
  void end_chunk(std::uint32_t job_id, std::uint32_t pid, std::uint32_t chunk_id,
                 std::uint64_t active_edges, std::uint64_t total_edges,
                 std::uint64_t elapsed_ns) override;
  void job_finished(std::uint32_t job_id) override;

  [[nodiscard]] std::uint64_t compute_ns() const { return compute_ns_; }
  [[nodiscard]] std::uint64_t sim_ns() const { return sim_ns_; }

 private:
  std::unique_ptr<graphm::grid::PartitionLoader> inner_;
  graphm::obs::Tracer& tracer_;
  std::uint64_t chunk_open_ns_ = 0;  // when the last begin_chunk returned
  std::uint64_t compute_ns_ = 0;
  std::uint64_t sim_ns_ = 0;
};

/// Where the jobs' wall time went, summed over jobs. Every bucket is self
/// time (a span's duration minus its children's), so the buckets plus
/// `other_ns` add up to `wall_ns` exactly.
struct Ledger {
  std::uint64_t wall_ns = 0;         // kJob spans
  std::uint64_t storage_ns = 0;      // kStorageRead self time
  std::uint64_t acquire_ns = 0;      // kAcquire self time (storage excluded)
  std::uint64_t barrier_ns = 0;      // kBarrier self time
  std::uint64_t bookkeeping_ns = 0;  // kBookkeeping self time
  std::uint64_t sim_ns = 0;          // LLC model, between chunk seams
  std::uint64_t compute_ns = 0;      // edge loops
  std::int64_t other_ns = 0;         // the remainder of wall_ns

  /// Time inside acquire_next, storage reads it made included.
  [[nodiscard]] std::uint64_t acquire_wait_ns() const { return acquire_ns + storage_ns; }
};

/// Builds the ledger from the job trees in `events` (as Tracer::snapshot
/// orders them; spans outside any kJob span are ignored) plus the loaders'
/// compute and simulator totals. A span's parent is the innermost span of
/// the same track that is still open when it starts.
Ledger build_ledger(const std::vector<graphm::obs::TraceEvent>& events,
                    std::uint64_t compute_ns, std::uint64_t sim_ns);

/// Spans one job thread of a traced batch may record; ~18k on the largest
/// out-of-core job.
inline constexpr std::size_t kBatchRingCapacity = 1 << 16;

/// One batch driven the way runtime::run_jobs drives it — a fresh simulated
/// platform, one thread per job released together behind a latch, GraphM's
/// loader for kShared and DefaultLoader otherwise — but with both seams
/// wrapped and every call recorded.
struct TracedBatch {
  std::uint64_t makespan_ns = 0;  // thread spawn to join, as run_jobs times it
  Ledger ledger;
  TracedStore::Counters storage;
  graphm::core::SharingController::Stats sharing;
  std::vector<graphm::grid::JobRunStats> stats;
  std::vector<std::vector<double>> results;
  graphm::obs::TraceProcess trace;  // every span, for obs::write_chrome_trace
};
TracedBatch run_traced_batch(graphm::runtime::Scheme scheme,
                             const graphm::storage::PartitionedStore& store,
                             const std::vector<graphm::algos::JobSpec>& jobs,
                             const graphm::runtime::ExecutorConfig& config);

}  // namespace perfbench
