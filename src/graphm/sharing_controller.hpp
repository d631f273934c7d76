// The graph sharing controller (Section 3.3) plus the consistent-snapshot
// machinery (Section 3.3.2) and the modeled chunk lock-step of the
// fine-grained synchronization (Section 3.4.2).
//
// One SharingController serves all concurrent jobs of one graph:
//  * a global table maps each partition to the set of jobs that must process
//    it next; the loading order over that table comes from Section 4's
//    priority (Formula 5) or, without the strategy, ascending pid;
//  * exactly one partition is resident at a time in a single shared buffer
//    (Algorithm 2: the first arriving job loads, the rest attach); jobs that
//    do not need the current partition are suspended on a condition variable
//    and resumed when one of theirs becomes current;
//  * every view of a round carries the job's slot in the round's access log.
//    Participants stream the resident partition at their own pace and log
//    their simulated-LLC accesses; when the round's last participant
//    releases, the controller replays the log chunk by chunk, participants
//    in ascending job id (rotated per chunk), so each chunk enters the
//    simulated LLC once and is reused by every job — the paper's lock-step,
//    with no thread held back;
//  * snapshots: *mutations* are chunk-grained copies private to one job;
//    *updates* are chunk-grained versions visible only to jobs submitted
//    later — earlier jobs keep resolving to the older version.
#pragma once

#include <condition_variable>
#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <vector>

#include "graphm/chunk_table.hpp"
#include "util/annotations.hpp"
#include "graphm/scheduler.hpp"
#include "grid/grid_store.hpp"
#include "grid/partition_view.hpp"
#include "sim/platform.hpp"

namespace graphm::core {

struct GraphMOptions {
  bool use_scheduling = true;  // Section 4 strategy (Figure 18 ablation)
  /// Open-loop service mode (Algorithm 2 taken to its limit): a job whose
  /// needs include the partition already resident in the shared buffer may
  /// attach to the round in flight instead of waiting for the next round.
  /// A late attacher takes its own slot in the round's access log and holds
  /// the buffer until it releases, so the group never reloads for it. Off by
  /// default: the closed-batch executor keeps the paper's strict round
  /// membership.
  bool allow_mid_round_attach = false;
};

/// Reserved job id for preprocessing-time I/O accounting.
inline constexpr std::uint32_t kPreprocessJobId = 255;

class SharingController {
 public:
  struct Stats {
    std::uint64_t partition_loads = 0;   // Load() executions (buffer fills)
    std::uint64_t attaches = 0;          // jobs served from the shared buffer
    std::uint64_t mid_round_attaches = 0;  // late joins to a round in flight
    std::uint64_t suspensions = 0;       // waits in acquire_next
    std::uint64_t chunk_barriers = 0;    // modeled lock-step chunk steps
    std::uint64_t snapshot_copies = 0;   // COW chunk copies created
    std::uint64_t mid_round_detaches = 0;  // jobs detached from a live round

    Stats& operator+=(const Stats& other) {
      partition_loads += other.partition_loads;
      attaches += other.attaches;
      mid_round_attaches += other.mid_round_attaches;
      suspensions += other.suspensions;
      chunk_barriers += other.chunk_barriers;
      snapshot_copies += other.snapshot_copies;
      mid_round_detaches += other.mid_round_detaches;
      return *this;
    }
  };

  SharingController(const storage::PartitionedStore& store, sim::Platform& platform,
                    const std::vector<ChunkTable>* chunk_tables, GraphMOptions options);

  // --- job lifecycle -------------------------------------------------------
  /// Captures the job's snapshot version (updates applied later stay
  /// invisible to it).
  void register_job(JobId job);
  /// Ends the job: detaches it from any live round, frees its mutation
  /// copies and erases its entry (GCing update versions it kept alive). If
  /// the job logged accesses in a round that is still open, waits for that
  /// round's replay, so every access is charged when this returns.
  void job_finished(JobId job);

  // --- iteration protocol (the PartitionLoader seam) -----------------------
  void register_iteration(JobId job, const std::vector<PartitionId>& partitions);
  std::optional<grid::PartitionView> acquire_next(JobId job);
  void release(JobId job, PartitionId pid);

  // --- snapshots (Section 3.3.2) -------------------------------------------
  /// Job-private modification of one chunk; other jobs keep the shared data.
  void apply_mutation(JobId job, PartitionId pid, std::uint32_t chunk_id,
                      std::vector<graph::Edge> new_edges);
  /// Graph update: visible to jobs registered *after* this call. Returns the
  /// new version number.
  std::uint64_t apply_update(PartitionId pid, std::uint32_t chunk_id,
                             std::vector<graph::Edge> new_edges);
  /// The chunk content the given job would observe (loads the base from disk
  /// if no overlay applies). For tests and the evolving-graph example.
  std::vector<graph::Edge> chunk_content(JobId job, PartitionId pid, std::uint32_t chunk_id);

  [[nodiscard]] Stats stats() const;
  /// Number of live (registered, unfinished) jobs.
  [[nodiscard]] std::size_t live_jobs() const;
  /// Currently retained snapshot chunk copies (after GC).
  [[nodiscard]] std::size_t snapshot_chunks_live() const;

 private:
  /// One entry per *live* job (job_finished erases — the service routes an
  /// unbounded job stream through one controller, and round assembly walks
  /// this map under the mutex).
  struct JobState {
    std::set<PartitionId> needs;
    std::uint64_t version = 0;
  };
  struct OverlayChunk {
    std::vector<graph::Edge> edges;
    ChunkInfo info;              // re-labelled (Set_c update)
    std::uint64_t version = 0;   // updates only
    sim::TrackedAllocation tracking;
  };
  using OverlayPtr = std::shared_ptr<OverlayChunk>;

  void advance_locked() REQUIRES(mutex_);
  /// Last participant out: replays the round's access log, drops the shared
  /// buffer and advances to the next round.
  void close_round_locked() REQUIRES(mutex_);
  void replay_round_locked() REQUIRES(mutex_);
  [[nodiscard]] grid::AccessSlot* take_slot_locked(JobId job) REQUIRES(mutex_);
  [[nodiscard]] bool has_unreplayed_accesses_locked(JobId job) const REQUIRES(mutex_);
  [[nodiscard]] bool should_defer_locked() const REQUIRES(mutex_);
  [[nodiscard]] grid::PartitionView build_view_locked(JobId job, PartitionId pid)
      REQUIRES(mutex_);
  [[nodiscard]] const OverlayPtr* resolve_overlay_locked(JobId job, PartitionId pid,
                                                         std::uint32_t chunk_id) const
      REQUIRES(mutex_);
  void gc_updates_locked() REQUIRES(mutex_);
  OverlayPtr make_overlay_locked(PartitionId pid, std::uint32_t chunk_id,
                                 std::vector<graph::Edge> edges, std::uint64_t version)
      REQUIRES(mutex_);
  std::vector<graph::Edge> base_chunk_content_locked(PartitionId pid, std::uint32_t chunk_id,
                                                     JobId job) REQUIRES(mutex_);

  const storage::PartitionedStore& store_;
  sim::Platform& platform_;
  const std::vector<ChunkTable>* chunk_tables_;
  GraphMOptions options_;

  mutable Mutex mutex_;
  std::condition_variable round_cv_;  // round advance/close, buffer loads, registrations

  std::map<JobId, JobState> jobs_ GUARDED_BY(mutex_);
  std::uint64_t version_counter_ GUARDED_BY(mutex_) = 0;

  void detach_from_round_locked(JobId job) REQUIRES(mutex_);

  /// The sharing trace seam: every protocol transition goes through here.
  /// Sinks: stderr printf when GRAPHM_TRACE_SHARING is set (the original
  /// lockstep-debugging stream, preserved verbatim) and an obs instant on
  /// this controller's "sharing #N" track when the global tracer is on.
  void trace_event(const char* name, JobId job, std::uint64_t detail,
                   const char* fmt, ...) REQUIRES(mutex_);

  const std::uint32_t group_id_;  // distinguishes controllers' trace tracks
  std::uint32_t trace_track_ GUARDED_BY(mutex_) = 0xFFFFFFFFu;  // lazily interned

  // Serving state (Algorithm 2).
  std::int64_t current_pid_ GUARDED_BY(mutex_) = -1;
  std::set<JobId> current_unacquired_ GUARDED_BY(mutex_);
  std::set<JobId> current_unreleased_ GUARDED_BY(mutex_);
  std::vector<graph::Edge> shared_buffer_ GUARDED_BY(mutex_);
  bool buffer_loaded_ GUARDED_BY(mutex_) = false;
  bool buffer_loading_ GUARDED_BY(mutex_) = false;
  sim::TrackedAllocation buffer_tracking_ GUARDED_BY(mutex_);
  /// Participants the current round began with (>= 2 counts its chunks as
  /// lock-step steps in Stats::chunk_barriers).
  std::size_t round_members_ GUARDED_BY(mutex_) = 0;

  // The round's access log: round_log_[0, round_slots_) are this round's
  // slots. Each slot is written only by the job it was handed to, between
  // its acquire and its release; the controller reads it at round close.
  // Slots and their capacity are reused round after round.
  std::vector<std::unique_ptr<grid::AccessSlot>> round_log_ GUARDED_BY(mutex_);
  std::size_t round_slots_ GUARDED_BY(mutex_) = 0;

  // Snapshots: mutations keyed by (job, pid, chunk); updates keyed by
  // (pid, chunk) as a version-ascending list.
  std::map<std::tuple<JobId, PartitionId, std::uint32_t>, OverlayPtr> mutations_
      GUARDED_BY(mutex_);
  std::map<std::pair<PartitionId, std::uint32_t>, std::vector<OverlayPtr>> updates_
      GUARDED_BY(mutex_);

  Stats stats_ GUARDED_BY(mutex_);
};

}  // namespace graphm::core
