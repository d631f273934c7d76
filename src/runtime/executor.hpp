// Executes a batch of jobs under one of the paper's three schemes:
//   kSequential  ("GridGraph-S"): jobs one after another, engine's own loader;
//   kConcurrent  ("GridGraph-C"): all jobs at once, each with a private
//                                  loader and private partition copies;
//   kShared      ("GridGraph-M"): all jobs at once through one GraphM
//                                  instance (shared buffers, common order,
//                                  modeled chunk lock-step).
// Every run gets a fresh simulated Platform so the hardware-counter style
// metrics are directly comparable across schemes.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "algos/factory.hpp"
#include "graphm/graphm.hpp"
#include "grid/grid_store.hpp"
#include "runtime/metrics.hpp"
#include "sim/cost_model.hpp"

namespace graphm::runtime {

enum class Scheme : int { kSequential = 0, kConcurrent = 1, kShared = 2 };

const char* scheme_name(Scheme scheme);

struct ExecutorConfig {
  sim::PlatformConfig platform;
  core::GraphMOptions graphm;
  grid::StreamConfig stream;
  bool record_results = false;  // keep final vertex values in the outcome
  /// Optional per-job submission offsets in ns (same length as jobs). Empty
  /// means submit everything at t=0 (kSequential ignores offsets).
  std::vector<std::uint64_t> arrival_offsets_ns;
  /// DRAM latency charged per simulated LLC miss.
  double dram_latency_s = 150e-9;
  /// Core count of the modeled machine (the paper's server has 16); divides
  /// compute and DRAM-stall time in the reported totals (see metrics.hpp).
  std::uint32_t modeled_cores = 16;
};

/// Runs `jobs` on `store` under `scheme` and returns the full metrics.
RunMetrics run_jobs(Scheme scheme, const storage::PartitionedStore& store,
                    const std::vector<algos::JobSpec>& jobs, const ExecutorConfig& config = {});

}  // namespace graphm::runtime
