#include "sim/cache_sim.hpp"

#include <algorithm>
#include <bit>
#include <stdexcept>

namespace graphm::sim {

namespace {
std::size_t round_down_pow2(std::size_t v) {
  if (v == 0) return 1;
  return std::size_t{1} << (63 - std::countl_zero(static_cast<std::uint64_t>(v)));
}
}  // namespace

CacheSim::CacheSim(std::size_t capacity_bytes, std::size_t ways, std::size_t line_bytes)
    : ways_(ways), line_bytes_(line_bytes) {
  if (ways == 0 || line_bytes == 0) throw std::invalid_argument("CacheSim: zero ways/line");
  num_sets_ = round_down_pow2(std::max<std::size_t>(1, capacity_bytes / (ways * line_bytes)));
  sets_.assign(num_sets_ * ways_, Way{});
}

void CacheSim::access(std::uint64_t addr, std::uint32_t job_id) {
  MutexLock lock(mutex_);
  access_line_locked(addr / line_bytes_, stats_for_locked(job_id), 1);
}

void CacheSim::access_range(std::uint64_t base, std::size_t len, std::uint32_t job_id,
                            std::uint32_t weight) {
  if (len == 0 || weight == 0) return;
  MutexLock lock(mutex_);
  CacheStats& js = stats_for_locked(job_id);
  const std::uint64_t first = base / line_bytes_;
  const std::uint64_t last = (base + len - 1) / line_bytes_;
  for (std::uint64_t line = first; line <= last; ++line) {
    access_line_locked(line, js, weight);
  }
}

void CacheSim::access_line_locked(std::uint64_t line_addr, CacheStats& js,
                                  std::uint32_t weight) {
  const std::size_t set = static_cast<std::size_t>(line_addr & (num_sets_ - 1));
  Way* base = &sets_[set * ways_];

  // First touch of this burst: normal lookup.
  std::size_t victim = 0;
  bool hit = false;
  std::uint64_t oldest = ~0ULL;
  for (std::size_t w = 0; w < ways_; ++w) {
    if (base[w].tag == line_addr) {
      hit = true;
      victim = w;
      break;
    }
    // LRU victim. Valid ways carry distinct ticks (>= 1) and empty ways 0,
    // so `<=` only ever ties between empty ways: the last one wins.
    if (base[w].last_use <= oldest) {
      oldest = base[w].last_use;
      victim = w;
    }
  }

  total_.accesses += weight;
  js.accesses += weight;
  if (!hit) {
    total_.misses += 1;
    total_.bytes_swapped_in += line_bytes_;
    js.misses += 1;
    js.bytes_swapped_in += line_bytes_;
    base[victim].tag = line_addr;
  }
  base[victim].last_use = ++tick_;
}

CacheStats& CacheSim::stats_for_locked(std::uint32_t job_id) {
  if (job_id >= per_job_.size()) per_job_.resize(job_id + 1);
  return per_job_[job_id];
}

CacheStats CacheSim::total_stats() const {
  MutexLock lock(mutex_);
  return total_;
}

CacheStats CacheSim::job_stats(std::uint32_t job_id) const {
  MutexLock lock(mutex_);
  if (job_id >= per_job_.size()) return CacheStats{};
  return per_job_[job_id];
}

void CacheSim::reset_stats() {
  MutexLock lock(mutex_);
  total_ = CacheStats{};
  per_job_.clear();
}

void CacheSim::reset() {
  MutexLock lock(mutex_);
  total_ = CacheStats{};
  per_job_.clear();
  std::fill(sets_.begin(), sets_.end(), Way{});
  tick_ = 0;
}

}  // namespace graphm::sim
