// The one file-backed PartitionedStore. Every on-disk format in this
// repository (the grid, the shards) is the same three files:
//
//   <path>.data  the edges, partition after partition, each partition its
//                blocks in order, each block grouped by source;
//   <path>.deg   the out-degree array;
//   <path>.meta  magic, |V|, |E|, P, preprocess time, then the per-block
//                offsets and edge counts.
//
// A format only chooses its magic, how many blocks a partition has and which
// block an edge goes to (StoreFormat). FileStore owns the rest: preprocessing,
// the meta and degree I/O, and the read path. Reads are pread(2) on the
// store's own descriptor, which carries its offset with each call, so any
// number of threads read one store (or many) without a lock.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "graph/edge_list.hpp"
#include "storage/store.hpp"

namespace graphm::storage {

/// What distinguishes one on-disk format from another.
struct StoreFormat {
  const char* name;       // "grid": error messages, cached dataset file extension
  std::uint32_t magic;    // first word of <path>.meta
  const char* cache_tag;  // cached dataset files: <dataset>_<scale>_<tag><P>.<name>
  bool partitions_by_source;
  std::uint32_t (*blocks_per_partition)(std::uint32_t num_partitions);
  /// Block (row-major index into StoreMeta's arrays) that holds `edge`.
  std::size_t (*block_of)(const StoreMeta& meta, const graph::Edge& edge);
};

/// Closes its descriptor on destruction. Move-only.
class UniqueFd {
 public:
  explicit UniqueFd(int fd) : fd_(fd) {}
  UniqueFd(UniqueFd&& other) noexcept : fd_(other.fd_) { other.fd_ = -1; }
  ~UniqueFd();
  [[nodiscard]] int get() const { return fd_; }

 private:
  int fd_;
};

/// Read-only, thread-safe handle on a preprocessed graph in `StoreFormat`.
class FileStore : public PartitionedStore {
 public:
  /// Buckets `graph` into `format`'s blocks and writes <path>.{data,deg,meta},
  /// each published whole, the meta last. `src_sort` groups each block's
  /// edges by source (stable). Returns the conversion wall time (Table 3).
  static std::uint64_t preprocess(const StoreFormat& format, const graph::EdgeList& graph,
                                  std::uint32_t num_partitions, const std::string& path,
                                  bool src_sort = true);

  [[nodiscard]] const StoreMeta& meta() const override { return meta_; }
  [[nodiscard]] std::uint32_t file_id() const override { return file_id_; }

  std::uint64_t read_edges(std::uint32_t i, graph::EdgeCount first_edge, graph::EdgeCount count,
                           graph::Edge* out, sim::Platform& platform,
                           std::uint32_t job_id) const override;
  [[nodiscard]] std::vector<std::uint32_t> load_out_degrees() const override;

 protected:
  /// Opens <path>.meta (which must carry `format`'s magic) and <path>.data.
  FileStore(const std::string& path, const StoreFormat& format);

 private:
  StoreMeta meta_;
  std::string path_;
  UniqueFd data_;
  std::uint32_t file_id_;
};

/// Path of `dataset`'s store in `format` under the dataset cache dir,
/// preprocessing it there first if it is missing.
std::string cached_dataset_store(const StoreFormat& format, const std::string& dataset,
                                 std::uint32_t num_partitions, double scale);

/// Preprocesses (once, cached) the named dataset into a `Store` and opens it.
/// Convenience used by benches, examples and tests.
template <typename Store>
Store open_dataset(const std::string& dataset, std::uint32_t num_partitions, double scale = 1.0) {
  return Store::open(cached_dataset_store(Store::kFormat, dataset, num_partitions, scale));
}

}  // namespace graphm::storage
