// GridGraph-like on-disk format ("the specific graph representation" the
// GraphM preprocessor converts to for GridGraph, Section 3.1).
//
// Edges are bucketed into a P x P grid by (source range, destination range)
// and written to a single file, row-major: partition i (the streaming unit,
// GridGraph's "shard") is the contiguous byte range holding row i's blocks.
// A small metadata header records per-block offsets so selective scheduling
// can skip inactive rows without touching the file.
#pragma once

#include "storage/file_store.hpp"

namespace graphm::grid {

using graph::Edge;
using graph::EdgeCount;
using graph::VertexId;

/// Read-only handle on a preprocessed grid. Thread safe.
class GridStore final : public storage::FileStore {
 public:
  static const storage::StoreFormat kFormat;

  /// Buckets `graph` into a P x P grid and writes <path>.{meta,data,deg}.
  /// Returns the conversion wall time (Table 3's GridGraph row).
  /// `src_sort` groups each block's edges by source (stable), which is what
  /// gives the engines long source runs; pass false only to reproduce the
  /// seed's ungrouped layout (the stream-bench baseline).
  static std::uint64_t preprocess(const graph::EdgeList& graph, std::uint32_t num_partitions,
                                  const std::string& path, bool src_sort = true) {
    return FileStore::preprocess(kFormat, graph, num_partitions, path, src_sort);
  }

  static GridStore open(const std::string& path) { return GridStore(path, kFormat); }

 private:
  using FileStore::FileStore;
};

}  // namespace graphm::grid
