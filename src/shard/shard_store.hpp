// GraphChi-like shard format.
//
// Vertices are split into P execution intervals; shard s holds every edge
// whose *destination* falls in interval s, sorted by source (GraphChi's
// layout). LoadSubgraph(s) — the operation GraphM's Sharing() wraps for
// GraphChi (Section 3.1) — reads one whole shard. Because a shard's sources
// span the entire graph, StoreMeta::partitions_by_source is false and the
// engine treats every shard as active whenever any vertex is active (i.e.
// GraphChi without its optional selective scheduling).
#pragma once

#include "storage/file_store.hpp"

namespace graphm::shard {

class ShardStore final : public storage::FileStore {
 public:
  static const storage::StoreFormat kFormat;

  /// Converts `graph` into P shards and writes <path>.{meta,data,deg}.
  /// Returns the conversion wall time (Table 3 accounting).
  static std::uint64_t preprocess(const graph::EdgeList& graph, std::uint32_t num_shards,
                                  const std::string& path) {
    return FileStore::preprocess(kFormat, graph, num_shards, path);
  }

  static ShardStore open(const std::string& path) { return ShardStore(path, kFormat); }

 private:
  using FileStore::FileStore;
};

}  // namespace graphm::shard
