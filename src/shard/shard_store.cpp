#include "shard/shard_store.hpp"

namespace graphm::shard {

const storage::StoreFormat ShardStore::kFormat{
    .name = "shard",
    .magic = 0x53684431,  // "ShD1"
    .cache_tag = "s",
    .partitions_by_source = false,
    // One block per shard: the edges whose destination is in interval s.
    .blocks_per_partition = [](std::uint32_t) { return std::uint32_t{1}; },
    .block_of = [](const storage::StoreMeta& meta,
                   const graph::Edge& e) -> std::size_t { return meta.partition_of(e.dst); },
};

}  // namespace graphm::shard
