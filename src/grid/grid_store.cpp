#include "grid/grid_store.hpp"

namespace graphm::grid {

const storage::StoreFormat GridStore::kFormat{
    .name = "grid",
    .magic = 0x47724431,  // "GrD1"
    .cache_tag = "p",
    .partitions_by_source = true,
    // P columns per row: block (i, j) holds the edges from source range i to
    // destination range j.
    .blocks_per_partition = [](std::uint32_t num_partitions) { return num_partitions; },
    .block_of =
        [](const storage::StoreMeta& meta, const Edge& e) {
          return meta.block_index(meta.partition_of(e.src), meta.partition_of(e.dst));
        },
};

}  // namespace graphm::grid
