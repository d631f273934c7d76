#include "storage/file_store.hpp"

#include <fcntl.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <stdexcept>
#include <unordered_map>

#include "graph/datasets.hpp"
#include "util/annotations.hpp"
#include "util/atomic_file.hpp"
#include "util/logging.hpp"
#include "util/timer.hpp"

namespace graphm::storage {

namespace fs = std::filesystem;
using graph::Edge;

namespace {

UniqueFd open_read_only(const std::string& file) {
  const int fd = ::open(file.c_str(), O_RDONLY | O_CLOEXEC);
  if (fd < 0) throw std::runtime_error("cannot open " + file + ": " + std::strerror(errno));
  return UniqueFd(fd);
}

// Reads exactly `bytes` at `offset` of <path><ext>, retrying on EINTR and
// short reads. Throws on EOF or error.
void read_exact(int fd, void* out, std::size_t bytes, std::uint64_t offset,
                const std::string& path, const char* ext) {
  auto* dst = static_cast<char*>(out);
  while (bytes > 0) {
    const ssize_t got = ::pread(fd, dst, bytes, static_cast<off_t>(offset));
    if (got < 0 && errno == EINTR) continue;
    if (got < 0) {
      throw std::runtime_error("read failed on " + path + ext + ": " + std::strerror(errno));
    }
    if (got == 0) throw std::runtime_error("unexpected end of " + path + ext);
    dst += got;
    bytes -= static_cast<std::size_t>(got);
    offset += static_cast<std::uint64_t>(got);
  }
}

template <typename T>
void write_array(const std::string& file, const std::vector<T>& values) {
  util::write_file_atomically(file, [&](std::FILE* f) {
    return values.empty() ||
           std::fwrite(values.data(), sizeof(T), values.size(), f) == values.size();
  });
}

StoreMeta read_meta(const std::string& path, const StoreFormat& format) {
  const UniqueFd fd = open_read_only(path + ".meta");
  std::uint64_t at = 0;
  const auto next = [&](void* field, std::size_t bytes) {
    read_exact(fd.get(), field, bytes, at, path, ".meta");
    at += bytes;
  };
  std::uint32_t magic = 0;
  next(&magic, sizeof(magic));
  if (magic != format.magic) {
    throw std::runtime_error(std::string(format.name) + ": wrong magic in " + path + ".meta");
  }
  StoreMeta meta;
  meta.partitions_by_source = format.partitions_by_source;
  next(&meta.num_vertices, sizeof(meta.num_vertices));
  next(&meta.num_edges, sizeof(meta.num_edges));
  next(&meta.num_partitions, sizeof(meta.num_partitions));
  next(&meta.preprocess_ns, sizeof(meta.preprocess_ns));
  meta.blocks_per_partition = format.blocks_per_partition(meta.num_partitions);
  const std::size_t cells = std::size_t{meta.num_partitions} * meta.blocks_per_partition;
  // The rest of the file is one 8-byte offset and one 8-byte edge count per
  // block; checked before sizing the arrays from a count read off disk.
  const std::uint64_t array_bytes = fs::file_size(path + ".meta") - at;
  if (array_bytes % 16 != 0 || array_bytes / 16 != cells) {
    throw std::runtime_error(std::string(format.name) + ": corrupt " + path + ".meta");
  }
  meta.block_offsets.resize(cells);
  meta.block_edges.resize(cells);
  next(meta.block_offsets.data(), cells * sizeof(std::uint64_t));
  next(meta.block_edges.data(), cells * sizeof(std::uint64_t));
  return meta;
}

// The simulated page cache keys pages by (file_id, page); file ids must be
// stable per path within a process so -S/-C/-M schemes contend for the same
// simulated pages.
std::uint32_t file_id_for_path(const std::string& path) {
  static graphm::Mutex mutex;
  static std::unordered_map<std::string, std::uint32_t> ids;
  graphm::MutexLock lock(mutex);
  return ids.try_emplace(path, static_cast<std::uint32_t>(ids.size() + 1)).first->second;
}

}  // namespace

UniqueFd::~UniqueFd() {
  if (fd_ >= 0) ::close(fd_);
}

std::uint64_t FileStore::preprocess(const StoreFormat& format, const graph::EdgeList& graph,
                                    std::uint32_t num_partitions, const std::string& path,
                                    bool src_sort) {
  if (num_partitions == 0) {
    throw std::invalid_argument(std::string(format.name) + ": num_partitions == 0");
  }
  util::Timer timer;

  StoreMeta meta;
  meta.num_vertices = graph.num_vertices();
  meta.num_edges = graph.num_edges();
  meta.num_partitions = num_partitions;
  meta.blocks_per_partition = format.blocks_per_partition(num_partitions);
  meta.partitions_by_source = format.partitions_by_source;
  const std::size_t cells = static_cast<std::size_t>(num_partitions) * meta.blocks_per_partition;
  meta.block_offsets.assign(cells, 0);
  meta.block_edges.assign(cells, 0);

  // Counting pass.
  for (const Edge& e : graph.edges()) ++meta.block_edges[format.block_of(meta, e)];
  std::uint64_t offset = 0;
  for (std::size_t c = 0; c < cells; ++c) {
    meta.block_offsets[c] = offset;
    offset += meta.block_edges[c] * sizeof(Edge);
  }

  // Bucketing pass (in memory, then one sequential write).
  std::vector<Edge> data(graph.num_edges());
  std::vector<std::uint64_t> cursor(meta.block_offsets.begin(), meta.block_offsets.end());
  for (const Edge& e : graph.edges()) {
    std::uint64_t& cur = cursor[format.block_of(meta, e)];
    data[cur / sizeof(Edge)] = e;
    cur += sizeof(Edge);
  }
  // Group each block's edges by source (stable, so the relative order of one
  // source's edges survives). Source-grouped blocks give the engines long
  // source runs: a frontier word then covers 64 consecutive sources and an
  // inactive source's edges are skipped without being read.
  if (src_sort) {
    for (std::size_t c = 0; c < cells; ++c) {
      Edge* begin = data.data() + meta.block_offsets[c] / sizeof(Edge);
      std::stable_sort(begin, begin + meta.block_edges[c],
                       [](const Edge& a, const Edge& b) { return a.src < b.src; });
    }
  }

  // Persisting the store is part of the conversion the paper's Table 3 times.
  // Published whole (temp file + rename), metadata last: a reader that
  // finds the .meta finds the complete .data and .deg beside it.
  write_array(path + ".data", data);
  meta.preprocess_ns = timer.elapsed_ns();
  write_array(path + ".deg", graph.out_degrees());
  util::write_file_atomically(path + ".meta", [&](std::FILE* f) {
    const std::uint32_t magic = format.magic;
    return std::fwrite(&magic, sizeof(magic), 1, f) == 1 &&
           std::fwrite(&meta.num_vertices, sizeof(meta.num_vertices), 1, f) == 1 &&
           std::fwrite(&meta.num_edges, sizeof(meta.num_edges), 1, f) == 1 &&
           std::fwrite(&meta.num_partitions, sizeof(meta.num_partitions), 1, f) == 1 &&
           std::fwrite(&meta.preprocess_ns, sizeof(meta.preprocess_ns), 1, f) == 1 &&
           std::fwrite(meta.block_offsets.data(), sizeof(std::uint64_t), cells, f) == cells &&
           std::fwrite(meta.block_edges.data(), sizeof(std::uint64_t), cells, f) == cells;
  });
  return meta.preprocess_ns;
}

FileStore::FileStore(const std::string& path, const StoreFormat& format)
    : meta_(read_meta(path, format)),
      path_(path),
      data_(open_read_only(path + ".data")),
      file_id_(file_id_for_path(path)) {}

std::uint64_t FileStore::read_edges(std::uint32_t i, graph::EdgeCount first_edge,
                                    graph::EdgeCount count, Edge* out, sim::Platform& platform,
                                    std::uint32_t job_id) const {
  if (count == 0) return 0;
  const std::uint64_t offset = meta_.partition_offset(i) + first_edge * sizeof(Edge);
  const std::uint64_t bytes = count * sizeof(Edge);
  // Real read (the data must actually flow — algorithms consume it), then
  // the simulated cost.
  read_exact(data_.get(), out, bytes, offset, path_, ".data");
  return platform.page_cache().read(file_id_, offset, bytes, job_id);
}

std::vector<std::uint32_t> FileStore::load_out_degrees() const {
  std::vector<std::uint32_t> degrees(meta_.num_vertices, 0);
  read_exact(open_read_only(path_ + ".deg").get(), degrees.data(),
             degrees.size() * sizeof(std::uint32_t), 0, path_, ".deg");
  return degrees;
}

std::string cached_dataset_store(const StoreFormat& format, const std::string& dataset,
                                 std::uint32_t num_partitions, double scale) {
  const std::string edge_path = graph::dataset_path(dataset, scale);
  char suffix[64];
  std::snprintf(suffix, sizeof(suffix), "_%.4f_%s%u.%s", scale, format.cache_tag,
                num_partitions, format.name);
  const std::string path =
      (fs::path(graph::dataset_cache_dir()) / (dataset + std::string(suffix))).string();

  static graphm::Mutex mutex;
  graphm::MutexLock lock(mutex);
  if (!fs::exists(path + ".meta") || !fs::exists(path + ".data")) {
    GRAPHM_INFO("preprocessing " << format.name << " for " << dataset << " P=" << num_partitions);
    FileStore::preprocess(format, graph::EdgeList::load(edge_path), num_partitions, path);
  }
  return path;
}

}  // namespace graphm::storage
