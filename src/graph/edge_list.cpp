#include "graph/edge_list.hpp"

#include <algorithm>
#include <cstdio>
#include <memory>
#include <stdexcept>

#include "util/atomic_file.hpp"

namespace graphm::graph {

namespace {
constexpr std::uint32_t kMagic = 0x47724D31;  // "GrM1"

struct FileHeader {
  std::uint32_t magic = kMagic;
  std::uint32_t num_vertices = 0;
  std::uint64_t num_edges = 0;
};
static_assert(sizeof(FileHeader) == 16);

struct FileCloser {
  void operator()(std::FILE* f) const {
    if (f != nullptr) std::fclose(f);
  }
};
using FilePtr = std::unique_ptr<std::FILE, FileCloser>;
}  // namespace

EdgeList::EdgeList(VertexId num_vertices, std::vector<Edge> edges)
    : num_vertices_(num_vertices), edges_(std::move(edges)) {}

void EdgeList::add_edge(VertexId src, VertexId dst, float weight) {
  edges_.push_back(Edge{src, dst, weight});
  num_vertices_ = std::max({num_vertices_, src + 1, dst + 1});
}

void EdgeList::fit_num_vertices() {
  for (const Edge& e : edges_) {
    num_vertices_ = std::max({num_vertices_, e.src + 1, e.dst + 1});
  }
}

std::vector<std::uint32_t> EdgeList::out_degrees() const {
  std::vector<std::uint32_t> degrees(num_vertices_, 0);
  for (const Edge& e : edges_) ++degrees[e.src];
  return degrees;
}

std::uint32_t EdgeList::max_out_degree() const {
  const auto degrees = out_degrees();
  return degrees.empty() ? 0 : *std::max_element(degrees.begin(), degrees.end());
}

void EdgeList::save(const std::string& path) const {
  FileHeader header;
  header.num_vertices = num_vertices_;
  header.num_edges = edges_.size();
  util::write_file_atomically(path, [&](std::FILE* f) {
    return std::fwrite(&header, sizeof(header), 1, f) == 1 &&
           (edges_.empty() ||
            std::fwrite(edges_.data(), sizeof(Edge), edges_.size(), f) == edges_.size());
  });
}

EdgeList EdgeList::load(const std::string& path) {
  FilePtr f(std::fopen(path.c_str(), "rb"));
  if (!f) throw std::runtime_error("EdgeList::load: cannot open " + path);
  FileHeader header;
  if (std::fread(&header, sizeof(header), 1, f.get()) != 1 || header.magic != kMagic) {
    throw std::runtime_error("EdgeList::load: bad header: " + path);
  }
  std::vector<Edge> edges(header.num_edges);
  if (header.num_edges != 0 &&
      std::fread(edges.data(), sizeof(Edge), edges.size(), f.get()) != edges.size()) {
    throw std::runtime_error("EdgeList::load: truncated payload: " + path);
  }
  return EdgeList(header.num_vertices, std::move(edges));
}

}  // namespace graphm::graph
