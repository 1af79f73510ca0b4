#include "core/hypergraph.hpp"

#include <algorithm>

namespace hp::hyper {

void Hypergraph::bind_owned() {
  voff_ = voff_own_;
  vadj_ = vadj_own_;
  eoff_ = eoff_own_;
  eadj_ = eadj_own_;
}

void Hypergraph::swap(Hypergraph& other) noexcept {
  // Vector swap moves the buffers with their data pointers, so the
  // views (swapped alongside) stay bound to the right storage.
  voff_own_.swap(other.voff_own_);
  vadj_own_.swap(other.vadj_own_);
  eoff_own_.swap(other.eoff_own_);
  eadj_own_.swap(other.eadj_own_);
  keepalive_.swap(other.keepalive_);
  std::swap(voff_, other.voff_);
  std::swap(vadj_, other.vadj_);
  std::swap(eoff_, other.eoff_);
  std::swap(eadj_, other.eadj_);
}

Hypergraph::Hypergraph(const Hypergraph& other)
    : voff_own_(other.voff_own_),
      vadj_own_(other.vadj_own_),
      eoff_own_(other.eoff_own_),
      eadj_own_(other.eadj_own_),
      keepalive_(other.keepalive_) {
  if (keepalive_ != nullptr) {
    // Mapped: share the region (O(1) copy), views alias the same pages.
    voff_ = other.voff_;
    vadj_ = other.vadj_;
    eoff_ = other.eoff_;
    eadj_ = other.eadj_;
  } else {
    bind_owned();
  }
}

Hypergraph::Hypergraph(Hypergraph&& other) noexcept { swap(other); }

Hypergraph& Hypergraph::operator=(const Hypergraph& other) {
  Hypergraph tmp{other};
  swap(tmp);
  return *this;
}

Hypergraph& Hypergraph::operator=(Hypergraph&& other) noexcept {
  if (this != &other) {
    Hypergraph tmp{std::move(other)};
    swap(tmp);
  }
  return *this;
}

std::size_t Hypergraph::owned_bytes() const {
  return voff_own_.size() * sizeof(offset_t) +
         vadj_own_.size() * sizeof(index_t) +
         eoff_own_.size() * sizeof(offset_t) +
         eadj_own_.size() * sizeof(index_t);
}

std::size_t Hypergraph::mapped_bytes() const {
  if (keepalive_ == nullptr) return 0;
  return voff_.size_bytes() + vadj_.size_bytes() + eoff_.size_bytes() +
         eadj_.size_bytes();
}

bool Hypergraph::operator==(const Hypergraph& other) const {
  if (num_vertices() != other.num_vertices() ||
      num_edges() != other.num_edges() || num_pins() != other.num_pins()) {
    return false;
  }
  for (index_t e = 0; e < num_edges(); ++e) {
    if (edge_size(e) != other.edge_size(e)) return false;
  }
  // Identical edge partitions + identical concatenated members pin down
  // the vertex-side CSR too (it is derived).
  return std::equal(eadj_.begin(), eadj_.end(), other.eadj_.begin());
}

Hypergraph Hypergraph::adopt_owned(std::vector<offset_t> voff,
                                   std::vector<index_t> vadj,
                                   std::vector<offset_t> eoff,
                                   std::vector<index_t> eadj) {
  HP_REQUIRE(!voff.empty() && !eoff.empty(),
             "Hypergraph::adopt_owned: offset arrays need a leading 0");
  HP_REQUIRE(voff.front() == 0 && voff.back() == vadj.size() &&
                 eoff.front() == 0 && eoff.back() == eadj.size() &&
                 vadj.size() == eadj.size(),
             "Hypergraph::adopt_owned: offset/adjacency size mismatch");
  Hypergraph h;
  h.voff_own_ = std::move(voff);
  h.vadj_own_ = std::move(vadj);
  h.eoff_own_ = std::move(eoff);
  h.eadj_own_ = std::move(eadj);
  h.bind_owned();
  return h;
}

Hypergraph Hypergraph::adopt_external(std::shared_ptr<const void> keepalive,
                                      std::span<const offset_t> voff,
                                      std::span<const index_t> vadj,
                                      std::span<const offset_t> eoff,
                                      std::span<const index_t> eadj) {
  HP_REQUIRE(keepalive != nullptr,
             "Hypergraph::adopt_external: null keepalive");
  HP_REQUIRE(!voff.empty() && !eoff.empty(),
             "Hypergraph::adopt_external: offset arrays need a leading 0");
  HP_REQUIRE(voff.front() == 0 && voff.back() == vadj.size() &&
                 eoff.front() == 0 && eoff.back() == eadj.size() &&
                 vadj.size() == eadj.size(),
             "Hypergraph::adopt_external: offset/adjacency size mismatch");
  Hypergraph h;
  h.keepalive_ = std::move(keepalive);
  h.voff_ = voff;
  h.vadj_ = vadj;
  h.eoff_ = eoff;
  h.eadj_ = eadj;
  return h;
}

bool Hypergraph::edge_contains(index_t e, index_t v) const {
  const auto members = vertices_of(e);
  return std::binary_search(members.begin(), members.end(), v);
}

index_t Hypergraph::max_vertex_degree() const {
  index_t best = 0;
  for (index_t v = 0; v < num_vertices(); ++v) {
    best = std::max(best, vertex_degree(v));
  }
  return best;
}

index_t Hypergraph::max_edge_size() const {
  index_t best = 0;
  for (index_t e = 0; e < num_edges(); ++e) {
    best = std::max(best, edge_size(e));
  }
  return best;
}

index_t HypergraphBuilder::add_edge(std::span<const index_t> members) {
  HP_REQUIRE(!members.empty(), "HypergraphBuilder: empty hyperedge");
  std::vector<index_t> sorted(members.begin(), members.end());
  std::sort(sorted.begin(), sorted.end());
  sorted.erase(std::unique(sorted.begin(), sorted.end()), sorted.end());
  HP_REQUIRE(sorted.back() < num_vertices_,
             "HypergraphBuilder: member vertex out of range");
  edge_offsets_.push_back(members_.size());
  members_.insert(members_.end(), sorted.begin(), sorted.end());
  return static_cast<index_t>(edge_offsets_.size() - 1);
}

index_t HypergraphBuilder::add_edge(std::initializer_list<index_t> members) {
  return add_edge(std::span<const index_t>{members.begin(), members.size()});
}

void HypergraphBuilder::ensure_vertex(index_t v) {
  if (v >= num_vertices_) num_vertices_ = v + 1;
}

Hypergraph HypergraphBuilder::build() const {
  using offset_t = Hypergraph::offset_t;
  const index_t num_edges = static_cast<index_t>(edge_offsets_.size());

  std::vector<offset_t> eoff(static_cast<std::size_t>(num_edges) + 1, 0);
  for (index_t e = 0; e < num_edges; ++e) {
    const std::size_t begin = edge_offsets_[e];
    const std::size_t end =
        e + 1 < num_edges ? edge_offsets_[e + 1] : members_.size();
    eoff[e + 1] = eoff[e] + (end - begin);
  }
  std::vector<index_t> eadj = members_;

  std::vector<offset_t> voff(static_cast<std::size_t>(num_vertices_) + 1, 0);
  for (index_t v : members_) ++voff[v + 1];
  for (std::size_t i = 1; i < voff.size(); ++i) {
    voff[i] += voff[i - 1];
  }
  std::vector<index_t> vadj(members_.size());
  std::vector<offset_t> cursor(voff.begin(), voff.end() - 1);
  // Edges are appended in increasing id order, so each vertex's incidence
  // list comes out sorted by edge id automatically.
  for (index_t e = 0; e < num_edges; ++e) {
    for (offset_t i = eoff[e]; i < eoff[e + 1]; ++i) {
      vadj[cursor[eadj[i]]++] = e;
    }
  }
  return Hypergraph::adopt_owned(std::move(voff), std::move(vadj),
                                 std::move(eoff), std::move(eadj));
}

SubHypergraph induce(const Hypergraph& h, const std::vector<bool>& keep_vertex,
                     const std::vector<bool>& keep_edge) {
  HP_REQUIRE(keep_vertex.size() == h.num_vertices(),
             "induce: keep_vertex size mismatch");
  HP_REQUIRE(keep_edge.size() == h.num_edges(),
             "induce: keep_edge size mismatch");
  SubHypergraph sub;
  std::vector<index_t> vertex_map(h.num_vertices(), kInvalidIndex);
  for (index_t v = 0; v < h.num_vertices(); ++v) {
    if (keep_vertex[v]) {
      vertex_map[v] = static_cast<index_t>(sub.vertex_to_parent.size());
      sub.vertex_to_parent.push_back(v);
    }
  }
  HypergraphBuilder builder{
      static_cast<index_t>(sub.vertex_to_parent.size())};
  std::vector<index_t> scratch;
  for (index_t e = 0; e < h.num_edges(); ++e) {
    if (!keep_edge[e]) continue;
    scratch.clear();
    for (index_t v : h.vertices_of(e)) {
      if (vertex_map[v] != kInvalidIndex) scratch.push_back(vertex_map[v]);
    }
    if (scratch.empty()) continue;
    builder.add_edge(scratch);
    sub.edge_to_parent.push_back(e);
  }
  sub.hypergraph = builder.build();
  return sub;
}

void validate(const Hypergraph& h) {
  using offset_t = Hypergraph::offset_t;
  const index_t nv = h.num_vertices();
  const index_t ne = h.num_edges();
  const std::span<const offset_t> voff = h.vertex_offsets();
  const std::span<const index_t> vadj = h.vertex_adjacency();
  // Transpose walk: edges are visited in ascending id order, so vertex
  // v's sorted incidence list must be consumed front to back --
  // cursor[v] is the next position in vadj that v's next edge must
  // occupy. Matching every pin this way (and ending every cursor at
  // its list's end, below) proves the two sides are exact transposes,
  // in O(pins) with no per-incidence search.
  std::vector<offset_t> cursor(voff.begin(), voff.begin() + nv);
  count_t pins_from_edges = 0;
  for (index_t e = 0; e < ne; ++e) {
    const auto members = h.vertices_of(e);
    HP_REQUIRE(std::is_sorted(members.begin(), members.end()),
               "validate: edge member list not sorted");
    HP_REQUIRE(std::adjacent_find(members.begin(), members.end()) ==
                   members.end(),
               "validate: duplicate vertex in edge");
    for (index_t v : members) {
      HP_REQUIRE(v < nv, "validate: member vertex out of range");
      offset_t& at = cursor[v];
      HP_REQUIRE(at != voff[v + 1] && vadj[at] <= e,
                 "validate: incidence asymmetry (edge lists vertex, vertex "
                 "lacks edge)");
      HP_REQUIRE(vadj[at] == e,
                 "validate: incidence asymmetry (vertex lists edge, edge "
                 "lacks vertex)");
      ++at;
    }
    pins_from_edges += members.size();
  }
  HP_REQUIRE(pins_from_edges == h.num_pins(),
             "validate: pin count mismatch");
  count_t pins_from_vertices = 0;
  for (index_t v = 0; v < nv; ++v) {
    const auto edges = h.edges_of(v);
    HP_REQUIRE(std::is_sorted(edges.begin(), edges.end()),
               "validate: vertex incidence list not sorted");
    for (index_t e : edges) {
      HP_REQUIRE(e < ne, "validate: incident edge out of range");
    }
    HP_REQUIRE(cursor[v] == voff[v + 1],
               "validate: incidence asymmetry (vertex lists edge, edge "
               "lacks vertex)");
    pins_from_vertices += edges.size();
  }
  HP_REQUIRE(pins_from_vertices == h.num_pins(),
             "validate: vertex-side pin count mismatch");
}

}  // namespace hp::hyper
