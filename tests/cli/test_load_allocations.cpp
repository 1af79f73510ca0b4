// Heap allocations made by cli::load_dataset on a nameless snapshot must
// not grow with the number of vertices: names are numbered and computed
// on demand, so loading a 10^5-vertex .hps allocates about what a
// 10^3-vertex one does (a handful of buffers, not one per id).
//
// Built as its own test binary because it replaces the global
// operator new to count allocations.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <new>
#include <string>

#include "cli/commands.hpp"
#include "core/hypergraph.hpp"
#include "core/snapshot/snapshot.hpp"
#include "../temp_dir.hpp"

namespace {
std::atomic<bool> g_counting{false};
std::atomic<std::size_t> g_allocations{0};
}  // namespace

void* operator new(std::size_t size) {
  if (g_counting.load(std::memory_order_relaxed)) {
    g_allocations.fetch_add(1, std::memory_order_relaxed);
  }
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc{};
}
void* operator new[](std::size_t size) { return ::operator new(size); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace hp::cli {
namespace {

/// A path hypergraph over `n` vertices (edges {i, i+1}) saved as .hps.
std::string write_snapshot(index_t n) {
  hyper::HypergraphBuilder b{n};
  for (index_t v = 0; v + 1 < n; ++v) b.add_edge({v, v + 1});
  const std::string path =
      hp::test::temp_dir() + "/load_alloc_" + std::to_string(n) + ".hps";
  hyper::snapshot::save(b.build(), path);
  return path;
}

std::size_t allocations_to_load(const std::string& path) {
  g_allocations = 0;
  g_counting = true;
  {
    const bio::ComplexDataset data = load_dataset(path);
    g_counting = false;
    EXPECT_EQ(data.proteins.name_of(data.proteins.size() - 1),
              "v" + std::to_string(data.proteins.size() - 1));
  }
  return g_allocations.load();
}

TEST(LoadAllocations, NamelessSnapshotLoadDoesNotScaleWithVertices) {
  const std::string small = write_snapshot(1000);
  const std::string large = write_snapshot(100000);
  allocations_to_load(small);  // first-use statics (tracer, metrics)
  const std::size_t small_count = allocations_to_load(small);
  const std::size_t large_count = allocations_to_load(large);
  EXPECT_LT(large_count, 100u) << "load_dataset allocated per id";
  EXPECT_LE(large_count, small_count + 2)
      << "allocations grew from " << small_count << " at 10^3 vertices to "
      << large_count << " at 10^5";
  std::remove(small.c_str());
  std::remove(large.c_str());
}

}  // namespace
}  // namespace hp::cli
