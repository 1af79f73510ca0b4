#include "bio/cellzome_synth.hpp"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <set>

#include "util/log.hpp"

namespace hp::bio {

CellzomeParams scaled_cellzome_params(index_t target_proteins) {
  HP_REQUIRE(target_proteins >= 64,
             "scaled_cellzome_params: need at least 64 proteins");
  CellzomeParams p;  // the calibrated 1,361-protein defaults
  const double scale =
      static_cast<double>(target_proteins) / static_cast<double>(p.num_proteins);
  const auto scaled = [scale](index_t value, index_t minimum) {
    const auto grown = static_cast<index_t>(
        std::llround(static_cast<double>(value) * scale));
    return std::max(minimum, grown);
  };
  // The planted core needs `core_memberships` distinct core complexes
  // per core protein, and singletons + core complexes must fit in the
  // complex count, so the floors below keep tiny targets constructible.
  p.num_complexes = scaled(p.num_complexes, 16);
  p.degree_one_proteins =
      std::min<index_t>(scaled(p.degree_one_proteins, 1),
                        target_proteins - p.max_degree);
  p.num_singletons = scaled(p.num_singletons, 1);
  p.core_proteins = scaled(p.core_proteins, p.core_memberships);
  p.core_complexes = scaled(p.core_complexes, p.core_memberships);
  p.hub_regions = scaled(p.hub_regions, 2);
  p.num_proteins = target_proteins;
  HP_REQUIRE(p.core_complexes + p.num_singletons <= p.num_complexes,
             "scaled_cellzome_params: inconsistent complex budget");
  return p;
}

std::vector<index_t> cellzome_degree_sequence(const CellzomeParams& p) {
  HP_REQUIRE(p.degree_one_proteins < p.num_proteins,
             "cellzome_degree_sequence: degree-1 count exceeds protein count");
  HP_REQUIRE(p.max_degree >= 2, "cellzome_degree_sequence: max_degree < 2");
  const index_t heavy = p.num_proteins - p.degree_one_proteins;

  // Power-law counts for degrees 2..max_degree by the largest-remainder
  // method, forcing at least one protein at max_degree so the surrogate
  // reproduces the paper's Delta_V = 21 exactly.
  std::vector<double> raw(p.max_degree + 1, 0.0);
  double total = 0.0;
  for (index_t d = 2; d <= p.max_degree; ++d) {
    raw[d] = std::pow(static_cast<double>(d), -p.gamma);
    total += raw[d];
  }
  std::vector<index_t> counts(p.max_degree + 1, 0);
  std::vector<std::pair<double, index_t>> remainders;
  index_t assigned = 0;
  for (index_t d = 2; d <= p.max_degree; ++d) {
    const double exact = raw[d] / total * static_cast<double>(heavy);
    counts[d] = static_cast<index_t>(std::floor(exact));
    assigned += counts[d];
    remainders.emplace_back(exact - std::floor(exact), d);
  }
  // Distribute the leftovers to the largest fractional parts
  // (ties broken toward smaller degrees for determinism).
  std::sort(remainders.begin(), remainders.end(),
            [](const auto& a, const auto& b) {
              if (a.first != b.first) return a.first > b.first;
              return a.second < b.second;
            });
  for (std::size_t i = 0; assigned < heavy; ++i) {
    ++counts[remainders[i % remainders.size()].second];
    ++assigned;
  }
  if (counts[p.max_degree] == 0) {
    // Steal one protein from the most populous degree.
    index_t donor = 2;
    for (index_t d = 2; d < p.max_degree; ++d) {
      if (counts[d] > counts[donor]) donor = d;
    }
    --counts[donor];
    ++counts[p.max_degree];
  }

  std::vector<index_t> sequence;
  sequence.reserve(p.num_proteins);
  for (index_t d = p.max_degree; d >= 2; --d) {
    for (index_t i = 0; i < counts[d]; ++i) sequence.push_back(d);
  }
  for (index_t i = 0; i < p.degree_one_proteins; ++i) sequence.push_back(1);
  return sequence;
}

namespace {

/// Draw complex sizes: `num_singletons` ones, the rest lognormal in
/// [2, max_size], then adjust by +/-1 steps (respecting per-complex
/// minimums) until they sum to `target_pins`.
std::vector<index_t> draw_complex_sizes(const CellzomeParams& p,
                                        count_t target_pins,
                                        const std::vector<index_t>& minimum,
                                        Rng& rng) {
  const index_t n = p.num_complexes;
  std::vector<index_t> sizes(n, 0);
  for (index_t e = 0; e < p.num_singletons; ++e) sizes[e] = 1;

  const index_t variable = n - p.num_singletons;
  const double mean_target =
      (static_cast<double>(target_pins) - p.num_singletons) /
      static_cast<double>(variable);
  const double sigma = 0.9;
  const double mu = std::log(mean_target) - 0.5 * sigma * sigma;
  for (index_t e = p.num_singletons; e < n; ++e) {
    const double draw = rng.lognormal(mu, sigma);
    index_t s = static_cast<index_t>(std::llround(draw));
    s = std::clamp<index_t>(s, 2, p.max_complex_size);
    sizes[e] = std::max(s, minimum[e]);
  }

  count_t sum = std::accumulate(sizes.begin(), sizes.end(), count_t{0});
  // Random +/-1 walk toward the target; bounded below by the planted
  // minimums and above by max_complex_size.
  std::size_t guard = 0;
  // Generous; each iteration usually succeeds. Scaled surrogates can
  // start further from the target, so grow the bound with the pin count.
  const std::size_t guard_limit = std::max<std::size_t>(
      1000000, 32 * static_cast<std::size_t>(target_pins));
  while (sum != target_pins && guard++ < guard_limit) {
    const index_t e =
        p.num_singletons +
        static_cast<index_t>(rng.uniform(variable));
    if (sum > target_pins) {
      const index_t lo = std::max<index_t>(2, minimum[e]);
      if (sizes[e] > lo) {
        --sizes[e];
        --sum;
      }
    } else {
      if (sizes[e] < p.max_complex_size) {
        ++sizes[e];
        ++sum;
      }
    }
  }
  HP_REQUIRE(sum == target_pins,
             "draw_complex_sizes: could not match pin total");
  return sizes;
}

}  // namespace

ComplexDataset cellzome_surrogate(const CellzomeParams& p) {
  HP_REQUIRE(p.core_proteins <= p.num_proteins,
             "cellzome_surrogate: core larger than proteome");
  HP_REQUIRE(p.core_complexes + p.num_singletons <= p.num_complexes,
             "cellzome_surrogate: too many core complexes");
  Rng rng{p.seed};

  // --- 1. Degree sequence (descending; index = protein id). -----------
  const std::vector<index_t> degrees = cellzome_degree_sequence(p);
  const count_t target_pins =
      std::accumulate(degrees.begin(), degrees.end(), count_t{0});

  // --- 2. Planted core module. ----------------------------------------
  // Core proteins: the top `core_proteins` ids by degree (the sequence is
  // already descending). Each spends `core_memberships` of its degree
  // inside the core complexes, which occupy edge ids
  // [num_singletons, num_singletons + core_complexes).
  const index_t core_lo = p.num_singletons;
  std::vector<std::vector<index_t>> edge_members(p.num_complexes);
  std::vector<index_t> core_occupancy(p.num_complexes, 0);
  std::vector<index_t> residual_degree(degrees.begin(), degrees.end());

  for (index_t v = 0; v < p.core_proteins; ++v) {
    const index_t quota =
        std::min<index_t>(p.core_memberships, degrees[v]);
    HP_REQUIRE(quota >= 1, "cellzome_surrogate: core protein with degree 0");
    // Choose `quota` distinct core complexes.
    std::set<index_t> chosen;
    while (chosen.size() < quota) {
      chosen.insert(core_lo +
                    static_cast<index_t>(rng.uniform(p.core_complexes)));
    }
    for (index_t e : chosen) {
      edge_members[e].push_back(v);
      ++core_occupancy[e];
    }
    residual_degree[v] -= quota;
  }

  // --- 3. Complex sizes consistent with the pin total. ----------------
  std::vector<index_t> minimum(p.num_complexes, 1);
  for (index_t e = 0; e < p.num_complexes; ++e) {
    minimum[e] = std::max<index_t>(1, core_occupancy[e]);
  }
  const std::vector<index_t> sizes =
      draw_complex_sizes(p, target_pins, minimum, rng);

  // --- 4. Locality-biased wiring of the residual memberships. ---------
  // Pure stub matching would scatter each promiscuous protein across
  // unrelated complexes; in the real Cellzome data such proteins recur
  // in *related* pulldowns, producing the complex-complex overlaps that
  // drive containment cascades during the k-core peel. We therefore
  // place a protein's residual memberships inside a window of complex
  // ids around a random, slot-weighted center (window 0 = pure
  // configuration model).
  std::vector<index_t> slots(p.num_complexes, 0);
  std::vector<index_t> tokens;  // one entry per open slot, lazily pruned
  for (index_t e = 0; e < p.num_complexes; ++e) {
    slots[e] = sizes[e] > core_occupancy[e] ? sizes[e] - core_occupancy[e]
                                            : 0;
    for (index_t i = 0; i < slots[e]; ++i) tokens.push_back(e);
  }

  const auto allowed = [&](index_t e, index_t v) {
    if (slots[e] == 0) return false;
    // Core proteins keep exactly `core_memberships` core complexes; an
    // extra core membership would deepen the maximum core past target.
    if (e >= core_lo && e < core_lo + p.core_complexes &&
        v < p.core_proteins) {
      return false;
    }
    return std::find(edge_members[e].begin(), edge_members[e].end(), v) ==
           edge_members[e].end();
  };
  const auto take = [&](index_t e, index_t v) {
    edge_members[e].push_back(v);
    --slots[e];
  };
  const auto pick_token = [&]() -> index_t {
    while (!tokens.empty()) {
      const std::size_t i = rng.pick(tokens.size());
      const index_t e = tokens[i];
      if (slots[e] == 0) {  // stale token
        tokens[i] = tokens.back();
        tokens.pop_back();
        continue;
      }
      return e;
    }
    return kInvalidIndex;
  };

  // Anchor complexes for hub proteins (see hub_regions in the header).
  std::vector<index_t> anchors;
  for (index_t i = 0; i < p.hub_regions; ++i) {
    anchors.push_back(static_cast<index_t>(rng.uniform(p.num_complexes)));
  }

  count_t dropped = 0;
  for (index_t v = 0; v < p.num_proteins; ++v) {
    index_t remaining = residual_degree[v];
    if (remaining == 0) continue;
    if (p.locality_window > 0 && remaining >= 2) {
      const bool is_hub =
          !anchors.empty() && remaining >= p.hub_degree_threshold;
      // Center: hubs draw from the shared anchors; everyone else from a
      // slot-weighted random complex.
      index_t center = kInvalidIndex;
      for (int attempt = 0; attempt < 64 && center == kInvalidIndex;
           ++attempt) {
        const index_t e = is_hub ? anchors[rng.pick(anchors.size())]
                                 : pick_token();
        if (e == kInvalidIndex) break;
        if (allowed(e, v)) center = e;
      }
      if (center != kInvalidIndex) {
        take(center, v);
        --remaining;
        // Hubs roam a wider ring so most of their memberships stay in
        // the anchor's region rather than spilling to the global pool.
        const index_t window =
            is_hub ? p.locality_window * 4 : p.locality_window;
        for (index_t offset = 1; offset <= window && remaining > 0;
             ++offset) {
          const std::int64_t candidates[2] = {
              static_cast<std::int64_t>(center) - offset,
              static_cast<std::int64_t>(center) + offset};
          for (std::int64_t c : candidates) {
            if (remaining == 0) break;
            if (c < 0 || c >= static_cast<std::int64_t>(p.num_complexes)) {
              continue;
            }
            const index_t e = static_cast<index_t>(c);
            if (allowed(e, v)) {
              take(e, v);
              --remaining;
            }
          }
        }
      }
    }
    // Global slot-weighted placement for whatever is left.
    while (remaining > 0) {
      index_t placed_at = kInvalidIndex;
      for (int attempt = 0; attempt < 128 && placed_at == kInvalidIndex;
           ++attempt) {
        const index_t e = pick_token();
        if (e == kInvalidIndex) break;
        if (allowed(e, v)) placed_at = e;
      }
      if (placed_at == kInvalidIndex) {
        dropped += remaining;
        break;
      }
      take(placed_at, v);
      --remaining;
    }
  }
  if (dropped > 0) {
    log_debug() << "cellzome_surrogate: dropped " << dropped
                << " unplaceable memberships";
  }
  // Fix-up: a complex can end empty only when placement dropped all of
  // its slots; give it one arbitrary member so the dataset stays valid.
  for (index_t e = 0; e < p.num_complexes; ++e) {
    if (!edge_members[e].empty()) continue;
    edge_members[e].push_back(
        static_cast<index_t>(rng.uniform(p.num_proteins)));
  }

  // --- 5. Assemble dataset with names. ---------------------------------
  ComplexDataset data;
  // Vertex 0 carries the maximum degree by construction; per the paper
  // the top-degree protein is ADH1.
  for (index_t v = 0; v < p.num_proteins; ++v) {
    if (v == 0) {
      data.proteins.intern("ADH1");
    } else {
      char buf[16];
      std::snprintf(buf, sizeof buf, "YP%04u", static_cast<unsigned>(v));
      data.proteins.intern(buf);
    }
  }
  hyper::HypergraphBuilder builder{p.num_proteins};
  for (index_t e = 0; e < p.num_complexes; ++e) {
    HP_REQUIRE(!edge_members[e].empty(),
               "cellzome_surrogate: generated an empty complex");
    builder.add_edge(edge_members[e]);
    char buf[16];
    std::snprintf(buf, sizeof buf, "CPLX%03u", static_cast<unsigned>(e));
    data.complex_names.intern(buf);
  }
  data.hypergraph = builder.build();
  return data;
}

}  // namespace hp::bio
