// Per-protein functional annotations: essentiality, homology, and
// known/unknown status.
//
// The paper tests its core-proteome conjecture against the
// Saccharomyces Genome Database (homologs) and the Comprehensive Yeast
// Genome Database (878 essential / 3,158 non-essential genes). Those
// databases are not bundled here, so AnnotationModel *simulates* an
// annotation source whose statistics match the published rates: rates
// inside a designated core set reflect the paper's core observations
// (9/41 unknown, 22/32 of the known essential, 24/41 with homologs) and
// the background reflects genome-wide rates. The enrichment analysis
// then runs on exactly the code path real annotations would use; see
// DESIGN.md for the substitution rationale.
//
// A TSV load/save path is provided so real annotation tables can be
// dropped in:  ProteinName <TAB> essential|nonessential <TAB>
// homolog|nohomolog <TAB> known|unknown
#pragma once

#include <string>
#include <vector>

#include "bio/name_table.hpp"
#include "util/rng.hpp"

namespace hp::bio {

struct AnnotationSet {
  std::vector<bool> essential;
  std::vector<bool> homolog;
  std::vector<bool> known;  ///< protein is known / has known function

  index_t size() const { return static_cast<index_t>(essential.size()); }
};

struct AnnotationRates {
  // Background (genome-wide) rates. Essentiality default is the CYGD
  // count the paper quotes: 878 / (878 + 3158).
  double background_essential = 878.0 / 4036.0;
  double background_homolog = 0.35;
  double background_known = 0.70;
  // Rates within the core set, from the paper's 6-core observations.
  double core_unknown = 9.0 / 41.0;              // -> known = 32/41
  double core_essential_given_known = 22.0 / 32.0;
  double core_homolog = 24.0 / 41.0;
};

/// Simulate annotations for `num_proteins` proteins; `core` lists the
/// protein ids belonging to the core proteome (e.g. the maximum core).
AnnotationSet simulate_annotations(index_t num_proteins,
                                   const std::vector<index_t>& core,
                                   const AnnotationRates& rates, Rng& rng);

/// Parse / format the TSV annotation table described above. Proteins
/// missing from the table default to (nonessential, nohomolog, known).
AnnotationSet parse_annotations(const std::string& text,
                                const NameTable& proteins);
std::string format_annotations(const AnnotationSet& a,
                               const NameTable& proteins);

}  // namespace hp::bio
