// Parser/writer for protein-complex membership tables -- the public-data
// format of the Cellzome/Gavin supplementary material and of MIPS-style
// complex catalogues:
//
//   # comment
//   ComplexName <TAB> Protein1 <TAB> Protein2 <TAB> ...
//
// (whitespace-separated protein lists are also accepted). Proteins are
// interned into a NameTable in first-seen order; complexes become
// hyperedges in file order.
#pragma once

#include <string>
#include <vector>

#include "bio/name_table.hpp"
#include "core/hypergraph.hpp"

namespace hp::bio {

struct ComplexDataset {
  hyper::Hypergraph hypergraph;        ///< proteins = vertices, complexes = edges
  NameTable proteins;       ///< per vertex id
  NameTable complex_names;  ///< per hyperedge id
};

/// Parse from text. Throws hp::ParseError (with a line number) on a line
/// with no proteins or a duplicated complex name.
ComplexDataset parse_complex_table(const std::string& text);

/// Serialize back to the tab-separated format.
std::string format_complex_table(const ComplexDataset& data);

/// File wrappers; throw std::runtime_error on I/O failure.
ComplexDataset load_complex_table(const std::string& path);
void save_complex_table(const ComplexDataset& data, const std::string& path);

}  // namespace hp::bio
