#include "bio/annotations.hpp"

#include <sstream>

#include "util/stringutil.hpp"

namespace hp::bio {

AnnotationSet simulate_annotations(index_t num_proteins,
                                   const std::vector<index_t>& core,
                                   const AnnotationRates& rates, Rng& rng) {
  AnnotationSet a;
  a.essential.assign(num_proteins, false);
  a.homolog.assign(num_proteins, false);
  a.known.assign(num_proteins, true);

  std::vector<bool> in_core(num_proteins, false);
  for (index_t v : core) {
    HP_REQUIRE(v < num_proteins, "simulate_annotations: core id out of range");
    in_core[v] = true;
  }

  for (index_t v = 0; v < num_proteins; ++v) {
    if (in_core[v]) {
      a.known[v] = !rng.bernoulli(rates.core_unknown);
      a.essential[v] =
          a.known[v] && rng.bernoulli(rates.core_essential_given_known);
      a.homolog[v] = rng.bernoulli(rates.core_homolog);
    } else {
      a.known[v] = rng.bernoulli(rates.background_known);
      a.essential[v] =
          a.known[v] && rng.bernoulli(rates.background_essential);
      a.homolog[v] = rng.bernoulli(rates.background_homolog);
    }
  }
  return a;
}

AnnotationSet parse_annotations(const std::string& text,
                                const NameTable& proteins) {
  AnnotationSet a;
  a.essential.assign(proteins.size(), false);
  a.homolog.assign(proteins.size(), false);
  a.known.assign(proteins.size(), true);

  std::istringstream in(text);
  std::string line;
  std::size_t line_no = 0;
  while (std::getline(in, line)) {
    ++line_no;
    const std::string_view body = trim(line);
    if (body.empty() || body.front() == '#') continue;
    const auto fields = split_whitespace(body);
    if (fields.size() != 4) {
      throw ParseError{"annotations line " + std::to_string(line_no) +
                       ": expected 4 fields"};
    }
    const std::string name{fields[0]};
    if (!proteins.contains(name)) continue;  // annotation for absent protein
    const index_t v = proteins.id_of(name);
    if (fields[1] == "essential") {
      a.essential[v] = true;
    } else if (fields[1] != "nonessential") {
      throw ParseError{"annotations line " + std::to_string(line_no) +
                       ": bad essentiality field"};
    }
    if (fields[2] == "homolog") {
      a.homolog[v] = true;
    } else if (fields[2] != "nohomolog") {
      throw ParseError{"annotations line " + std::to_string(line_no) +
                       ": bad homolog field"};
    }
    if (fields[3] == "unknown") {
      a.known[v] = false;
    } else if (fields[3] != "known") {
      throw ParseError{"annotations line " + std::to_string(line_no) +
                       ": bad known field"};
    }
  }
  return a;
}

std::string format_annotations(const AnnotationSet& a,
                               const NameTable& proteins) {
  HP_REQUIRE(a.size() == proteins.size(),
             "format_annotations: size mismatch");
  std::ostringstream out;
  out << "# protein annotations\n";
  for (index_t v = 0; v < a.size(); ++v) {
    out << proteins.name_of(v) << '\t'
        << (a.essential[v] ? "essential" : "nonessential") << '\t'
        << (a.homolog[v] ? "homolog" : "nohomolog") << '\t'
        << (a.known[v] ? "known" : "unknown") << '\n';
  }
  return out.str();
}

}  // namespace hp::bio
