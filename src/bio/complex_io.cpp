#include "bio/complex_io.hpp"

#include <fstream>
#include <sstream>
#include <stdexcept>

#include "util/stringutil.hpp"

namespace hp::bio {

ComplexDataset parse_complex_table(const std::string& text) {
  ComplexDataset data;
  std::istringstream in(text);
  std::string line;
  std::size_t line_no = 0;
  std::vector<std::vector<index_t>> edges;

  while (std::getline(in, line)) {
    ++line_no;
    const std::string_view body = trim(line);
    if (body.empty() || body.front() == '#') continue;
    // First field = complex name; rest = members. Prefer tab separation,
    // fall back to whitespace.
    std::vector<std::string_view> fields;
    if (body.find('\t') != std::string_view::npos) {
      for (std::string_view f : split(body, '\t')) {
        const std::string_view t = trim(f);
        if (!t.empty()) fields.push_back(t);
      }
    } else {
      fields = split_whitespace(body);
    }
    if (fields.size() < 2) {
      throw ParseError{"line " + std::to_string(line_no) +
                       ": complex with no proteins"};
    }
    const std::string_view name = fields[0];
    if (data.complex_names.contains(name)) {
      throw ParseError{"line " + std::to_string(line_no) +
                       ": duplicate complex name '" + std::string{name} +
                       "'"};
    }
    data.complex_names.intern(name);
    std::vector<index_t> members;
    members.reserve(fields.size() - 1);
    for (std::size_t i = 1; i < fields.size(); ++i) {
      members.push_back(data.proteins.intern(fields[i]));
    }
    edges.push_back(std::move(members));
  }

  hyper::HypergraphBuilder builder{data.proteins.size()};
  for (const auto& members : edges) builder.add_edge(members);
  data.hypergraph = builder.build();
  return data;
}

std::string format_complex_table(const ComplexDataset& data) {
  HP_REQUIRE(data.complex_names.size() == data.hypergraph.num_edges(),
             "format_complex_table: name/edge count mismatch");
  std::ostringstream out;
  out << "# protein complex membership table (" << data.hypergraph.num_edges()
      << " complexes, " << data.hypergraph.num_vertices() << " proteins)\n";
  for (index_t e = 0; e < data.hypergraph.num_edges(); ++e) {
    out << data.complex_names.name_of(e);
    for (index_t v : data.hypergraph.vertices_of(e)) {
      out << '\t' << data.proteins.name_of(v);
    }
    out << '\n';
  }
  return out.str();
}

ComplexDataset load_complex_table(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    throw std::runtime_error{"load_complex_table: cannot open " + path};
  }
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return parse_complex_table(buffer.str());
}

void save_complex_table(const ComplexDataset& data, const std::string& path) {
  std::ofstream out(path, std::ios::binary);
  if (!out) {
    throw std::runtime_error{"save_complex_table: cannot open " + path};
  }
  out << format_complex_table(data);
  if (!out) {
    throw std::runtime_error{"save_complex_table: write failed for " + path};
  }
}

}  // namespace hp::bio
