// Dataset naming: a bidirectional map between names and the dense ids
// the hypergraph algorithms use. One type serves both sides of a
// dataset -- proteins (vertex ids) and complexes (hyperedge ids).
//
// A table is one of two kinds:
//   * explicit -- the names a file actually carries (.tsv/.txt complex
//     tables, the Cellzome surrogate). Ids are assigned in first-seen
//     order; each name is stored with a hash index for lookups.
//   * numbered -- the implicit scheme of the nameless formats (.hyper,
//     .hgr, .hpb, .hps, .mtx): id i is named "<prefix><i>" ("v12",
//     "f3"). Nothing is stored; name_of formats the name when asked and
//     id_of parses the canonical decimal form, so building a table over
//     10^6 ids costs O(1).
//
// Every member is const or a plain setter with no hidden cache, so a
// table may be read from any number of threads at once (server pool
// lanes share one session).
#pragma once

#include <functional>
#include <optional>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "util/common.hpp"

namespace hp::bio {

class NameTable {
 public:
  /// An empty explicit table.
  NameTable() = default;

  /// The numbered table naming ids 0..count-1 as "<prefix><id>".
  static NameTable numbered(char prefix, index_t count);

  /// Id for `name`, inserting a fresh one if unseen. Explicit tables
  /// only; throws InvalidInputError on an empty name.
  index_t intern(std::string_view name);

  /// Id for `name`; throws InvalidInputError if absent. A numbered
  /// table accepts only the canonical form: "v12" resolves, while
  /// "v012", "v", "v+1", "v-1" and any id >= size() do not.
  index_t id_of(std::string_view name) const;

  bool contains(std::string_view name) const { return find(name).has_value(); }

  /// The name of `id`, by value (numbered names are formatted on
  /// demand; short names fit the small-string buffer).
  std::string name_of(index_t id) const;

  index_t size() const {
    return is_numbered() ? count_ : static_cast<index_t>(names_.size());
  }

  bool is_numbered() const { return prefix_ != '\0'; }

  /// Same names in the same id order, whatever the kinds.
  friend bool operator==(const NameTable& a, const NameTable& b);

 private:
  /// Transparent hash so lookups by string_view build no std::string.
  struct Hash {
    using is_transparent = void;
    std::size_t operator()(std::string_view s) const {
      return std::hash<std::string_view>{}(s);
    }
  };

  std::optional<index_t> find(std::string_view name) const;

  char prefix_ = '\0';  ///< nonzero iff numbered
  index_t count_ = 0;   ///< numbered tables only
  std::vector<std::string> names_;
  std::unordered_map<std::string, index_t, Hash, std::equal_to<>> index_;
};

}  // namespace hp::bio
