#include "bio/name_table.hpp"

#include <charconv>
#include <cstdint>
#include <limits>

namespace hp::bio {

NameTable NameTable::numbered(char prefix, index_t count) {
  HP_REQUIRE(prefix != '\0', "NameTable: numbered names need a prefix");
  NameTable table;
  table.prefix_ = prefix;
  table.count_ = count;
  return table;
}

index_t NameTable::intern(std::string_view name) {
  HP_REQUIRE(!is_numbered(), "NameTable: cannot intern into numbered names");
  HP_REQUIRE(!name.empty(), "NameTable: empty name");
  if (const auto it = index_.find(name); it != index_.end()) return it->second;
  const auto id = static_cast<index_t>(names_.size());
  names_.emplace_back(name);
  index_.emplace(names_.back(), id);
  return id;
}

index_t NameTable::id_of(std::string_view name) const {
  const std::optional<index_t> id = find(name);
  HP_REQUIRE(id.has_value(),
             "NameTable: unknown name '" + std::string{name} + "'");
  return *id;
}

std::string NameTable::name_of(index_t id) const {
  HP_REQUIRE(id < size(), "NameTable: id out of range");
  if (!is_numbered()) return names_[id];
  char buf[1 + std::numeric_limits<index_t>::digits10 + 1];
  buf[0] = prefix_;
  const char* end = std::to_chars(buf + 1, buf + sizeof buf, id).ptr;
  return std::string(buf, static_cast<std::size_t>(end - buf));
}

std::optional<index_t> NameTable::find(std::string_view name) const {
  if (!is_numbered()) {
    const auto it = index_.find(name);
    if (it == index_.end()) return std::nullopt;
    return it->second;
  }
  // Canonical decimal only: the prefix, then digits with no sign and no
  // leading zero (so every id has exactly one spelling).
  if (name.size() < 2 || name.front() != prefix_) return std::nullopt;
  const std::string_view digits = name.substr(1);
  if (digits.size() > std::numeric_limits<index_t>::digits10 + 1 ||
      (digits.size() > 1 && digits.front() == '0')) {
    return std::nullopt;
  }
  std::uint64_t value = 0;
  for (const char c : digits) {
    if (c < '0' || c > '9') return std::nullopt;
    value = value * 10 + static_cast<std::uint64_t>(c - '0');
  }
  if (value >= count_) return std::nullopt;
  return static_cast<index_t>(value);
}

bool operator==(const NameTable& a, const NameTable& b) {
  if (a.size() != b.size()) return false;
  if (!a.is_numbered() && !b.is_numbered()) return a.names_ == b.names_;
  for (index_t id = 0; id < a.size(); ++id) {
    if (a.name_of(id) != b.name_of(id)) return false;
  }
  return true;
}

}  // namespace hp::bio
