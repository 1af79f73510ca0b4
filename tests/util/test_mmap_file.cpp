#include "util/mmap_file.hpp"

#include <gtest/gtest.h>

#include <cstdio>
#include <cstring>
#include <fstream>
#include <string>
#include <utility>

#include "../temp_dir.hpp"

namespace hp {
namespace {

std::string write_file(const std::string& name, const std::string& bytes) {
  const std::string path = hp::test::temp_dir() + "/" + name;
  std::ofstream out{path, std::ios::binary};
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  return path;
}

TEST(MappedFileTest, MapsFileContents) {
  const std::string payload = "hyperproteome mmap payload\n";
  const std::string path = write_file("hp_mmap_basic.bin", payload);

  MappedFile file{path};
  ASSERT_EQ(file.size(), payload.size());
  ASSERT_NE(file.data(), nullptr);
  EXPECT_EQ(std::memcmp(file.data(), payload.data(), payload.size()), 0);
  EXPECT_EQ(file.path(), path);
  std::remove(path.c_str());
}

TEST(MappedFileTest, EmptyFileMapsToNull) {
  const std::string path = write_file("hp_mmap_empty.bin", "");
  MappedFile file{path};
  EXPECT_EQ(file.size(), 0u);
  EXPECT_EQ(file.data(), nullptr);
  std::remove(path.c_str());
}

TEST(MappedFileTest, MissingFileThrows) {
  EXPECT_THROW(MappedFile{hp::test::temp_dir() + "/no_such_file.bin"},
               std::runtime_error);
}

TEST(MappedFileTest, DirectoryThrows) {
  EXPECT_THROW(MappedFile{hp::test::temp_dir()}, std::runtime_error);
}

TEST(MappedFileTest, MoveTransfersOwnership) {
  const std::string payload = "move me";
  const std::string path = write_file("hp_mmap_move.bin", payload);

  MappedFile a{path};
  const void* data = a.data();
  MappedFile b{std::move(a)};
  EXPECT_EQ(b.data(), data);
  EXPECT_EQ(b.size(), payload.size());
  EXPECT_EQ(a.data(), nullptr);
  EXPECT_EQ(a.size(), 0u);

  MappedFile c;
  c = std::move(b);
  EXPECT_EQ(c.data(), data);
  EXPECT_EQ(std::memcmp(c.data(), payload.data(), payload.size()), 0);
  EXPECT_EQ(b.data(), nullptr);
  std::remove(path.c_str());
}

}  // namespace
}  // namespace hp
