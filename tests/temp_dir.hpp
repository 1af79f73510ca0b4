// Per-process scratch directory for tests that write files.
//
// ctest runs every test case as its own process, and next to them the
// whole-binary runs (unit_tests_hp_threads_1/_16). A fixed file name
// directly under ::testing::TempDir() is shared by all of them, so under
// `ctest -j` one process can read another's half-written file or delete
// it. Every path a test writes goes through temp_dir(), whose name
// carries the pid.
#pragma once

#include <gtest/gtest.h>
#include <unistd.h>

#include <filesystem>
#include <string>
#include <system_error>

namespace hp::test {

namespace detail {

/// Created on first use; removed with its contents at process exit.
class ProcessTempDir {
 public:
  ProcessTempDir()
      : path_((std::filesystem::path(::testing::TempDir()) /
               ("hp_test_" + std::to_string(::getpid())))
                  .string()) {
    std::filesystem::create_directories(path_);
  }
  ~ProcessTempDir() {
    std::error_code ignored;
    std::filesystem::remove_all(path_, ignored);
  }
  ProcessTempDir(const ProcessTempDir&) = delete;
  ProcessTempDir& operator=(const ProcessTempDir&) = delete;

  const std::string& path() const { return path_; }

 private:
  std::string path_;
};

}  // namespace detail

/// `<TempDir>/hp_test_<pid>`: private to this test process.
inline const std::string& temp_dir() {
  static const detail::ProcessTempDir dir;
  return dir.path();
}

}  // namespace hp::test
