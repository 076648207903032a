// ScratchDir — a per-run directory for an example's NVMe swap files.
//
// The name carries the process id, so concurrent runs of the same example
// never share (and silently overwrite) each other's NVMe state; the
// directory is removed when the object goes out of scope.
#pragma once

#include <unistd.h>

#include <filesystem>
#include <string>
#include <system_error>

struct ScratchDir {
  explicit ScratchDir(const std::string& stem)
      : path(std::filesystem::temp_directory_path() /
             (stem + "_" + std::to_string(::getpid()))) {
    std::filesystem::create_directories(path);
  }
  ~ScratchDir() {
    std::error_code ec;
    std::filesystem::remove_all(path, ec);
  }
  ScratchDir(const ScratchDir&) = delete;
  ScratchDir& operator=(const ScratchDir&) = delete;

  std::filesystem::path path;
};
