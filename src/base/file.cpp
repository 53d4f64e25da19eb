#include "src/base/file.h"

#include <cerrno>
#include <cstdio>
#include <cstring>

namespace sep {

Result<std::string> ReadFile(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) {
    return Err("cannot open " + path + ": " + std::strerror(errno));
  }
  std::string data;
  char buffer[4096];
  std::size_t got;
  while ((got = std::fread(buffer, 1, sizeof buffer, f)) > 0) {
    data.append(buffer, got);
  }
  const bool failed = std::ferror(f) != 0;
  const int error = errno;
  std::fclose(f);
  if (failed) {
    return Err("cannot read " + path + ": " + std::strerror(error));
  }
  return data;
}

Result<> WriteFile(const std::string& path, std::string_view data, bool append) {
  std::FILE* f = std::fopen(path.c_str(), append ? "ab" : "wb");
  if (f == nullptr) {
    return Err("cannot write " + path + ": " + std::strerror(errno));
  }
  const bool written = std::fwrite(data.data(), 1, data.size(), f) == data.size();
  const int error = errno;
  // fclose flushes the buffered tail, so it is where a full device reports.
  if (std::fclose(f) != 0 || !written) {
    return Err("cannot write " + path + ": " + std::strerror(written ? errno : error));
  }
  return Ok();
}

}  // namespace sep
