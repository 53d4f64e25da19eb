// Whole-file reads and checked writes for the command-line tools.
#ifndef SRC_BASE_FILE_H_
#define SRC_BASE_FILE_H_

#include <string>
#include <string_view>

#include "src/base/result.h"

namespace sep {

// Reads the whole file. The error reads "cannot open PATH: reason" or
// "cannot read PATH: reason".
Result<std::string> ReadFile(const std::string& path);

// Writes `data` to `path` (replacing it, or appending with `append`). Every
// step is checked — open, write and close (which flushes) — so a full disk
// or a bad descriptor is an error, not a silently short file. The error
// reads "cannot write PATH: reason".
Result<> WriteFile(const std::string& path, std::string_view data, bool append = false);

}  // namespace sep

#endif  // SRC_BASE_FILE_H_
