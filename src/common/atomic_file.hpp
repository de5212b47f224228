// Atomic whole-file writes: stream into a temp file next to the target,
// then rename it into place. A reader (or an interrupted run) never sees a
// file that looks complete but is not, and concurrent writers of the same
// path each rename their own complete temp file.
#pragma once

#include <functional>
#include <iosfwd>
#include <string>

namespace ones::common {

/// `<path>.tmp<pid>.<n>` with `n` from a process-wide counter: unique across
/// the threads of one process and across processes that share a directory.
std::string unique_temp_path(const std::string& path);

/// Write `path` by calling `writer` on a stream into `unique_temp_path(path)`,
/// check the stream, then rename the temp file onto `path`. Throws
/// std::runtime_error (std::filesystem::filesystem_error for the rename)
/// when the temp file cannot be opened or written; the temp file is removed
/// on every failure. The parent directory must exist.
void write_file_atomically(const std::string& path,
                           const std::function<void(std::ostream&)>& writer);

}  // namespace ones::common
