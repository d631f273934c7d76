// Whole-file publication for the on-disk caches (generated datasets, grid and
// shard files). A file is written under a unique temporary name in its
// destination directory and rename(2)d into place, so a reader in another
// process sees either no file or the complete one, never a torn write. No
// fsync: a crash only costs regenerating a cache entry.
#pragma once

#include <cstdio>
#include <functional>
#include <string>

namespace graphm::util {

/// Runs `write` on a fresh temporary file next to `path`, then renames the
/// file to `path`. `write` returns false on a short write. On any failure the
/// temporary file is removed and std::runtime_error is thrown.
void write_file_atomically(const std::string& path,
                           const std::function<bool(std::FILE*)>& write);

}  // namespace graphm::util
