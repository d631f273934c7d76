#include "util/atomic_file.hpp"

#include <stdexcept>

#include <sys/stat.h>
#include <unistd.h>

namespace graphm::util {

void write_file_atomically(const std::string& path,
                           const std::function<bool(std::FILE*)>& write) {
  std::string tmp = path + ".tmp.XXXXXX";
  const int fd = ::mkstemp(tmp.data());
  if (fd < 0) throw std::runtime_error("cannot create a temporary file for " + path);
  ::fchmod(fd, 0644);  // mkstemp creates 0600; the caches are shared
  std::FILE* f = ::fdopen(fd, "wb");
  if (f == nullptr) ::close(fd);
  bool ok = f != nullptr && write(f);
  ok = (f == nullptr || std::fclose(f) == 0) && ok;
  if (!ok || std::rename(tmp.c_str(), path.c_str()) != 0) {
    std::remove(tmp.c_str());
    throw std::runtime_error("cannot write " + path);
  }
}

}  // namespace graphm::util
