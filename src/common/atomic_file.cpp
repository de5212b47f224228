#include "common/atomic_file.hpp"

#include <unistd.h>

#include <atomic>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <stdexcept>

namespace ones::common {

namespace fs = std::filesystem;

std::string unique_temp_path(const std::string& path) {
  static std::atomic<std::uint64_t> counter{0};
  return path + ".tmp" + std::to_string(static_cast<unsigned long>(::getpid())) + "." +
         std::to_string(counter.fetch_add(1, std::memory_order_relaxed));
}

void write_file_atomically(const std::string& path,
                           const std::function<void(std::ostream&)>& writer) {
  const std::string tmp = unique_temp_path(path);
  try {
    {
      std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
      if (!out) throw std::runtime_error("cannot open '" + tmp + "'");
      writer(out);
      out.flush();
      if (!out) throw std::runtime_error("failed writing '" + tmp + "'");
    }
    fs::rename(tmp, path);
  } catch (...) {
    std::error_code ignored;
    fs::remove(tmp, ignored);
    throw;
  }
}

}  // namespace ones::common
