// Host-speed calibration for the host-time benchmark.
//
// The benchmark's host shares its cores, caches and memory with other
// tenants, and its speed drifts in phases of seconds to minutes by up to a
// third. A pass's host time therefore mixes the program's cost with the
// host's speed at that moment. `HostSpeed` times three fixed kernels that
// stress what the simulator stresses (sorting, tree lookups with heap
// allocation, and cache-missing loads) and returns their geometric mean in
// milliseconds. The kernels are plain standard C++ on
// inputs fixed at compile time, so they run the same work on every seed and
// every version of the program under test. README.md ("Host-speed
// normalization") gives the measurements behind this design.
#pragma once

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <map>
#include <numeric>
#include <utility>
#include <vector>

namespace ones::perfbench {

class HostSpeed {
 public:
  /// Calibration time (geometric mean, ms) that normalized times refer to:
  /// a normalized host time is what the measured work would take on a host
  /// whose calibration reads this much.
  static constexpr double kReferenceMs = 35.0;

  HostSpeed() : chain_(kChainLength) {
    // One random cycle through kChainLength slots (Sattolo's algorithm), so
    // each load in chase_kernel() depends on the previous one and misses cache.
    std::iota(chain_.begin(), chain_.end(), 0U);
    std::uint64_t state = 3;
    for (std::uint32_t i = kChainLength - 1; i > 0; --i) {
      std::swap(chain_[i], chain_[next(state) % i]);
    }
    // A first, discarded reading takes the page faults and the allocator's
    // growth, which later readings would not pay.
    measure_ms();
  }

  /// Geometric mean of the three kernels' times, in milliseconds.
  double measure_ms() {
    const double log_sum = std::log(timed_ms([this] { sort_kernel(); })) +
                           std::log(timed_ms([this] { map_kernel(); })) +
                           std::log(timed_ms([this] { chase_kernel(); }));
    return std::exp(log_sum / 3.0);
  }

  /// Keeps the kernels' results observable so the compiler cannot drop them.
  std::uint64_t checksum() const { return checksum_; }

 private:
  static constexpr std::uint32_t kChainLength = 1U << 20;  // 4 MiB of uint32_t

  /// splitmix64: the kernels' fixed pseudo-random inputs.
  static std::uint64_t next(std::uint64_t& state) {
    std::uint64_t z = (state += 0x9E3779B97F4A7C15ULL);
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
    return z ^ (z >> 31);
  }

  template <typename F>
  static double timed_ms(F&& kernel) {
    const auto t0 = std::chrono::steady_clock::now();
    kernel();
    return std::chrono::duration<double, std::milli>(std::chrono::steady_clock::now() - t0)
        .count();
  }

  void sort_kernel() {
    std::uint64_t state = 7;
    std::vector<std::uint64_t> v(std::size_t{1} << 15);
    for (int round = 0; round < 8; ++round) {
      for (auto& x : v) x = next(state);
      std::sort(v.begin(), v.end());
      checksum_ += v[v.size() / 2];
    }
  }

  void map_kernel() {
    std::uint64_t state = 9;
    for (int round = 0; round < 4; ++round) {
      std::map<std::uint64_t, std::uint64_t> m;
      for (std::uint64_t i = 0; i < 20000; ++i) m[next(state) % 100000] = i;
      for (int i = 0; i < 20000; ++i) {
        const auto it = m.find(next(state) % 100000);
        if (it != m.end()) checksum_ += it->second;
      }
    }
  }

  void chase_kernel() {
    std::uint32_t p = 0;
    for (int i = 0; i < 400000; ++i) p = chain_[p];
    checksum_ += p;
  }

  std::vector<std::uint32_t> chain_;
  std::uint64_t checksum_ = 0;
};

}  // namespace ones::perfbench
