// The frozen host-speed reference kernel. Do not edit: every scaled metric
// of the benchmark is "wall time at the speed this kernel measured", so a
// change here silently rescales every number ever recorded. Its compile
// flags are fixed in perfbench/CMakeLists.txt.
//
// The kernel is a std::sort of a fixed pseudo-random array: branchy,
// cache-resident and allocation-free, which tracks the slowdowns the
// matching code sees on a shared host (METRICS.md, "Reference kernel").

#include "ref_kernel.h"

#include <algorithm>
#include <array>
#include <chrono>
#include <cstdint>
#include <vector>

namespace perfbench {
namespace {

constexpr std::size_t kRefElements = 1u << 14;
// Warm repetitions per measurement; their median counts.
constexpr int kRefReps = 9;

const std::vector<std::uint32_t>& RefInput() {
  static const std::vector<std::uint32_t> input = [] {
    std::vector<std::uint32_t> v(kRefElements);
    std::uint64_t x = 0x2545F4914F6CDD1DULL;
    for (std::uint32_t& e : v) {
      x ^= x << 13;
      x ^= x >> 7;
      x ^= x << 17;
      e = static_cast<std::uint32_t>(x >> 32);
    }
    return v;
  }();
  return input;
}

}  // namespace

std::vector<std::uint32_t> RefKernelBuffer() {
  return std::vector<std::uint32_t>(RefInput().size());
}

double RefKernelMedianMs(std::vector<std::uint32_t>& work) {
  const std::vector<std::uint32_t>& input = RefInput();
  if (work.size() != input.size()) return -1.0;
  std::array<double, kRefReps> times{};
  std::uint64_t checksum = 0;
  // Repetition 0 warms the caches and is not counted.
  for (int r = 0; r <= kRefReps; ++r) {
    std::copy(input.begin(), input.end(), work.begin());
    const auto start = std::chrono::steady_clock::now();
    std::sort(work.begin(), work.end());
    const auto end = std::chrono::steady_clock::now();
    checksum += work[static_cast<std::size_t>(r) * 977 % work.size()];
    if (r > 0) times[r - 1] = std::chrono::duration<double, std::milli>(end - start).count();
  }
  // The sorted output is consumed so the sort cannot be elided.
  if (checksum == 0) return -1.0;
  std::nth_element(times.begin(), times.begin() + kRefReps / 2, times.end());
  return times[kRefReps / 2];
}

}  // namespace perfbench
