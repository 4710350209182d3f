// CPU pinning, the reference marks, and the slice loop.

#include <malloc.h>
#include <pthread.h>
#include <sched.h>

#include <atomic>
#include <cstdio>
#include <thread>

#include "bench.h"
#include "ref_kernel.h"
#include "util/timer.h"

namespace perfbench {
namespace {

std::vector<int> AllowedCpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  std::vector<int> cpus;
  if (sched_getaffinity(0, sizeof(set), &set) != 0) return cpus;
  for (int c = 0; c < CPU_SETSIZE; ++c) {
    if (CPU_ISSET(c, &set)) cpus.push_back(c);
  }
  return cpus;
}

// Returns free allocator memory to the system, then restarts the kernel's
// peak-RSS watermark (VmHWM) of this process, so each slice's peak starts
// from what is live. On kernels without the reset, the watermark stays the
// process-lifetime peak.
void ResetPeakRss() {
  malloc_trim(0);
  if (std::FILE* f = std::fopen("/proc/self/clear_refs", "w")) {
    std::fputs("5", f);
    std::fclose(f);
  }
}

double PeakRssMb() {
  double kib = 0.0;
  if (std::FILE* f = std::fopen("/proc/self/status", "r")) {
    char line[256];
    while (std::fgets(line, sizeof(line), f) != nullptr) {
      if (std::sscanf(line, "VmHWM: %lf", &kib) == 1) break;
    }
    std::fclose(f);
  }
  if (!(kib > 0.0)) Fail("cannot read VmHWM from /proc/self/status");
  return kib / 1024.0;
}

}  // namespace

std::vector<int> PinProcess(std::size_t want) {
  std::vector<int> allowed = AllowedCpus();
  if (allowed.empty()) Fail("sched_getaffinity failed");
  if (want > allowed.size()) want = allowed.size();
  std::vector<int> cpus(allowed.end() - static_cast<std::ptrdiff_t>(want), allowed.end());
  cpu_set_t set;
  CPU_ZERO(&set);
  for (int c : cpus) CPU_SET(c, &set);
  if (sched_setaffinity(0, sizeof(set), &set) != 0) Fail("sched_setaffinity failed");
  return cpus;
}

void Host::Mark() {
  while (buffers_.size() < cpus_.size()) buffers_.push_back(RefKernelBuffer());
  std::vector<double> ms(cpus_.size(), 0.0);
  std::atomic<std::size_t> ready{0};
  std::vector<std::thread> threads;
  threads.reserve(cpus_.size());
  for (std::size_t i = 0; i < cpus_.size(); ++i) {
    threads.emplace_back([&, i] {
      cpu_set_t one;
      CPU_ZERO(&one);
      CPU_SET(cpus_[i], &one);
      pthread_setaffinity_np(pthread_self(), sizeof(one), &one);
      // Start together, so every CPU of the set is loaded while each measures.
      ready.fetch_add(1);
      while (ready.load() < cpus_.size()) std::this_thread::yield();
      ms[i] = RefKernelMedianMs(buffers_[i]);
    });
  }
  for (std::thread& t : threads) t.join();
  for (double m : ms) {
    if (!(m > 0.0)) Fail("reference kernel produced a wrong result");
  }
  refs_ms_.push_back(Mean(ms));
}

double Host::Scale(std::size_t i) const {
  const double right = i + 1 < refs_ms_.size() ? refs_ms_[i + 1] : refs_ms_[i];
  return kNominalRefMs / (0.5 * (refs_ms_[i] + right));
}

std::vector<SliceRecord> RunSlices(Host& host, double load_seconds, const SliceHooks& hooks) {
  std::vector<SliceRecord> slices;
  host.Mark();
  for (std::size_t i = 0; i < kSlices; ++i) {
    ResetPeakRss();
    const fast::Timer setup_timer;
    hooks.setup(i);
    slices.push_back({setup_timer.ElapsedSeconds(), host.interval(), 0.0});
    hooks.load(i, load_seconds / static_cast<double>(kSlices));
    slices.back().peak_rss_mb = PeakRssMb();
    hooks.teardown(i);
    host.Mark();
  }
  return slices;
}

}  // namespace perfbench
