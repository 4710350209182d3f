#ifndef PERFBENCH_REF_KERNEL_H_
#define PERFBENCH_REF_KERNEL_H_

#include <cstdint>
#include <vector>

namespace perfbench {

// A work buffer for RefKernelMedianMs. Allocate it on the thread that owns
// the process's other memory: the kernel itself allocates nothing, so the
// threads that run it leave no allocator arenas behind.
std::vector<std::uint32_t> RefKernelBuffer();

// Median wall time, in ms, of nine warm runs of the frozen reference kernel
// on the calling thread. Negative only if its output is wrong.
double RefKernelMedianMs(std::vector<std::uint32_t>& work);

}  // namespace perfbench

#endif  // PERFBENCH_REF_KERNEL_H_
