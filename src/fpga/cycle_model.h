#ifndef FAST_FPGA_CYCLE_MODEL_H_
#define FAST_FPGA_CYCLE_MODEL_H_

// The paper's cycle cost model (Sec. VI-B/C/D, Equations 1-4).
//
// The functional engine executes Algs. 4-8 exactly and records the workload
// counters N (partial results expanded) and M (edge-validation tasks); this
// module turns those counters into simulated kernel cycles per variant:
//
//   serial (no pipelining) : L_serial = N*L_f + M*L_t                  (Eq 1)
//   FAST-BASIC             : L_basic ~ (N*L_f + M*L_t)/N_o + 4N + 2M   (Eq 2)
//   FAST-TASK              : L_task  ~ 2N + max(N, M)                  (Eq 3)
//   FAST-SEP               : L_sep   ~  N + max(N, M)                  (Eq 4)
//
// FAST-DRAM is FAST-BASIC with the CST (and the intermediate-result buffer)
// resident in DRAM, so the memory-touching pipeline stages run at the DRAM
// read latency instead of 1 cycle.

#include <cstdint>

#include "fpga/config.h"

namespace fast {

enum class FastVariant {
  kDram = 0,   // CST in DRAM, basic pipeline
  kBasic = 1,  // BRAM-resident CST, modules run serially (Fig. 5a)
  kTask = 2,   // + task parallelism via FIFOs (Fig. 5b)
  kSep = 3,    // + split t_v / t_n generators (Fig. 5c)
};

const char* FastVariantName(FastVariant variant);

// Workload counters recorded by one kernel execution over one CST partition.
struct KernelCounters {
  std::uint64_t partial_results = 0;  // N: total p_o generated
  std::uint64_t edge_tasks = 0;       // M: total t_n generated
  std::uint64_t visited_tasks = 0;    // == N (one t_v per p_o)
  std::uint64_t rounds = 0;           // generator activations
  std::uint64_t results = 0;          // complete embeddings found
  std::uint64_t max_buffer_entries = 0;  // high-water mark of P (entries)

  KernelCounters& operator+=(const KernelCounters& other) {
    partial_results += other.partial_results;
    edge_tasks += other.edge_tasks;
    visited_tasks += other.visited_tasks;
    rounds += other.rounds;
    results += other.results;
    max_buffer_entries = std::max(max_buffer_entries, other.max_buffer_entries);
    return *this;
  }
  bool operator==(const KernelCounters&) const = default;
};

// Matching-phase cycles for one partition under `variant` (Eqs. 1-4).
double KernelCycles(const FpgaConfig& config, FastVariant variant,
                    const KernelCounters& counters);

// Reference serial cost (Eq. 1), the no-pipelining upper bound.
double SerialCycles(const FpgaConfig& config, const KernelCounters& counters);

// DMA cost of streaming a CST of `cst_words` 32-bit words DRAM -> BRAM.
// Zero for FAST-DRAM (it reads the CST in place).
double CstLoadCycles(const FpgaConfig& config, std::size_t cst_words);

// Cost of flushing `results` embeddings of `query_size` words to DRAM.
double ResultFlushCycles(const FpgaConfig& config, std::uint64_t results,
                         std::size_t query_size);

// BRAM words needed for the intermediate-results buffer: (|V(q)|-1) * N_o
// slots of query_size words each (Sec. VI-B buffer design).
std::size_t PartialBufferWords(const FpgaConfig& config, std::size_t query_size);

}  // namespace fast

#endif  // FAST_FPGA_CYCLE_MODEL_H_
