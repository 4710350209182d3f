#ifndef FAST_CST_CST_SERIALIZE_H_
#define FAST_CST_CST_SERIALIZE_H_

// Size of a CST as it crosses PCIe into card DRAM and is then DMA'd into
// BRAM (Fig. 2 steps 3-4): a flat stream of 32-bit words,
//   [magic, n_query_vertices, n_slots]
//   per query vertex u:  [|C(u)|, C(u)...]
//   per directed slot s: [|offsets|, offsets..., |targets|, targets...]
// i.e. Cst::SizeWords() plus a fixed header and per-array length prefixes,
// so the BRAM budget accounting (δ_S) matches what is actually shipped. Only
// the size is modelled; the stream itself is never materialized.

#include <cstddef>

#include "cst/cst.h"

namespace fast {

// Exact wire size in bytes of a CST; used for PCIe accounting and as the
// plan cache's byte charge.
std::size_t CstWireBytes(const Cst& cst);

}  // namespace fast

#endif  // FAST_CST_CST_SERIALIZE_H_
