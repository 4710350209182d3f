#include "cst/cst_serialize.h"

#include <cstdint>

namespace fast {

std::size_t CstWireBytes(const Cst& cst) {
  const std::size_t n = cst.NumQueryVertices();
  const std::size_t slots = cst.layout().edges().size();
  return (cst.SizeWords() + 3 + n + 2 * slots) * sizeof(std::uint32_t);
}

}  // namespace fast
