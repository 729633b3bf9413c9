#include "fsync/hash/gear.h"

namespace fsx {

uint64_t Gear::Hash(ByteSpan block) {
  uint64_t h = 0;
  for (size_t i = 0; i < block.size(); ++i) {
    h = (h << 1) + hash_internal::kGearTable[block[i]];
  }
  return h;
}

}  // namespace fsx
