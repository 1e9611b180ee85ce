#include "net/packet_store.hpp"

namespace pmsb::net {

PacketStore::~PacketStore() {
#if defined(__SANITIZE_ADDRESS__)
  for (const auto& chunk : chunks_) {
    ASAN_UNPOISON_MEMORY_REGION(chunk.get(), kChunkNodes * sizeof(PacketNode));
  }
#endif
}

void PacketStore::grow() {
  chunks_.push_back(std::make_unique<PacketNode[]>(kChunkNodes));
  PacketNode* const chunk = chunks_.back().get();
  // Thread the chunk onto the free list so that its first node goes out
  // first.
  for (std::size_t i = kChunkNodes; i-- > 0;) {
    chunk[i].next = free_;
    free_ = &chunk[i];
    poison(&chunk[i]);
  }
}

}  // namespace pmsb::net
