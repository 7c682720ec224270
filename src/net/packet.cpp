#include "net/packet.hpp"

#include <cstddef>
#include <new>
#include <type_traits>

namespace nicbar::net {

namespace {

// A free packet's storage is reused as the list link, so recycling touches
// no other memory; that is only sound while Packet owns nothing.
static_assert(std::is_trivially_destructible_v<Packet>);

struct FreeNode {
  FreeNode* next;
};

// Bounds one thread's list. A thread that releases what it took never holds
// more than its own peak of packets in flight; the cap stops a partitioned
// run whose traffic flows one way between two worker threads from parking
// storage there without limit.
constexpr std::size_t kMaxFree = std::size_t{1} << 16;

struct FreeList {
  FreeNode* head = nullptr;
  std::size_t size = 0;

  FreeList() = default;
  FreeList(const FreeList&) = delete;
  FreeList& operator=(const FreeList&) = delete;
  ~FreeList();
};

// Set once this thread's list is destroyed: packets released later (during
// thread or static teardown) go straight back to the allocator.
thread_local bool t_list_gone = false;

FreeList::~FreeList() {
  while (head != nullptr) {
    FreeNode* next = head->next;
    ::operator delete(head);
    head = next;
  }
  t_list_gone = true;
}

FreeList& free_list() {
  thread_local FreeList list;
  return list;
}

}  // namespace

void PacketRecycler::operator()(Packet* p) const noexcept {
  if (t_list_gone) {
    ::operator delete(p);
    return;
  }
  FreeList& fl = free_list();
  if (fl.size == kMaxFree) {
    ::operator delete(p);
    return;
  }
  fl.head = ::new (static_cast<void*>(p)) FreeNode{fl.head};
  ++fl.size;
}

PacketPtr make_packet(const Packet& p) {
  void* storage = nullptr;
  if (!t_list_gone) {
    FreeList& fl = free_list();
    if (fl.head != nullptr) {
      storage = fl.head;
      fl.head = fl.head->next;
      --fl.size;
    }
  }
  if (storage == nullptr) storage = ::operator new(sizeof(Packet));
  return PacketPtr(::new (storage) Packet(p));
}

const char* to_string(PacketType t) {
  switch (t) {
    case PacketType::kData: return "DATA";
    case PacketType::kAck: return "ACK";
    case PacketType::kNack: return "NACK";
    case PacketType::kBarrierPe: return "BAR_PE";
    case PacketType::kBarrierGather: return "BAR_GATHER";
    case PacketType::kBarrierBcast: return "BAR_BCAST";
    case PacketType::kBarrierAck: return "BAR_ACK";
    case PacketType::kBarrierNack: return "BAR_NACK";
    case PacketType::kReduceUp: return "RED_UP";
    case PacketType::kReduceDown: return "RED_DOWN";
    case PacketType::kRmaPut: return "RMA_PUT";
    case PacketType::kRmaGet: return "RMA_GET";
    case PacketType::kRmaCas: return "RMA_CAS";
    case PacketType::kRmaReply: return "RMA_REPLY";
  }
  return "?";
}

}  // namespace nicbar::net
