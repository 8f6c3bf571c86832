#include "noc/buffer.hpp"

#include "util/log.hpp"

namespace nocalert::noc {

VcFifo::VcFifo(unsigned depth)
    : slots_(depth), depth_(depth)
{
    NOCALERT_ASSERT(depth >= 1, "FIFO depth must be positive");
}

void
VcFifo::clear()
{
    head_ = 0;
    count_ = 0;
}

bool
VcFifo::sameContents(const VcFifo &other) const
{
    if (depth_ != other.depth_ || count_ != other.count_)
        return false;
    for (unsigned i = 0; i < count_; ++i)
        if (!(peek(i) == other.peek(i)))
            return false;
    return true;
}

unsigned
VcFifo::removePacket(PacketId id)
{
    unsigned kept = 0;
    unsigned removed = 0;
    for (unsigned i = 0; i < count_; ++i) {
        const Flit flit = slots_[(head_ + i) % depth_];
        if (flit.packet == id) {
            ++removed;
        } else {
            slots_[(head_ + kept) % depth_] = flit;
            ++kept;
        }
    }
    count_ = kept;
    return removed;
}

const char *
vcStateName(VcState state)
{
    switch (state) {
      case VcState::Idle: return "Idle";
      case VcState::RouteWait: return "RouteWait";
      case VcState::VcAllocWait: return "VcAllocWait";
      case VcState::Active: return "Active";
    }
    return "?";
}


} // namespace nocalert::noc
