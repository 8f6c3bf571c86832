/**
 * @file
 * Virtual-channel FIFO buffers and per-VC architectural state.
 *
 * The FIFO models the SRAM/flop array of a real router buffer: slots
 * retain stale contents after a pop, and a (faulty) read from an empty
 * buffer returns whatever the head slot last held — this is how a
 * control fault can forward "garbage" and effectively generate a new
 * flit in the network (paper Section 4.1, invariance 17 discussion).
 */

#ifndef NOCALERT_NOC_BUFFER_HPP
#define NOCALERT_NOC_BUFFER_HPP

#include <cstdint>
#include <vector>

#include "noc/flit.hpp"

namespace nocalert::noc {

/**
 * Circular flit FIFO with stale-slot semantics.
 */
class VcFifo
{
  public:
    /** Construct with a fixed @p depth (number of flit slots). */
    explicit VcFifo(unsigned depth = 1);

    /** Number of flits currently stored. */
    unsigned size() const { return count_; }

    /** Capacity in flits. */
    unsigned depth() const { return depth_; }

    /** True iff no flits are stored. */
    bool empty() const { return count_ == 0; }

    /** True iff the buffer is at capacity. */
    bool full() const { return count_ == depth_; }

    /**
     * Append a flit. Returns false (dropping the flit) when full — the
     * hardware analogue of a write-enable asserted on a full buffer,
     * which invariant 25 flags.
     */
    bool
    push(const Flit &flit)
    {
        if (full())
            return false;
        // head_ < depth_ and count_ <= depth_, so one conditional
        // subtraction wraps exactly (cheaper than % on the hot path).
        unsigned slot = head_ + count_;
        if (slot >= depth_)
            slot -= depth_;
        slots_[slot] = flit;
        ++count_;
        return true;
    }

    /**
     * Remove and return the head flit. When empty, returns the stale
     * contents of the head slot *without* moving pointers — the
     * hardware analogue of a read-enable on an empty buffer
     * (invariant 24).
     */
    Flit
    pop()
    {
        Flit flit = slots_[head_];
        if (count_ > 0) {
            ++head_;
            if (head_ >= depth_)
                head_ = 0;
            --count_;
        }
        return flit;
    }

    /**
     * Advance past the head flit without reading it: pop() minus the
     * copy, for callers that already peeked. No-op when empty.
     */
    void
    dropHead()
    {
        if (count_ > 0) {
            ++head_;
            if (head_ >= depth_)
                head_ = 0;
            --count_;
        }
    }

    /**
     * Contents of the slot @p offset positions past the head. Stale
     * data is visible beyond size(); offset wraps within the depth.
     */
    const Flit &
    peek(unsigned offset = 0) const
    {
        return slots_[(head_ + offset) % depth_];
    }

    /** Drop all stored flits (pointers reset; slot contents remain). */
    void clear();

    /**
     * True iff both FIFOs have the same depth and hold the same flits
     * in the same order. The head offset and the stale slots beyond
     * size() are ignored: no fault-free read reaches them.
     */
    bool sameContents(const VcFifo &other) const;

    /**
     * True iff both FIFOs are equal slot for slot, with the same head
     * offset and count: sameContents plus the stale slots that an
     * (illegal) read of an empty FIFO returns.
     */
    bool
    sameSlots(const VcFifo &other) const
    {
        return head_ == other.head_ && count_ == other.count_ &&
               slots_ == other.slots_;
    }

    /**
     * Remove every stored flit whose packet id is @p id, preserving
     * the order of the survivors. Returns the number removed. Used by
     * recovery purges; unlike pop(), removal compacts the live region
     * (recovery is a maintenance action, not a hardware read).
     */
    unsigned removePacket(PacketId id);

  private:
    std::vector<Flit> slots_;
    unsigned depth_;
    unsigned head_ = 0;
    unsigned count_ = 0;
};

/**
 * Pipeline state of a virtual channel (paper Figure 2(b) status table).
 *
 * The progression Idle -> RouteWait -> VcAllocWait -> Active mirrors
 * the RC -> VA -> SA pipeline; invariances 17 and 20-23 assert that
 * stage actions only ever observe the matching state.
 */
enum class VcState : std::uint8_t {
    Idle,        ///< Free: no packet allocated to this VC.
    RouteWait,   ///< Header present, waiting for routing computation.
    VcAllocWait, ///< Route known, waiting for an output VC.
    Active,      ///< Output VC held; flits compete in switch arbitration.
};

/** Name of a VC state. */
const char *vcStateName(VcState state);

/** Number of distinct VcState values. */
inline constexpr unsigned kNumVcStates = 4;

/**
 * Architectural record of one input VC (the "VC status table").
 *
 * All fields are fault-injection targets: they are the outputs of the
 * VC state module in the paper's fault model.
 */
struct VcRecord
{
    VcState state = VcState::Idle;

    /** Output port computed by RC; kInvalidPort until then. */
    int outPort = kInvalidPort;

    /** Output VC granted by VA; -1 until then. */
    int outVc = -1;

    /** Message class of the packet holding this VC. */
    std::uint8_t msgClass = 0;

    /** Flits of the current packet written so far (invariant 28). */
    unsigned flitsArrived = 0;

    /** Expected length of the current packet (from its class). */
    unsigned expectedLength = 0;

    /** Type of the most recently written flit (invariant 27). */
    FlitType lastWrittenType = FlitType::Tail;

    /** True once the tail of the current packet has been written. */
    bool tailArrived = false;

    /**
     * Id of the packet currently holding this VC (kInvalidPacket when
     * Idle). Not a fault-injection target — bookkeeping that lets the
     * recovery purge identify which VCs a suspect packet owns without
     * walking allocation chains.
     */
    PacketId packet = kInvalidPacket;

    bool operator==(const VcRecord &) const = default;

    /** Reset to the idle state (buffer contents handled separately). */
    void
    reset()
    {
        state = VcState::Idle;
        outPort = kInvalidPort;
        outVc = -1;
        msgClass = 0;
        flitsArrived = 0;
        expectedLength = 0;
        lastWrittenType = FlitType::Tail;
        tailArrived = false;
        packet = kInvalidPacket;
    }
};

} // namespace nocalert::noc

#endif // NOCALERT_NOC_BUFFER_HPP
