#include "noc/interface.hpp"

#include "util/bits.hpp"
#include "util/log.hpp"

namespace nocalert::noc {

NetworkInterface::NetworkInterface(const NetworkConfig &config, NodeId node)
    : node_(node), params_(config.router), retransmit_(config.retransmit),
      num_nodes_(config.numNodes())
{
    trackers_.resize(params_.numVcs);
    for (auto &tracker : trackers_)
        tracker.credits = static_cast<std::uint8_t>(params_.bufferDepth);
    reassembly_.resize(params_.numVcs);
    class_rr_.assign(params_.classes.size(), 0);
}

void
NetworkInterface::enqueue(const Packet &packet)
{
    NOCALERT_ASSERT(packet.src == node_, "packet src ", packet.src,
                    " queued at node ", node_);
    queue_.push_back(packet);
}

bool
NetworkInterface::sameState(const NetworkInterface &other) const
{
    if (node_ != other.node_ || queue_ != other.queue_ ||
        streaming_ != other.streaming_ || trackers_ != other.trackers_ ||
        class_rr_ != other.class_rr_ || pending_ != other.pending_ ||
        delivered_ != other.delivered_ || ack_count_ != other.ack_count_ ||
        reassembly_.size() != other.reassembly_.size())
        return false;
    // A stream start rewrites all three registers.
    if (streaming_ &&
        (!(current_ == other.current_) || next_seq_ != other.next_seq_ ||
         stream_vc_ != other.stream_vc_))
        return false;
    for (std::size_t v = 0; v < reassembly_.size(); ++v) {
        const Reassembly &a = reassembly_[v];
        const Reassembly &b = other.reassembly_[v];
        if (a.open != b.open || a.packet != b.packet ||
            a.nextSeq != b.nextSeq || a.staged != b.staged)
            return false;
        // Only retransmission reads (and clears) the dirty bit.
        if (retransmit_.enabled && a.dirty != b.dirty)
            return false;
    }
    return true;
}

void
NetworkInterface::evaluate(Cycle cycle, LinkIo &io)
{
    wires_ = NiWires{};
    wires_.cycle = cycle;
    wires_.node = node_;

    // Credits returned by the router's local input port.
    for (unsigned v = 0; v < params_.numVcs; ++v) {
        if (getBit(io.creditIn, v)) {
            VcTracker &tracker = trackers_[v];
            if (tracker.credits < params_.bufferDepth)
                ++tracker.credits;
        }
    }

    doEject(cycle, io);
    doRetryTimeouts(cycle);
    doInject(cycle, io);
}

void
NetworkInterface::applyCreditIncrements(std::uint32_t credit_in)
{
    for (unsigned v = 0; v < params_.numVcs; ++v) {
        if (getBit(credit_in, v)) {
            VcTracker &tracker = trackers_[v];
            if (tracker.credits < params_.bufferDepth)
                ++tracker.credits;
        }
    }
}

std::vector<std::pair<NodeId, unsigned>>
NetworkInterface::pendingFlitsByDst(bool include_queued) const
{
    std::vector<std::pair<NodeId, unsigned>> pending;
    if (streaming_) {
        pending.emplace_back(
            current_.dst,
            static_cast<unsigned>(current_.length - next_seq_));
    }
    if (include_queued) {
        // The streaming packet (if any) is still queue_.front().
        for (std::size_t i = streaming_ ? 1 : 0; i < queue_.size(); ++i)
            pending.emplace_back(queue_[i].dst, queue_[i].length);
    }
    return pending;
}

void
NetworkInterface::doInject(Cycle cycle, LinkIo &io)
{
    if (!streaming_ && !queue_.empty()) {
        const Packet &pkt = queue_.front();
        const unsigned cls =
            pkt.msgClass < params_.classes.size() ? pkt.msgClass : 0;
        // Pick a free VC of the packet's class; atomic VCs additionally
        // require the downstream buffer to be fully drained.
        const RouterParams::VcRange vcs = params_.classVcRange(cls);
        const unsigned count = vcs.hi - vcs.lo;
        const unsigned start = class_rr_[cls] % count;
        for (unsigned i = 0; i < count; ++i) {
            const unsigned v = vcs.lo + (start + i) % count;
            const VcTracker &tracker = trackers_[v];
            const bool drained =
                tracker.credits == params_.bufferDepth;
            if (tracker.free &&
                (params_.atomicBuffers ? drained
                                       : tracker.credits > 0)) {
                streaming_ = true;
                current_ = pkt;
                next_seq_ = 0;
                stream_vc_ = v;
                trackers_[v].free = false;
                class_rr_[cls] =
                    static_cast<std::uint8_t>((start + i + 1) % count);
                break;
            }
        }
    }

    if (!streaming_)
        return;

    VcTracker &tracker = trackers_[stream_vc_];
    if (tracker.credits == 0)
        return; // downstream buffer full; retry next cycle

    Flit flit = current_.makeFlit(next_seq_);
    flit.vc = static_cast<std::uint8_t>(stream_vc_);
    io.outValid = true;
    io.outFlit = flit;
    --tracker.credits;
    ++flits_injected_;
    wires_.injectValid = true;
    wires_.injectFlit = flit;

    ++next_seq_;
    if (next_seq_ == current_.length) {
        streaming_ = false;
        tracker.free = true; // reallocation still gated by credits
        queue_.pop_front();
        ++packets_injected_;
        if (retransmit_.enabled)
            onTailInjected(cycle);
    }
}

Cycle
NetworkInterface::retryDelay(unsigned attempts) const
{
    const unsigned shift = attempts < 16 ? attempts : 16;
    std::uint64_t mult = 1ULL << shift;
    if (mult > retransmit_.backoffCap)
        mult = retransmit_.backoffCap;
    return static_cast<Cycle>(
        static_cast<std::uint64_t>(retransmit_.ackTimeout) * mult);
}

NetworkInterface::PendingAck *
NetworkInterface::findPending(PacketId id)
{
    for (auto &entry : pending_)
        if (entry.packet.id == id)
            return &entry;
    return nullptr;
}

void
NetworkInterface::erasePending(PacketId id)
{
    for (auto it = pending_.begin(); it != pending_.end(); ++it) {
        if (it->packet.id == id) {
            pending_.erase(it);
            return;
        }
    }
}

void
NetworkInterface::onTailInjected(Cycle cycle)
{
    if (current_.ackFor != kInvalidPacket)
        return; // ACKs are fire-and-forget; a lost ACK causes a
                // retransmit, which the destination suppresses.
    PendingAck *entry = findPending(current_.id);
    if (entry == nullptr) {
        PendingAck fresh;
        fresh.packet = current_;
        fresh.deadline = cycle + retryDelay(0);
        pending_.push_back(fresh);
        return;
    }
    if (entry->acked) {
        // Acknowledged while the retransmission was still streaming.
        erasePending(current_.id);
        return;
    }
    entry->queued = false;
    entry->deadline = cycle + retryDelay(entry->attempts);
}

void
NetworkInterface::doRetryTimeouts(Cycle cycle)
{
    if (!retransmit_.enabled || pending_.empty())
        return;
    for (std::size_t i = 0; i < pending_.size();) {
        PendingAck &entry = pending_[i];
        if (entry.queued || entry.acked || cycle < entry.deadline) {
            ++i;
            continue;
        }
        if (entry.attempts >= retransmit_.maxRetries) {
            ++packets_abandoned_;
            pending_.erase(pending_.begin() +
                           static_cast<std::ptrdiff_t>(i));
            continue;
        }
        ++entry.attempts;
        ++retransmits_;
        entry.queued = true;
        queue_.push_back(entry.packet);
        ++i;
    }
}

void
NetworkInterface::handleAck(PacketId id)
{
    for (std::size_t i = 0; i < pending_.size(); ++i) {
        PendingAck &entry = pending_[i];
        if (entry.packet.id != id)
            continue;
        if (streaming_ && current_.id == id) {
            // Mid-retransmit: never abort a worm in flight — let the
            // stream finish (the destination suppresses the duplicate)
            // and drop the entry when the tail goes out.
            entry.acked = true;
            return;
        }
        if (entry.queued) {
            // A retry copy is still waiting in the queue; cancel it.
            for (auto it = queue_.begin(); it != queue_.end(); ++it) {
                if (it->id == id) {
                    queue_.erase(it);
                    break;
                }
            }
        }
        pending_.erase(pending_.begin() + static_cast<std::ptrdiff_t>(i));
        return;
    }
    // No entry: stale ACK for an already-closed packet; ignore.
}

void
NetworkInterface::sendAck(const Flit &tail, Cycle cycle)
{
    if (tail.src < 0 || tail.src >= num_nodes_ || tail.src == node_)
        return; // corrupted source field; nothing sensible to ACK
    Packet ack;
    ack.id = kAckPacketBit |
             (static_cast<PacketId>(node_) << 40) | (ack_count_++);
    ack.src = node_;
    ack.dst = tail.src;
    ack.msgClass = 0;
    ack.length = params_.classLength(0);
    ack.created = cycle;
    ack.ackFor = tail.packet;
    queue_.push_back(ack);
    ++acks_sent_;
}

void
NetworkInterface::restoreCredits(unsigned vc, unsigned count)
{
    if (vc >= params_.numVcs)
        return;
    VcTracker &tracker = trackers_[vc];
    for (unsigned i = 0; i < count && tracker.credits < params_.bufferDepth;
         ++i) {
        ++tracker.credits;
    }
}

void
NetworkInterface::purgePackets(const std::unordered_set<PacketId> &suspects)
{
    if (streaming_ && suspects.count(current_.id) != 0) {
        // Abort the outgoing worm (its already-sent flits have been
        // purged from the network) and release the stream VC.
        streaming_ = false;
        trackers_[stream_vc_].free = true;
        if (!queue_.empty())
            queue_.pop_front(); // current_ is a copy of the front
        if (retransmit_.enabled && current_.ackFor == kInvalidPacket) {
            PendingAck *entry = findPending(current_.id);
            if (entry == nullptr) {
                PendingAck fresh;
                fresh.packet = current_;
                fresh.queued = true;
                pending_.push_back(fresh);
                queue_.push_back(current_);
                ++retransmits_;
            } else if (!entry->acked) {
                entry->queued = true;
                queue_.push_back(current_);
                ++retransmits_;
            } else {
                erasePending(current_.id);
            }
        } else if (current_.ackFor != kInvalidPacket) {
            queue_.push_back(current_); // resend the aborted ACK
        }
    }
    for (auto &asm_state : reassembly_) {
        if (asm_state.open && suspects.count(asm_state.packet) != 0) {
            asm_state.open = false;
            asm_state.packet = kInvalidPacket;
            asm_state.nextSeq = 0;
            asm_state.dirty = false;
            asm_state.staged.clear();
        }
    }
}

void
NetworkInterface::doEject(Cycle cycle, LinkIo &io)
{
    if (!io.inValid)
        return;

    const Flit &flit = io.inFlit;
    ++flits_ejected_;
    // Recovery mode stages flits per packet and only commits a clean,
    // non-duplicate delivery to the log (see Reassembly::staged); the
    // plain path logs every flit immediately, as the comparator's
    // fault-evidence stream.
    if (!retransmit_.enabled)
        log_.push_back({cycle, node_, flit});
    wires_.ejectValid = true;
    wires_.ejectFlit = flit;

    // Return a credit for the router's local-output path. The credit
    // is indexed by the VC the flit arrived on.
    const unsigned v = flit.vc & lowMask(bitsFor(params_.numVcs));
    if (v < params_.numVcs)
        io.creditOut = static_cast<std::uint32_t>(
            setBit(io.creditOut, v));

    // Acknowledgement packets are consumed here: never logged, never
    // reassembled, never re-ACKed.
    if (retransmit_.enabled && flit.ackFor != kInvalidPacket) {
        if (flit.dst != node_)
            wires_.anomalies |= kNiWrongDestination;
        else if (isHead(flit.type))
            handleAck(flit.ackFor);
        return;
    }

    // ---- End-to-end (network-level) invariance checks ----
    Reassembly &asm_state =
        reassembly_[v < params_.numVcs ? v : 0];

    if (isHead(flit.type)) {
        if (flit.dst != node_)
            wires_.anomalies |= kNiWrongDestination;
        if (asm_state.open)
            wires_.anomalies |= kNiUnexpectedFlit; // previous unfinished
        asm_state.open = true;
        asm_state.packet = flit.packet;
        asm_state.nextSeq = 1;
        if (flit.seq != 0)
            wires_.anomalies |= kNiOrderViolation;
        if (retransmit_.enabled) {
            asm_state.staged.clear();
            asm_state.dirty = flit.dst != node_ || flit.seq != 0;
            asm_state.staged.push_back({cycle, node_, flit});
        }
    } else {
        if (!asm_state.open) {
            wires_.anomalies |= kNiUnexpectedFlit;
        } else if (flit.packet != asm_state.packet ||
                   flit.seq != asm_state.nextSeq) {
            wires_.anomalies |= kNiOrderViolation;
            asm_state.nextSeq =
                static_cast<std::uint16_t>(flit.seq + 1);
            asm_state.dirty = true;
        } else {
            ++asm_state.nextSeq;
        }
        if (retransmit_.enabled && asm_state.open)
            asm_state.staged.push_back({cycle, node_, flit});
    }

    if (isTail(flit.type)) {
        const unsigned expected =
            flit.msgClass < params_.classes.size()
                ? params_.classLength(flit.msgClass) : 0;
        const bool count_bad =
            expected != 0 &&
            static_cast<unsigned>(flit.seq) + 1 != expected;
        if (count_bad)
            wires_.anomalies |= kNiCountViolation;

        if (!retransmit_.enabled) {
            if (asm_state.open && flit.packet == asm_state.packet &&
                wires_.anomalies == 0) {
                ++packets_ejected_;
                latency_sum_ +=
                    static_cast<std::uint64_t>(cycle - flit.injected);
            }
        } else if (asm_state.open && flit.packet == asm_state.packet) {
            if (count_bad)
                asm_state.dirty = true;
            if (!asm_state.dirty) {
                if (delivered_.count(flit.packet) != 0) {
                    // Retransmitted copy of a packet already
                    // delivered: suppress it, but re-ACK (the first
                    // ACK may have been lost).
                    ++duplicates_suppressed_;
                    sendAck(flit, cycle);
                } else {
                    delivered_.insert(flit.packet);
                    for (const auto &rec : asm_state.staged)
                        log_.push_back(rec);
                    ++packets_ejected_;
                    latency_sum_ += static_cast<std::uint64_t>(
                        cycle - flit.injected);
                    sendAck(flit, cycle);
                }
            }
            // A dirty delivery leaves no trace: the sender's timeout
            // will retransmit it.
        }
        asm_state.open = false;
        asm_state.packet = kInvalidPacket;
        asm_state.nextSeq = 0;
        if (retransmit_.enabled) {
            asm_state.dirty = false;
            asm_state.staged.clear();
        }
    }
}

} // namespace nocalert::noc
