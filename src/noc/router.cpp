#include "noc/router.hpp"

#include "noc/crossbar.hpp"
#include "util/bits.hpp"
#include "util/log.hpp"

namespace nocalert::noc {

/**
 * Deterministic stand-in for the garbage destination bits the RC unit
 * would latch when (illegally) examining a non-header flit or an empty
 * buffer slot. Real hardware reads whatever happens to be on those
 * wires; we derive a repeatable value so golden/faulty runs stay
 * comparable. Static member so the bitmask fast path (router_fast.cpp)
 * produces identical routes.
 */
NodeId
Router::garbageDst(const Flit &flit, NodeId router, int num_nodes)
{
    std::uint64_t h = flit.packet * 0x9E3779B97F4A7C15ULL +
                      static_cast<std::uint64_t>(flit.seq) * 31 +
                      static_cast<std::uint64_t>(router) * 7 + 13;
    return static_cast<NodeId>(h % static_cast<std::uint64_t>(num_nodes));
}

Router::Router(const NetworkConfig &config, NodeId node)
    : node_(node), params_(config.router)
{
    params_.validate();
    const unsigned num_vcs = params_.numVcs;

    fifos_.reserve(kNumPorts * num_vcs);
    for (unsigned i = 0; i < kNumPorts * num_vcs; ++i)
        fifos_.emplace_back(params_.bufferDepth);
    records_.resize(kNumPorts * num_vcs);
    outVcs_.resize(kNumPorts * num_vcs);
    for (auto &ov : outVcs_)
        ov.credits = static_cast<std::uint8_t>(params_.bufferDepth);

    for (int p = 0; p < kNumPorts; ++p) {
        sa1Arb_[p] = RoundRobinArbiter(num_vcs);
        sa2Arb_[p] = RoundRobinArbiter(kNumPorts);
        rcArb_[p] = RoundRobinArbiter(num_vcs);
    }
    va2Arb_.assign(kNumPorts * num_vcs,
                   RoundRobinArbiter(kNumPorts * kMaxVcs));
    va1Ptr_.assign(kNumPorts * num_vcs, 0);
}

VcRecord &
Router::vcRecord(int port, unsigned vc)
{
    NOCALERT_ASSERT(port >= 0 && port < kNumPorts && vc < params_.numVcs,
                    "bad vc index ", port, "/", vc);
    return records_[vcIndex(port, vc)];
}

const VcRecord &
Router::vcRecord(int port, unsigned vc) const
{
    return records_[vcIndex(port, vc)];
}

VcFifo &
Router::fifo(int port, unsigned vc)
{
    return fifos_[vcIndex(port, vc)];
}

const VcFifo &
Router::fifo(int port, unsigned vc) const
{
    return fifos_[vcIndex(port, vc)];
}

OutVcState &
Router::outVcState(int port, unsigned vc)
{
    return outVcs_[vcIndex(port, vc)];
}

const OutVcState &
Router::outVcState(int port, unsigned vc) const
{
    return outVcs_[vcIndex(port, vc)];
}

RoundRobinArbiter &
Router::va2Arbiter(int port, unsigned vc)
{
    return va2Arb_[vcIndex(port, vc)];
}

std::uint8_t &
Router::va1Pointer(int port, unsigned vc)
{
    return va1Ptr_[vcIndex(port, vc)];
}

bool
Router::sameState(const Router &other, bool stale_slots) const
{
    if (node_ != other.node_ || records_ != other.records_ ||
        outVcs_ != other.outVcs_ || sched_ != other.sched_ ||
        sa1Arb_ != other.sa1Arb_ || sa2Arb_ != other.sa2Arb_ ||
        rcArb_ != other.rcArb_ || va2Arb_ != other.va2Arb_ ||
        va1Ptr_ != other.va1Ptr_ || fifos_.size() != other.fifos_.size())
        return false;
    for (std::size_t i = 0; i < fifos_.size(); ++i)
        if (stale_slots ? !fifos_[i].sameSlots(other.fifos_[i])
                        : !fifos_[i].sameContents(other.fifos_[i]))
            return false;
    return true;
}

bool
Router::idle() const
{
    for (const auto &fifo : fifos_)
        if (!fifo.empty())
            return false;
    for (const auto &entry : sched_)
        if (entry.valid)
            return false;
    return true;
}

bool
Router::quiescent() const
{
    // VC records first: a RouteWait record requests RC service and a
    // VcAllocWait record bids in VA even with an empty buffer, so
    // idle() alone is not a no-op certificate.
    for (const auto &rec : records_)
        if (rec.state != VcState::Idle)
            return false;
    // Out-VC credit deficits and allocations need no evaluation to
    // persist: they only change on credit arrival (a link wake-up) or
    // on local VA/ST activity, which the records above rule out.
    return idle();
}


void
Router::tap(TapPoint point, const TapHook *hook)
{
    if (hook && *hook)
        (*hook)(*this, point, wires_);
}

void
Router::takeSnapshots()
{
    const unsigned num_vcs = params_.numVcs;
    for (int p = 0; p < kNumPorts; ++p) {
        for (unsigned v = 0; v < num_vcs; ++v) {
            const VcRecord &rec = records_[vcIndex(p, v)];
            const VcFifo &fifo = fifos_[vcIndex(p, v)];
            VcSnapshot &snap = wires_.in[p].vc[v];
            snap.state = rec.state;
            snap.outPort = rec.outPort;
            snap.outVc = rec.outVc;
            snap.occupancy = fifo.size();
            snap.headValid = !fifo.empty();
            snap.headType = fifo.peek(0).type;
            snap.flitsArrived = rec.flitsArrived;
            snap.expectedLength = rec.expectedLength;
            snap.lastWrittenType = rec.lastWrittenType;
            snap.tailArrived = rec.tailArrived;

            const OutVcState &ov = outVcs_[vcIndex(p, v)];
            OutVcSnapshot &osnap = wires_.out[p].outVc[v];
            osnap.free = ov.free;
            osnap.credits = ov.credits;
        }
    }
}

void
Router::applyCredits(const Context & /*ctx*/)
{
    const unsigned num_vcs = params_.numVcs;
    const auto depth = static_cast<std::uint8_t>(params_.bufferDepth);
    for (int o = 0; o < kNumPorts; ++o) {
        std::uint32_t mask = wires_.out[o].creditRecv;
        for (unsigned v = 0; v < num_vcs; ++v) {
            if (getBit(mask, v)) {
                OutVcState &ov = outVcs_[vcIndex(o, v)];
                if (ov.credits < depth)
                    ++ov.credits;
            }
        }
    }
}

void
Router::applyCreditIncrements(
    const std::array<std::uint32_t, kNumPorts> &credit_in)
{
    // Mirror of applyCredits(), fed directly from the link wires
    // instead of the evaluated wire record: the capped per-VC
    // increment is the entire architectural effect of a credit
    // arriving at a quiescent router.
    const unsigned num_vcs = params_.numVcs;
    const auto depth = static_cast<std::uint8_t>(params_.bufferDepth);
    for (int o = 0; o < kNumPorts; ++o) {
        const std::uint32_t mask = credit_in[o];
        if (mask == 0)
            continue;
        for (unsigned v = 0; v < num_vcs; ++v) {
            if (getBit(mask, v)) {
                OutVcState &ov = outVcs_[vcIndex(o, v)];
                if (ov.credits < depth)
                    ++ov.credits;
            }
        }
    }
}

void
Router::addOutputCredits(int port, unsigned vc, unsigned count)
{
    if (port < 0 || port >= kNumPorts || vc >= params_.numVcs)
        return;
    const auto depth = static_cast<std::uint8_t>(params_.bufferDepth);
    OutVcState &ov = outVcs_[vcIndex(port, vc)];
    for (unsigned i = 0; i < count && ov.credits < depth; ++i)
        ++ov.credits;
}

std::uint64_t
Router::purgePackets(
    const std::unordered_set<PacketId> &suspects,
    const std::function<void(int port, unsigned vc, unsigned removed)>
        &removed_upstream)
{
    const unsigned num_vcs = params_.numVcs;
    const auto depth = static_cast<std::uint8_t>(params_.bufferDepth);
    std::uint64_t removed_total = 0;

    for (int p = 0; p < kNumPorts; ++p) {
        for (unsigned v = 0; v < num_vcs; ++v) {
            VcFifo &fifo = fifos_[vcIndex(p, v)];
            VcRecord &rec = records_[vcIndex(p, v)];

            unsigned removed = 0;
            for (PacketId id : suspects)
                removed += fifo.removePacket(id);
            if (removed > 0) {
                removed_total += removed;
                if (removed_upstream)
                    removed_upstream(p, v, removed);
            }

            if (rec.state == VcState::Idle ||
                suspects.count(rec.packet) == 0) {
                continue;
            }

            // A pending crossbar read for this VC holds credits its
            // SA2 grant reserved; hand them back and cancel the read.
            XbarSchedule &entry = sched_[p];
            if (entry.valid && entry.vc % num_vcs == v) {
                for (int o = 0; o < kNumPorts; ++o) {
                    if (!getBit(entry.rowMask, o))
                        continue;
                    if (entry.outVcWire < num_vcs) {
                        OutVcState &ov =
                            outVcs_[vcIndex(o, entry.outVcWire)];
                        if (ov.credits < depth)
                            ++ov.credits;
                    }
                }
                entry = XbarSchedule{};
            }

            // Release the output VC the purged packet was granted.
            if (rec.state == VcState::Active && rec.outPort >= 0 &&
                rec.outPort < kNumPorts && rec.outVc >= 0 &&
                rec.outVc < static_cast<int>(num_vcs)) {
                OutVcState &ov = outVcs_[vcIndex(
                    rec.outPort, static_cast<unsigned>(rec.outVc))];
                if (!ov.free && ov.ownerPort == p &&
                    ov.ownerVc == static_cast<int>(v)) {
                    ov.free = true;
                    ov.ownerPort = -1;
                    ov.ownerVc = -1;
                }
            }

            if (fifo.empty()) {
                rec.reset();
            } else {
                // Survivors of a (non-atomic) mixed buffer: restart
                // the VC state machine on the new head packet.
                const Flit &head = fifo.peek(0);
                rec.reset();
                rec.state = VcState::RouteWait;
                rec.msgClass = head.msgClass;
                rec.packet = head.packet;
                rec.flitsArrived = fifo.size();
                rec.expectedLength =
                    head.msgClass < params_.classes.size()
                        ? params_.classLength(head.msgClass) : 0;
                rec.lastWrittenType = fifo.peek(fifo.size() - 1).type;
                rec.tailArrived = isTail(rec.lastWrittenType);
            }
        }
    }
    return removed_total;
}

void
Router::doSwitchTraversal(const Context & /*ctx*/, LinkIo & /*io*/)
{
    const unsigned num_vcs = params_.numVcs;

    std::array<std::optional<Flit>, kNumPorts> xbar_in;
    std::array<std::uint32_t, kNumPorts> rows = {};

    for (int p = 0; p < kNumPorts; ++p) {
        XbarSchedule &entry = sched_[p];
        if (!entry.valid)
            continue;

        const unsigned v = entry.vc % num_vcs;
        VcFifo &fifo = fifos_[vcIndex(p, v)];
        VcRecord &rec = records_[vcIndex(p, v)];

        wires_.in[p].readEnable =
            static_cast<std::uint32_t>(
                setBit(wires_.in[p].readEnable, v));

        const bool was_empty = fifo.empty();
        Flit flit = fifo.pop();
        if (was_empty)
            wires_.in[p].readEmpty = static_cast<std::uint32_t>(
                setBit(wires_.in[p].readEmpty, v));

        // The credit return is driven by the read-enable control
        // signal, so a (faulty) stale read still emits a credit —
        // exactly the over-count a real router would produce.
        wires_.in[p].creditSend = static_cast<std::uint32_t>(
            setBit(wires_.in[p].creditSend, v));

        flit.vc = entry.outVcWire;
        xbar_in[p] = flit;
        rows[p] = entry.rowMask &
                  static_cast<std::uint32_t>(lowMask(kNumPorts));

        if (!was_empty && isTail(flit.type)) {
            // The wormhole ends: release the output VC this packet
            // held and move the input VC to its next packet (if any).
            if (rec.outPort >= 0 && rec.outPort < kNumPorts &&
                rec.outVc >= 0 &&
                rec.outVc < static_cast<int>(num_vcs)) {
                OutVcState &ov = outVcs_[vcIndex(rec.outPort,
                                                 static_cast<unsigned>(
                                                     rec.outVc))];
                ov.free = true;
                ov.ownerPort = -1;
                ov.ownerVc = -1;
            }
            if (fifo.empty()) {
                rec.reset();
            } else {
                rec.state = VcState::RouteWait;
                rec.outPort = kInvalidPort;
                rec.outVc = -1;
                rec.packet = fifo.peek(0).packet;
            }
        }

        entry = XbarSchedule{};
    }

    const Crossbar::Result result = Crossbar::transfer(xbar_in, rows);
    wires_.xbarRow = rows;
    wires_.xbarCol = result.col;
    wires_.xbarFlitsIn = result.flitsIn;
    wires_.xbarFlitsOut = result.flitsOut;

    for (int o = 0; o < kNumPorts; ++o) {
        if (result.output[o].has_value()) {
            wires_.out[o].outValid = true;
            wires_.out[o].outFlit = *result.output[o];
            if (o == portIndex(Port::Local)) {
                wires_.ejectValid = true;
                wires_.ejectFlit = *result.output[o];
            }
        }
    }
}

void
Router::doSwitchArbitration(const Context &ctx, const TapHook *hook)
{
    const unsigned num_vcs = params_.numVcs;

    // ---- SA1: per input port, pick one competing VC ----
    for (int p = 0; p < kNumPorts; ++p) {
        std::uint64_t requests = 0;
        for (unsigned v = 0; v < num_vcs; ++v) {
            const VcRecord &rec = records_[vcIndex(p, v)];
            if (rec.state != VcState::Active)
                continue;
            const VcFifo &fifo = fifos_[vcIndex(p, v)];
            // A flit already committed to the ST pipeline register is
            // no longer available for arbitration: "pending reads" are
            // derived from the schedule register itself, exactly as
            // the hardware's availability logic would.
            const XbarSchedule &entry = sched_[p];
            const unsigned pending =
                entry.valid && entry.vc % num_vcs == v ? 1 : 0;
            if (fifo.size() <= pending)
                continue; // no unscheduled flit available
            if (rec.outPort < 0 || rec.outPort >= kNumPorts ||
                rec.outVc < 0 ||
                rec.outVc >= static_cast<int>(num_vcs)) {
                continue; // corrupted route state: cannot request
            }
            const OutVcState &ov =
                outVcs_[vcIndex(rec.outPort,
                                static_cast<unsigned>(rec.outVc))];
            if (ov.credits == 0)
                continue; // downstream buffer full
            requests = setBit(requests, v);
        }
        wires_.in[p].sa1Req = requests;
    }
    tap(TapPoint::AfterSa1Req, hook);
    for (int p = 0; p < kNumPorts; ++p) {
        wires_.in[p].sa1Grant = RoundRobinArbiter::compute(
            wires_.in[p].sa1Req, sa1Arb_[p].pointer(), num_vcs);
    }
    tap(TapPoint::AfterSa1, hook);
    for (int p = 0; p < kNumPorts; ++p)
        sa1Arb_[p].commit(wires_.in[p].sa1Grant & lowMask(num_vcs));

    // ---- SA2: per output port, pick one input port ----
    // The SA1 winner multiplexer: with a non-one-hot grant (possible
    // only under faults) the lowest selected VC wins the mux; with a
    // zero grant the mux output is undefined and reads as VC 0.
    std::array<int, kNumPorts> sa1_winner;
    for (int p = 0; p < kNumPorts; ++p) {
        std::uint64_t grant = wires_.in[p].sa1Grant & lowMask(num_vcs);
        sa1_winner[p] = grant ? lowestSetBit(grant) : -1;
    }

    for (int o = 0; o < kNumPorts; ++o) {
        std::uint64_t requests = 0;
        for (int p = 0; p < kNumPorts; ++p) {
            const int v = sa1_winner[p];
            if (v < 0)
                continue;
            const VcRecord &rec =
                records_[vcIndex(p, static_cast<unsigned>(v))];
            if (rec.outPort == o)
                requests = setBit(requests, static_cast<unsigned>(p));
        }
        wires_.out[o].sa2Req = requests;
    }
    tap(TapPoint::AfterSa2Req, hook);
    for (int o = 0; o < kNumPorts; ++o) {
        wires_.out[o].sa2Grant = RoundRobinArbiter::compute(
            wires_.out[o].sa2Req, sa2Arb_[o].pointer(), kNumPorts);
    }
    tap(TapPoint::AfterSa2, hook);

    // ---- Commit: pipeline the winners into the ST schedule ----
    std::array<bool, kNumPorts> port_scheduled = {};
    for (int o = 0; o < kNumPorts; ++o) {
        std::uint64_t grant = wires_.out[o].sa2Grant & lowMask(kNumPorts);
        sa2Arb_[o].commit(grant);
        while (grant != 0) {
            const int p = lowestSetBit(grant);
            grant = clearBit(grant, static_cast<unsigned>(p));

            // A grant without an SA1 winner (fault) steers the winner
            // mux's undefined output: VC 0's flit gets forwarded.
            const unsigned v = sa1_winner[p] >= 0
                ? static_cast<unsigned>(sa1_winner[p]) : 0u;
            VcRecord &rec = records_[vcIndex(p, v)];

            XbarSchedule &entry = sched_[p];
            entry.valid = true;
            entry.vc = static_cast<std::uint8_t>(v);
            entry.rowMask = static_cast<std::uint32_t>(
                setBit(entry.rowMask, static_cast<unsigned>(o)));
            entry.outVcWire = vcWireValue(rec.outVc);
            port_scheduled[p] = true;

            // Credit reservation at the granting output port.
            const std::uint8_t vcw = entry.outVcWire;
            if (vcw < num_vcs) {
                OutVcState &ov = outVcs_[vcIndex(o, vcw)];
                if (ov.credits > 0)
                    --ov.credits;
            }
        }
    }
    (void)ctx;
}

void
Router::doVcAllocation(const Context &ctx, const TapHook *hook)
{
    const unsigned num_vcs = params_.numVcs;
    const auto depth = static_cast<std::uint8_t>(params_.bufferDepth);

    // Snapshot the allocation table as the VA module sees it (after
    // this cycle's credit updates and releases): invariance 7 checks
    // the allocator against its actual inputs.
    for (int o = 0; o < kNumPorts; ++o) {
        for (unsigned w = 0; w < num_vcs; ++w) {
            const OutVcState &ov = outVcs_[vcIndex(o, w)];
            wires_.out[o].outVc[w].free = ov.free;
            wires_.out[o].outVc[w].credits = ov.credits;
        }
    }

    // ---- VA1: each waiting input VC selects a candidate output VC ----
    for (int p = 0; p < kNumPorts; ++p) {
        for (unsigned v = 0; v < num_vcs; ++v) {
            const VcRecord &rec = records_[vcIndex(p, v)];
            if (rec.state != VcState::VcAllocWait)
                continue;
            const int o = rec.outPort;
            if (o < 0 || o >= kNumPorts)
                continue; // corrupted route register: no candidate
            const unsigned cls =
                rec.msgClass < params_.classes.size() ? rec.msgClass : 0;

            const RouterParams::VcRange range = params_.classVcRange(cls);
            std::uint64_t candidates = 0;
            for (unsigned w = range.lo; w < range.hi; ++w) {
                const OutVcState &ov = outVcs_[vcIndex(o, w)];
                if (!ov.free)
                    continue;
                if (params_.atomicBuffers
                        ? ov.credits != depth
                        : ov.credits == 0) {
                    continue;
                }
                candidates = setBit(candidates, w);
            }
            const std::uint64_t sel = RoundRobinArbiter::compute(
                candidates, va1Ptr_[vcIndex(p, v)], num_vcs);
            if (sel != 0)
                wires_.in[p].vc[v].va1CandidateVc = lowestSetBit(sel);
        }
    }
    tap(TapPoint::AfterVa1, hook);

    // ---- Build VA2 requests from the (possibly corrupted) candidates ----
    for (int p = 0; p < kNumPorts; ++p) {
        for (unsigned v = 0; v < num_vcs; ++v) {
            const int cand = wires_.in[p].vc[v].va1CandidateVc;
            if (cand < 0 || cand >= static_cast<int>(kMaxVcs))
                continue;
            const VcRecord &rec = records_[vcIndex(p, v)];
            const int o = rec.outPort;
            if (o < 0 || o >= kNumPorts)
                continue;
            wires_.out[o].va2Req[static_cast<unsigned>(cand)] = setBit(
                wires_.out[o].va2Req[static_cast<unsigned>(cand)],
                vaClient(p, v));
        }
    }

    tap(TapPoint::AfterVa2Req, hook);

    // ---- VA2: per output VC, arbitrate among requesting input VCs ----
    for (int o = 0; o < kNumPorts; ++o) {
        for (unsigned w = 0; w < num_vcs; ++w) {
            const std::uint64_t requests = wires_.out[o].va2Req[w];
            wires_.out[o].va2Grant[w] = RoundRobinArbiter::compute(
                requests, va2Arb_[vcIndex(o, w)].pointer(),
                kNumPorts * kMaxVcs);
        }
    }
    tap(TapPoint::AfterVa2, hook);

    // ---- Commit allocations ----
    for (int o = 0; o < kNumPorts; ++o) {
        for (unsigned w = 0; w < num_vcs; ++w) {
            std::uint64_t grant = wires_.out[o].va2Grant[w] &
                                  lowMask(kNumPorts * kMaxVcs);
            va2Arb_[vcIndex(o, w)].commit(grant);
            while (grant != 0) {
                const int client = lowestSetBit(grant);
                grant = clearBit(grant, static_cast<unsigned>(client));
                const int p = client / static_cast<int>(kMaxVcs);
                const unsigned v =
                    static_cast<unsigned>(client) % kMaxVcs;
                if (p >= kNumPorts || v >= num_vcs)
                    continue;
                VcRecord &rec = records_[vcIndex(p, v)];
                rec.outVc = static_cast<int>(w);
                rec.state = VcState::Active;
                va1Ptr_[vcIndex(p, v)] =
                    static_cast<std::uint8_t>((w + 1) % num_vcs);

                OutVcState &ov = outVcs_[vcIndex(o, w)];
                ov.free = false;
                ov.ownerPort = p;
                ov.ownerVc = static_cast<int>(v);
            }
        }
    }
    (void)ctx;
}

void
Router::doBufferWriteAndRc(const Context &ctx, const TapHook *hook)
{
    const unsigned num_vcs = params_.numVcs;

    // ---- BW: commit the (possibly corrupted) write enables ----
    for (int p = 0; p < kNumPorts; ++p) {
        InputPortWires &ipw = wires_.in[p];
        std::uint32_t enables =
            ipw.writeEnable & static_cast<std::uint32_t>(lowMask(num_vcs));
        while (enables != 0) {
            const unsigned v =
                static_cast<unsigned>(lowestSetBit(enables));
            enables = static_cast<std::uint32_t>(clearBit(enables, v));

            VcRecord &rec = records_[vcIndex(p, v)];
            VcFifo &fifo = fifos_[vcIndex(p, v)];
            const Flit &flit = ipw.inFlit;

            if (!fifo.push(flit)) {
                ipw.writeDropped = static_cast<std::uint32_t>(
                    setBit(ipw.writeDropped, v));
                continue;
            }

            rec.lastWrittenType = flit.type;
            if (isHead(flit.type)) {
                rec.flitsArrived = 1;
                rec.tailArrived = isTail(flit.type);
                rec.expectedLength =
                    flit.msgClass < params_.classes.size()
                        ? params_.classLength(flit.msgClass) : 0;
                if (rec.state == VcState::Idle) {
                    rec.state = VcState::RouteWait;
                    rec.outPort = kInvalidPort;
                    rec.outVc = -1;
                    rec.msgClass = flit.msgClass;
                    rec.packet = flit.packet;
                }
                // A header landing in a non-idle VC is an atomicity /
                // mixing anomaly: the flits pile into the buffer and
                // the checkers flag it; state is left untouched, as
                // the VC state machine only reacts to legal starts.
            } else {
                ++rec.flitsArrived;
                if (isTail(flit.type))
                    rec.tailArrived = true;
            }
        }
    }

    // ---- RC: serve one route-waiting VC per input port ----
    for (int p = 0; p < kNumPorts; ++p) {
        std::uint64_t waiting = 0;
        for (unsigned v = 0; v < num_vcs; ++v)
            if (records_[vcIndex(p, v)].state == VcState::RouteWait)
                waiting = setBit(waiting, v);
        wires_.in[p].rcWaiting = static_cast<std::uint32_t>(waiting);
    }
    tap(TapPoint::AfterRcReq, hook);
    for (int p = 0; p < kNumPorts; ++p) {
        const std::uint64_t waiting =
            wires_.in[p].rcWaiting & lowMask(num_vcs);
        if (waiting == 0)
            continue;

        const std::uint64_t grant = RoundRobinArbiter::compute(
            waiting, rcArb_[p].pointer(), num_vcs);
        const unsigned v = static_cast<unsigned>(lowestSetBit(grant));
        const VcFifo &fifo = fifos_[vcIndex(p, v)];

        InputPortWires &ipw = wires_.in[p];
        ipw.rcVc = static_cast<int>(v);
        ipw.rcDone = static_cast<std::uint32_t>(grant);
        ipw.rcHeadValid = !fifo.empty();
        ipw.rcHeadType = fifo.peek(0).type;
        ipw.rcFlit = fifo.peek(0);

        Flit routed = ipw.rcFlit;
        if (fifo.empty() || !isHead(routed.type)) {
            // RC examining garbage: the destination wires carry stale
            // bits (deterministically modelled).
            routed.dst =
                garbageDst(routed, node_, ctx.config->numNodes());
        }
        ipw.rcOutPort = ctx.routing->route(*ctx.config, node_, routed, p);
    }
    tap(TapPoint::AfterRc, hook);

    // ---- Commit routing results ----
    for (int p = 0; p < kNumPorts; ++p) {
        const InputPortWires &ipw = wires_.in[p];
        std::uint32_t done =
            ipw.rcDone & static_cast<std::uint32_t>(lowMask(num_vcs));
        if (done == 0)
            continue;
        rcArb_[p].commit(done);
        while (done != 0) {
            const unsigned v = static_cast<unsigned>(lowestSetBit(done));
            done = static_cast<std::uint32_t>(clearBit(done, v));
            VcRecord &rec = records_[vcIndex(p, v)];
            rec.state = VcState::VcAllocWait;
            rec.outPort = ipw.rcOutPort;
            rec.outVc = -1;
            if (ipw.rcFlit.msgClass < params_.classes.size())
                rec.msgClass = ipw.rcFlit.msgClass;
        }
    }
}

void
Router::evaluate(const Context &ctx, Cycle cycle, LinkIo &io,
                 const TapHook *hook)
{
    NOCALERT_ASSERT(ctx.config && ctx.routing, "router context incomplete");

    wires_.clear(cycle, node_);
    tap(TapPoint::CycleStart, hook);
    takeSnapshots();

    // Latch link inputs onto the wires.
    const unsigned num_vcs = params_.numVcs;
    for (int p = 0; p < kNumPorts; ++p) {
        InputPortWires &ipw = wires_.in[p];
        ipw.inValid = io.inValid[p];
        if (ipw.inValid) {
            ipw.inFlit = io.inFlit[p];
            // Input demultiplexer: the flit's VC id field selects the
            // buffer; the field is bitsFor(numVcs) wires wide.
            const unsigned sel = ipw.inFlit.vc &
                                 lowMask(bitsFor(num_vcs));
            if (sel < num_vcs)
                ipw.writeEnable = 1u << sel;
        }
    }
    for (int o = 0; o < kNumPorts; ++o)
        wires_.out[o].creditRecv = io.creditIn[o];
    tap(TapPoint::AfterInputs, hook);

    applyCredits(ctx);
    doSwitchTraversal(ctx, io);
    tap(TapPoint::AfterSt, hook);

    if (params_.speculative) {
        doVcAllocation(ctx, hook);
        doSwitchArbitration(ctx, hook);
    } else {
        doSwitchArbitration(ctx, hook);
        doVcAllocation(ctx, hook);
    }

    doBufferWriteAndRc(ctx, hook);
    tap(TapPoint::CycleEnd, hook);

    // Drive the outgoing links from the final wire values.
    for (int o = 0; o < kNumPorts; ++o) {
        io.outValid[o] = wires_.out[o].outValid;
        io.outFlit[o] = wires_.out[o].outFlit;
    }
    for (int p = 0; p < kNumPorts; ++p)
        io.creditOut[p] = wires_.in[p].creditSend;
}

} // namespace nocalert::noc
