/**
 * @file
 * Bitmask-kernel fast path of the router (see packed.hpp).
 *
 * evaluateFast() re-implements one pipeline cycle as sparse bitmask
 * iteration over the packed state words, with no RouterWires record,
 * no per-VC snapshots, and no branchy checker bank. Exactness rests
 * on the eligibility screen plus a handful of lemmas about the
 * branchy pipeline, each noted at the relevant stage:
 *
 *  - ST unconditionally consumes every valid schedule entry, so
 *    during SA1 request building the "pending read" count is always
 *    zero — the schedule register was cleared this very cycle.
 *  - RoundRobinArbiter::commit is a no-op unless the grant is
 *    one-hot, and compute() of a non-zero request vector is always
 *    one-hot, so skipping compute+commit entirely when a request
 *    word is zero is exact (pointer untouched either way).
 *  - Clean arbiter outputs (grant subseteq requests, one-hot) can
 *    never trip the arbiter/VA/SA/crossbar/buffer checker groups
 *    when the screen's preconditions hold, so only the RC codes and
 *    the ejection-destination check need inline evaluation.
 *  - Interleaving compute and commit per arbiter instance is exact
 *    because computes read only the pre-built request words and the
 *    instance's own pointer — with one exception the code preserves:
 *    all VA1 candidate selections are computed before any VA2 commit
 *    (a commit flips `free` bits VA1 reads), and all RC waiting
 *    masks are latched before any RC serve.
 */

#include "noc/packed.hpp"
#include "noc/router.hpp"
#include "util/bits.hpp"

namespace nocalert::noc {

namespace {

/**
 * Continuous-consistency predicate of one input VC: true iff the
 * branchy bank's group-8 checkers (invariants 2, 17, 19 over the
 * pre-cycle snapshot) would fire for this record/buffer pair. The
 * packed `suspect` mask is exactly the set of slots where this holds.
 */
bool
vcSuspect(const NetworkConfig &config, NodeId node, const VcRecord &rec,
          const VcFifo &fifo, unsigned num_vcs)
{
    const bool routed = rec.state == VcState::VcAllocWait ||
                        rec.state == VcState::Active;
    if (routed) {
        const bool ok = rec.outPort >= 0 && rec.outPort < kNumPorts &&
                        config.portConnected(node, rec.outPort);
        if (!ok)
            return true;
    }
    if (rec.state == VcState::Active &&
        (rec.outVc < 0 || rec.outVc >= static_cast<int>(num_vcs)))
        return true;
    if (rec.state == VcState::RouteWait ||
        rec.state == VcState::VcAllocWait) {
        if (fifo.empty() || !isHead(fifo.peek(0).type))
            return true;
    }
    if (rec.state == VcState::Idle && fifo.size() > 0)
        return true;
    return false;
}

} // namespace

bool
Router::outVcTableConsistent() const
{
    const unsigned num_vcs = params_.numVcs;
    for (int o = 0; o < kNumPorts; ++o) {
        for (unsigned w = 0; w < num_vcs; ++w) {
            const OutVcState &ov = outVcs_[vcIndex(o, w)];
            if (ov.free)
                continue;
            bool consistent = ov.ownerPort >= 0 &&
                              ov.ownerPort < kNumPorts &&
                              ov.ownerVc >= 0 &&
                              ov.ownerVc < static_cast<int>(num_vcs);
            if (consistent) {
                const VcRecord &owner = records_[vcIndex(
                    ov.ownerPort,
                    static_cast<unsigned>(ov.ownerVc))];
                consistent = owner.state == VcState::Active &&
                             owner.outPort == o &&
                             owner.outVc == static_cast<int>(w);
            }
            if (!consistent)
                return false;
        }
    }
    return true;
}

void
Router::recomputePacked(const NetworkConfig &config,
                        PackedRouterState &ps) const
{
    ps = PackedRouterState{};
    ps.stale = false;
    const unsigned num_vcs = params_.numVcs;
    for (int p = 0; p < kNumPorts; ++p) {
        if (sched_[p].valid)
            ps.schedPorts |= 1u << static_cast<unsigned>(p);
        for (unsigned v = 0; v < num_vcs; ++v) {
            const unsigned i = vcIndex(p, v);
            const VcRecord &rec = records_[i];
            switch (rec.state) {
            case VcState::RouteWait:
                ps.routeWait = setBit(ps.routeWait, i);
                break;
            case VcState::VcAllocWait:
                ps.vcAllocWait = setBit(ps.vcAllocWait, i);
                break;
            case VcState::Active:
                ps.active = setBit(ps.active, i);
                break;
            case VcState::Idle:
                break;
            }
            if (vcSuspect(config, node_, rec, fifos_[i], num_vcs))
                ps.suspect = setBit(ps.suspect, i);
        }
    }
    if (params_.extendedChecks)
        ps.suspectOut = !outVcTableConsistent();
}

bool
Router::evaluateFast(const Context &ctx, Cycle cycle, LinkIo &io,
                     PackedRouterState &ps, PackedScratch &scratch,
                     PackedCycleEvents &ev)
{
    const unsigned num_vcs = params_.numVcs;
    const auto depth = static_cast<std::uint8_t>(params_.bufferDepth);
    const unsigned num_classes =
        static_cast<unsigned>(params_.classes.size());
    const std::uint64_t vc_mask = lowMask(num_vcs);
    const std::uint64_t vc_sel_mask = lowMask(bitsFor(num_vcs));
    const std::uint32_t port_mask =
        static_cast<std::uint32_t>(lowMask(kNumPorts));

    ev.cycle = cycle;
    ev.router = node_;
    ev.mask = 0;
    ev.count = 0;

    // ================================================================
    // Eligibility screen — strictly read-only. Anything a Table-1
    // checker might fire on (beyond the inline RC/ejection codes)
    // bounces the router to the branchy pipeline instead.
    // ================================================================
    if (ps.suspect != 0 || ps.suspectOut)
        return false;

    // Scheduled crossbar reads must be well-formed: a one-hot row with
    // no output collisions (crossbar invariants 14-16), a non-empty
    // buffer (invariant 24), and an Active record (whose tail release
    // is then guaranteed valid by the absent suspect bits).
    std::uint32_t used_outputs = 0;
    for (std::uint32_t m = ps.schedPorts; m != 0;) {
        const int p = lowestSetBit(m);
        m = static_cast<std::uint32_t>(clearBit(m, static_cast<unsigned>(p)));
        const XbarSchedule &entry = sched_[p];
        const unsigned v = entry.vc % num_vcs;
        const std::uint32_t row =
            entry.rowMask & port_mask;
        if (!isOneHot(row) || (used_outputs & row) != 0)
            return false;
        used_outputs |= row;
        const unsigned i = vcIndex(p, v);
        if (fifos_[i].empty() || records_[i].state != VcState::Active)
            return false;
    }

    // Arriving flits must pass every buffer-write invariant (18,
    // 25-28). The screen mirrors the checker conditions exactly, on
    // the same pre-cycle state the snapshots would have captured.
    for (std::uint32_t pm = io.inMask; pm != 0;) {
        const int p = lowestSetBit(pm);
        pm = static_cast<std::uint32_t>(
            clearBit(pm, static_cast<unsigned>(p)));
        const Flit &flit = io.inFlit[p];
        const unsigned sel = flit.vc & vc_sel_mask;
        if (sel >= num_vcs)
            continue; // demux drops the flit; no write occurs
        const unsigned i = vcIndex(p, sel);
        const VcRecord &rec = records_[i];
        const unsigned occ = fifos_[i].size();
        const bool head = isHead(flit.type);
        if (occ >= depth)
            return false; // invariant 25
        if (rec.state == VcState::Idle && !head)
            return false; // invariant 18
        if (params_.atomicBuffers) {
            if (head && (rec.state != VcState::Idle || occ > 0))
                return false; // invariant 26
        } else {
            const bool stream_open =
                rec.flitsArrived > 0 && !rec.tailArrived;
            if (head && stream_open)
                return false; // invariant 27
            if (!head && !stream_open && occ > 0)
                return false; // invariant 27
        }
        const unsigned expected = head
            ? (flit.msgClass < num_classes
                   ? params_.classLength(flit.msgClass) : 0)
            : rec.expectedLength;
        const unsigned count = head ? 1 : rec.flitsArrived + 1;
        if (expected != 0 &&
            (isTail(flit.type) ? count != expected : count >= expected))
            return false; // invariant 28
    }

    // ================================================================
    // Commit — stages in the branchy pipeline's order. From here on
    // the evaluation always completes.
    // ================================================================

    // ---- Credits (applyCredits, fed from the link wires) ----
    for (int o = 0; o < kNumPorts; ++o) {
        std::uint64_t mask = io.creditIn[o] & vc_mask;
        while (mask != 0) {
            const unsigned v =
                static_cast<unsigned>(lowestSetBit(mask));
            mask = clearBit(mask, v);
            OutVcState &ov = outVcs_[vcIndex(o, v)];
            if (ov.credits < depth)
                ++ov.credits;
        }
    }

    // ---- ST: drain the schedule register through the crossbar ----
    bool eject_wrong = false;
    for (std::uint32_t m = ps.schedPorts; m != 0;) {
        const int p = lowestSetBit(m);
        m = static_cast<std::uint32_t>(clearBit(m, static_cast<unsigned>(p)));
        XbarSchedule &entry = sched_[p];
        const unsigned v = entry.vc % num_vcs;
        const unsigned i = vcIndex(p, v);
        VcFifo &fifo = fifos_[i];
        VcRecord &rec = records_[i];

        const int o = lowestSetBit(
            entry.rowMask & port_mask);
        // Read the head straight into the output register and advance
        // (pop() minus one flit copy; the buffer was screened
        // non-empty).
        Flit &flit = io.outFlit[o];
        flit = fifo.peek(0);
        fifo.dropHead();
        io.creditOut[p] = static_cast<std::uint32_t>(
            setBit(io.creditOut[p], v));
        io.creditOutMask |= static_cast<std::uint8_t>(1u << p);
        flit.vc = entry.outVcWire;
        io.outValid[o] = true;
        io.outMask |= static_cast<std::uint8_t>(1u << o);
        if (o == portIndex(Port::Local)) {
            // Invariant 32 is the only checker that can observe a
            // fast-path ejection; the branchy bank fires it last, so
            // record it and emit after the RC codes.
            if (isHead(flit.type) && flit.dst != node_)
                eject_wrong = true;
        }

        if (isTail(flit.type)) {
            if (rec.outPort >= 0 && rec.outPort < kNumPorts &&
                rec.outVc >= 0 &&
                rec.outVc < static_cast<int>(num_vcs)) {
                OutVcState &ov = outVcs_[vcIndex(
                    rec.outPort, static_cast<unsigned>(rec.outVc))];
                ov.free = true;
                ov.ownerPort = -1;
                ov.ownerVc = -1;
            }
            ps.active = clearBit(ps.active, i);
            if (fifo.empty()) {
                rec.reset();
            } else {
                rec.state = VcState::RouteWait;
                rec.outPort = kInvalidPort;
                rec.outVc = -1;
                rec.packet = fifo.peek(0).packet;
                ps.routeWait = setBit(ps.routeWait, i);
                // Residue whose new head is not a header: RC may
                // examine it this very cycle (handled inline below)
                // and the continuous checkers fire from next cycle
                // on — mark suspect so the router goes branchy.
                if (!isHead(fifo.peek(0).type))
                    ps.suspect = setBit(ps.suspect, i);
            }
        }
        entry = XbarSchedule{};
    }
    ps.schedPorts = 0;

    // ---- SA: switch arbitration over the active mask ----
    const auto do_sa = [&]() {
        if (ps.active == 0)
            return;
        // sa1_winner[p] is read only for granted ports, and a port can
        // only be granted if it requested (grant subseteq requests),
        // which always stores the winner first — no init needed.
        std::array<int, kNumPorts> sa1_winner;
        std::array<std::uint64_t, kNumPorts> sa2_req = {};
        std::uint32_t sa2_any = 0;
        for (int p = 0; p < kNumPorts; ++p) {
            std::uint64_t port_active =
                (ps.active >> (static_cast<unsigned>(p) * num_vcs)) &
                vc_mask;
            std::uint64_t requests = 0;
            while (port_active != 0) {
                const unsigned v = static_cast<unsigned>(
                    lowestSetBit(port_active));
                port_active = clearBit(port_active, v);
                const unsigned i = vcIndex(p, v);
                if (fifos_[i].empty())
                    continue; // nothing unscheduled (pending == 0)
                const VcRecord &rec = records_[i];
                // Non-suspect Active records have in-range routes.
                const OutVcState &ov = outVcs_[vcIndex(
                    rec.outPort, static_cast<unsigned>(rec.outVc))];
                if (ov.credits == 0)
                    continue; // downstream buffer full
                requests = setBit(requests, v);
            }
            if (requests == 0)
                continue;
            const std::uint64_t grant = RoundRobinArbiter::compute(
                requests, sa1Arb_[p].pointer(), num_vcs);
            sa1Arb_[p].commit(grant);
            const int v = lowestSetBit(grant);
            sa1_winner[p] = v;
            const int o = records_[vcIndex(
                p, static_cast<unsigned>(v))].outPort;
            sa2_req[o] = setBit(sa2_req[o], static_cast<unsigned>(p));
            sa2_any |= 1u << static_cast<unsigned>(o);
        }
        for (std::uint32_t m = sa2_any; m != 0;) {
            const int o = lowestSetBit(m);
            m = static_cast<std::uint32_t>(
                clearBit(m, static_cast<unsigned>(o)));
            const std::uint64_t grant = RoundRobinArbiter::compute(
                sa2_req[o], sa2Arb_[o].pointer(), kNumPorts);
            sa2Arb_[o].commit(grant);
            const int p = lowestSetBit(grant);
            const unsigned v = static_cast<unsigned>(sa1_winner[p]);
            const VcRecord &rec = records_[vcIndex(p, v)];

            XbarSchedule &entry = sched_[p];
            entry.valid = true;
            entry.vc = static_cast<std::uint8_t>(v);
            entry.rowMask = static_cast<std::uint32_t>(
                setBit(entry.rowMask, static_cast<unsigned>(o)));
            entry.outVcWire = vcWireValue(rec.outVc);
            ps.schedPorts |= 1u << static_cast<unsigned>(p);

            const std::uint8_t vcw = entry.outVcWire;
            if (vcw < num_vcs) {
                OutVcState &ov = outVcs_[vcIndex(o, vcw)];
                if (ov.credits > 0)
                    --ov.credits;
            }
        }
    };

    // ---- VA: virtual-channel allocation over the waiting mask ----
    const auto do_va = [&]() {
        if (ps.vcAllocWait == 0)
            return;
        scratch.numTouched = 0;
        // VA1 for every waiting slot first: commits below flip `free`
        // bits that VA1 candidate selection reads.
        for (std::uint64_t m = ps.vcAllocWait; m != 0;) {
            const unsigned i = static_cast<unsigned>(lowestSetBit(m));
            m = clearBit(m, i);
            const int p = static_cast<int>(i / num_vcs);
            const unsigned v = i % num_vcs;
            const VcRecord &rec = records_[i];
            const int o = rec.outPort; // in range: slot not suspect
            const unsigned cls =
                rec.msgClass < num_classes ? rec.msgClass : 0;

            const RouterParams::VcRange range = params_.classVcRange(cls);
            std::uint64_t candidates = 0;
            for (unsigned w = range.lo; w < range.hi; ++w) {
                const OutVcState &ov = outVcs_[vcIndex(o, w)];
                if (!ov.free)
                    continue;
                if (params_.atomicBuffers ? ov.credits != depth
                                          : ov.credits == 0)
                    continue;
                candidates = setBit(candidates, w);
            }
            const std::uint64_t sel = RoundRobinArbiter::compute(
                candidates, va1Ptr_[i], num_vcs);
            if (sel == 0)
                continue;
            const unsigned w = static_cast<unsigned>(lowestSetBit(sel));
            const unsigned slot =
                static_cast<unsigned>(o) * kMaxVcs + w;
            if (scratch.va2Req[slot] == 0)
                scratch.touched[scratch.numTouched++] =
                    static_cast<std::uint8_t>(slot);
            scratch.va2Req[slot] =
                setBit(scratch.va2Req[slot], vaClient(p, v));
        }
        // VA2 per requested output VC. Commit order across slots is
        // immaterial: every client requested exactly one slot, and
        // each commit touches only its own arbiter, winner, and
        // out-VC entry.
        for (unsigned t = 0; t < scratch.numTouched; ++t) {
            const unsigned slot = scratch.touched[t];
            const int o = static_cast<int>(slot / kMaxVcs);
            const unsigned w = slot % kMaxVcs;
            const std::uint64_t requests = scratch.va2Req[slot];
            scratch.va2Req[slot] = 0;
            RoundRobinArbiter &arb = va2Arb_[vcIndex(o, w)];
            const std::uint64_t grant = RoundRobinArbiter::compute(
                requests, arb.pointer(), kNumPorts * kMaxVcs);
            arb.commit(grant);
            const int client = lowestSetBit(grant);
            const int p = client / static_cast<int>(kMaxVcs);
            const unsigned v = static_cast<unsigned>(client) % kMaxVcs;
            const unsigned i = vcIndex(p, v);
            VcRecord &rec = records_[i];
            rec.outVc = static_cast<int>(w);
            rec.state = VcState::Active;
            va1Ptr_[i] = static_cast<std::uint8_t>((w + 1) % num_vcs);

            OutVcState &ov = outVcs_[vcIndex(o, w)];
            ov.free = false;
            ov.ownerPort = p;
            ov.ownerVc = static_cast<int>(v);

            ps.vcAllocWait = clearBit(ps.vcAllocWait, i);
            ps.active = setBit(ps.active, i);
        }
    };

    if (params_.speculative) {
        do_va();
        do_sa();
    } else {
        do_sa();
        do_va();
    }

    // ---- BW: commit arriving flits (screened clean above) ----
    for (std::uint32_t pm = io.inMask; pm != 0;) {
        const int p = lowestSetBit(pm);
        pm = static_cast<std::uint32_t>(
            clearBit(pm, static_cast<unsigned>(p)));
        const Flit &flit = io.inFlit[p];
        const unsigned sel = flit.vc & vc_sel_mask;
        if (sel >= num_vcs)
            continue;
        const unsigned i = vcIndex(p, sel);
        VcRecord &rec = records_[i];
        fifos_[i].push(flit); // cannot fail: occupancy screened
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
                ps.routeWait = setBit(ps.routeWait, i);
            }
        } else {
            ++rec.flitsArrived;
            if (isTail(flit.type))
                rec.tailArrived = true;
        }
    }

    // ---- RC: serve one route-waiting VC per input port ----
    // Latch all waiting masks before any serve (the branchy pipeline
    // builds every rcWaiting word first); serves on different ports
    // are independent.
    const std::uint64_t route_wait_latched = ps.routeWait;
    for (int p = 0; route_wait_latched != 0 && p < kNumPorts; ++p) {
        const std::uint64_t waiting =
            (route_wait_latched >> (static_cast<unsigned>(p) * num_vcs)) &
            vc_mask;
        if (waiting == 0)
            continue;
        const std::uint64_t grant = RoundRobinArbiter::compute(
            waiting, rcArb_[p].pointer(), num_vcs);
        const unsigned v = static_cast<unsigned>(lowestSetBit(grant));
        const unsigned i = vcIndex(p, v);
        const VcFifo &fifo = fifos_[i];
        const bool head_valid = !fifo.empty();
        const Flit &rc_flit = fifo.peek(0); // stale-capable
        const bool head_is_header = isHead(rc_flit.type);

        Flit routed = rc_flit;
        if (!head_valid || !head_is_header)
            routed.dst = garbageDst(routed, node_,
                                    ctx.config->numNodes());
        const int o =
            ctx.routing->route(*ctx.config, node_, routed, p);

        // Inline RC checker group (invariants 1-3, 20, 21): same
        // conditions, same emission order as the branchy bank. The
        // turn/minimality checks see the original peeked flit, only
        // route() sees the garbage destination — exactly as the
        // wires would have carried them.
        const bool in_range = o >= 0 && o < kNumPorts;
        const bool connected =
            in_range && ctx.config->portConnected(node_, o);
        if (!in_range || !connected) {
            ev.fire(PackedCheck::InvalidRcOutput, p,
                    static_cast<int>(v));
        } else {
            if (!ctx.routing->legalTurn(rc_flit, p, o))
                ev.fire(PackedCheck::IllegalTurn, p,
                        static_cast<int>(v));
            if (ctx.routing->minimalRequired() && head_valid &&
                head_is_header &&
                !ctx.routing->minimalStep(*ctx.config, node_, rc_flit,
                                          o))
                ev.fire(PackedCheck::NonMinimalRoute, p,
                        static_cast<int>(v));
        }
        if (!head_valid)
            ev.fire(PackedCheck::RcOnEmptyVc, p, static_cast<int>(v));
        else if (!head_is_header)
            ev.fire(PackedCheck::RcOnNonHeaderFlit, p,
                    static_cast<int>(v));

        rcArb_[p].commit(grant);
        VcRecord &rec = records_[i];
        rec.state = VcState::VcAllocWait;
        rec.outPort = o;
        rec.outVc = -1;
        if (rc_flit.msgClass < params_.classes.size())
            rec.msgClass = rc_flit.msgClass;
        ps.routeWait = clearBit(ps.routeWait, i);
        ps.vcAllocWait = setBit(ps.vcAllocWait, i);
        // New VcAllocWait state that a continuous checker would flag
        // (bad route register, or the ST-residue anomaly resolved
        // into a routed state) keeps the slot suspect.
        if (!in_range || !connected || !head_valid || !head_is_header)
            ps.suspect = setBit(ps.suspect, i);
    }

    if (eject_wrong)
        ev.fire(PackedCheck::EjectionAtWrongDestination,
                portIndex(Port::Local), -1);

    // Fast transitions preserve the allocation-table invariants the
    // extended (group-9) check reads, but recompute when armed so the
    // flag can never rot across mixed fast/slow sequences.
    if (params_.extendedChecks)
        ps.suspectOut = !outVcTableConsistent();

    return true;
}

} // namespace nocalert::noc
