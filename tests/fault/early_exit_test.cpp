/**
 * Early exit of transient fault runs (DESIGN.md §16).
 *
 *  - State equality: a copy equals its source; a one-bit change in
 *    any compared component of a router, NI, link, generator or
 *    ForEVeR model breaks equality; stale FIFO slots and link
 *    payloads, logs, statistics, wires and kernel caches do not.
 *    Network::repeats ignores the cycle but counts stale FIFO slots,
 *    head offsets and ejections since the earlier copy.
 *  - Differential battery: for every kernel and workload, each run
 *    (against the checkpointed reference, and against a bare-log
 *    reference of the same golden log, which has no checkpoints)
 *    serializes exactly like fullHorizonRun below: runSingle's wiring
 *    with the injector attached throughout and every cycle of the
 *    window, the drain and ForEVeR's tail simulated. Each case must
 *    converge at least one run, so the battery is never vacuous;
 *    across the cases it covers runs that repeat during the drain and
 *    in the tail, ForEVeR detections from the bookkeeping after a cut,
 *    runs never stopped early, and permanent and recovery runs, which
 *    are never stopped early. E12's simultaneous transient pairs go
 *    through the same battery, two sites armed at one cycle.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "core/nocalert.hpp"
#include "fault/campaign.hpp"
#include "fault/injector.hpp"
#include "fault/sampled.hpp"
#include "fault/serialize.hpp"
#include "fault/site.hpp"
#include "forever/forever.hpp"
#include "noc/network.hpp"
#include "recovery/orchestrator.hpp"

#ifndef NOCALERT_TEST_DATA
#error "NOCALERT_TEST_DATA must point at tests/data"
#endif

namespace nocalert::fault {
namespace {

using noc::KernelMode;

// ---------------------------------------------------------------------
// State equality
// ---------------------------------------------------------------------

noc::Network
warmNetwork()
{
    noc::NetworkConfig config;
    config.width = config.height = 4;
    noc::TrafficSpec traffic;
    traffic.injectionRate = 0.12;
    traffic.seed = 5;
    noc::Network net(config, traffic);
    net.setKernelMode(KernelMode::Bitmask);
    net.run(300);
    return net;
}

/** The first (router, port, vc) whose FIFO is empty / non-empty. */
struct VcSlot
{
    noc::NodeId node = 0;
    int port = 0;
    unsigned vc = 0;
};

std::optional<VcSlot>
findVc(const noc::Network &net, bool empty)
{
    for (noc::NodeId n = 0; n < net.config().numNodes(); ++n)
        for (int p = 0; p < noc::kNumPorts; ++p)
            for (unsigned v = 0; v < net.config().router.numVcs; ++v)
                if (net.router(n).fifo(p, v).empty() == empty)
                    return VcSlot{n, p, v};
    return std::nullopt;
}

TEST(StateEquality, CopyEqualsItsSourceAndEvolvesWithIt)
{
    noc::Network net = warmNetwork();
    noc::Network copy(net);
    EXPECT_TRUE(copy.sameState(net));
    net.run(40);
    EXPECT_FALSE(copy.sameState(net)); // the cycle differs
    copy.run(40);
    EXPECT_TRUE(copy.sameState(net));
}

TEST(StateEquality, EveryRouterComponentCounts)
{
    const noc::Network net = warmNetwork();
    const auto busy = findVc(net, /*empty=*/false);
    const auto idle = findVc(net, /*empty=*/true);
    ASSERT_TRUE(busy && idle);

    using Mutation = void (*)(noc::Router &, const VcSlot &);
    const std::vector<std::pair<const char *, Mutation>> mutations = {
        {"vc record",
         [](noc::Router &r, const VcSlot &s) {
             r.vcRecord(s.port, s.vc).flitsArrived ^= 1;
         }},
        {"out-vc table",
         [](noc::Router &r, const VcSlot &s) {
             r.outVcState(s.port, s.vc).credits ^= 1;
         }},
        {"schedule",
         [](noc::Router &r, const VcSlot &s) {
             r.schedule(s.port).rowMask ^= 1;
         }},
        {"sa1 arbiter",
         [](noc::Router &r, const VcSlot &s) {
             r.sa1Arbiter(s.port).setPointer(r.sa1Arbiter(s.port).pointer() ^
                                             1);
         }},
        {"sa2 arbiter",
         [](noc::Router &r, const VcSlot &s) {
             r.sa2Arbiter(s.port).setPointer(r.sa2Arbiter(s.port).pointer() ^
                                             1);
         }},
        {"rc arbiter",
         [](noc::Router &r, const VcSlot &s) {
             r.rcArbiter(s.port).setPointer(r.rcArbiter(s.port).pointer() ^
                                            1);
         }},
        {"va2 arbiter",
         [](noc::Router &r, const VcSlot &s) {
             noc::RoundRobinArbiter &arb = r.va2Arbiter(s.port, s.vc);
             arb.setPointer(arb.pointer() ^ 1);
         }},
        {"va1 pointer",
         [](noc::Router &r, const VcSlot &s) {
             r.va1Pointer(s.port, s.vc) ^= 1;
         }},
        {"fifo count",
         [](noc::Router &r, const VcSlot &s) {
             r.fifo(s.port, s.vc).push(noc::Flit{});
         }},
    };
    for (const auto &[name, mutate] : mutations) {
        SCOPED_TRACE(name);
        noc::Network copy(net);
        mutate(copy.router(busy->node), *busy);
        EXPECT_FALSE(copy.router(busy->node).sameState(
            net.router(busy->node)));
        EXPECT_FALSE(copy.sameState(net));
    }

    // One bit of a live flit, at equal occupancy.
    noc::Network a(net);
    noc::Network b(net);
    noc::Flit flit;
    flit.packet = 42;
    a.router(idle->node).fifo(idle->port, idle->vc).push(flit);
    flit.seq ^= 1;
    b.router(idle->node).fifo(idle->port, idle->vc).push(flit);
    EXPECT_FALSE(a.sameState(b));
}

TEST(StateEquality, StaleSlotsLogsStatisticsWiresAndCachesAreIgnored)
{
    const noc::Network net = warmNetwork();
    const auto idle = findVc(net, /*empty=*/true);
    ASSERT_TRUE(idle);

    // A pushed-then-popped flit leaves a stale slot and a moved head.
    noc::Network stale(net);
    noc::VcFifo &fifo = stale.router(idle->node).fifo(idle->port, idle->vc);
    noc::Flit flit;
    flit.packet = 7;
    fifo.push(flit);
    fifo.pop();
    EXPECT_TRUE(stale.sameState(net));

    noc::Network cleared(net);
    cleared.clearEjectionLogs();
    EXPECT_TRUE(cleared.sameState(net));

    // Dense rebuilds every wire record and caches no packed state;
    // Bitmask skips the wires on its fast path and counts fewer
    // evaluations. The machines still agree.
    noc::Network dense(net);
    noc::Network bitmask(net);
    dense.setKernelMode(KernelMode::Dense);
    dense.run(120);
    bitmask.run(120);
    EXPECT_NE(dense.routerEvaluations(), bitmask.routerEvaluations());
    EXPECT_TRUE(dense.sameState(bitmask));
}

TEST(StateEquality, LinkComparesValidSidesOnly)
{
    noc::Link a;
    noc::Link b;
    b.recvFlit.packet = 9; // stale payload
    b.sendFlit.seq = 3;
    EXPECT_TRUE(a.sameState(b));
    for (int field = 0; field < 5; ++field) {
        noc::Link c = a;
        switch (field) {
          case 0: c.sendValid = true; break;
          case 1: c.recvValid = true; break;
          case 2: c.creditSend ^= 1; break;
          case 3: c.creditRecv ^= 1; break;
          default:
            a.recvValid = c.recvValid = true;
            c.recvFlit.seq ^= 1;
        }
        EXPECT_FALSE(c.sameState(a)) << "field " << field;
    }
}

noc::Packet
packet(noc::PacketId id, std::uint8_t msg_class, std::uint16_t length)
{
    noc::Packet pkt;
    pkt.id = id;
    pkt.src = 0;
    pkt.dst = 5;
    pkt.msgClass = msg_class;
    pkt.length = length;
    return pkt;
}

/** One NI cycle with nothing arriving. */
void
idleCycle(noc::NetworkInterface &ni, noc::Cycle cycle)
{
    noc::NetworkInterface::LinkIo io;
    ni.evaluate(cycle, io);
}

/** One NI cycle ejecting @p flit. */
void
ejectCycle(noc::NetworkInterface &ni, noc::Cycle cycle,
           const noc::Flit &flit)
{
    noc::NetworkInterface::LinkIo io;
    io.inValid = true;
    io.inFlit = flit;
    ni.evaluate(cycle, io);
}

noc::Flit
flitTo(noc::NodeId node, noc::PacketId id, std::uint16_t seq,
       noc::FlitType type)
{
    noc::Flit flit;
    flit.packet = id;
    flit.seq = seq;
    flit.type = type;
    flit.src = 3;
    flit.dst = node;
    flit.msgClass = 1;
    return flit;
}

TEST(StateEquality, EveryNetworkInterfaceComponentCounts)
{
    const noc::NetworkConfig config;
    noc::NetworkInterface ni(config, 0);
    ni.enqueue(packet(1, 1, 5));
    idleCycle(ni, 0); // streaming flit 0 of packet 1

    noc::NetworkInterface queued = ni;
    queued.enqueue(packet(2, 0, 1));
    EXPECT_FALSE(queued.sameState(ni));

    noc::NetworkInterface credited = ni;
    for (unsigned v = 0; v < config.router.numVcs; ++v)
        credited.restoreCredits(v, 1); // only the stream VC is short
    EXPECT_FALSE(credited.sameState(ni));

    noc::NetworkInterface advanced = ni;
    idleCycle(advanced, 1); // flit 1 of the stream
    EXPECT_FALSE(advanced.sameState(ni));

    noc::NetworkInterface reassembling = ni;
    ejectCycle(reassembling, 1, flitTo(0, 77, 0, noc::FlitType::Head));
    EXPECT_FALSE(reassembling.sameState(ni));

    // A finished one-flit stream whose credit came back differs from
    // a fresh NI only in the class round-robin.
    const noc::NetworkInterface fresh(config, 0);
    noc::NetworkInterface rotated = fresh;
    rotated.enqueue(packet(3, 0, 1));
    idleCycle(rotated, 0);
    for (unsigned v = 0; v < config.router.numVcs; ++v)
        rotated.restoreCredits(v, 1);
    EXPECT_FALSE(rotated.sameState(fresh));

    noc::NetworkConfig retransmit = config;
    retransmit.retransmit.enabled = true;
    noc::NetworkInterface sink(retransmit, 0);
    noc::NetworkInterface delivered = sink;
    noc::Flit single = flitTo(0, 78, 0, noc::FlitType::HeadTail);
    single.msgClass = 0;
    ejectCycle(delivered, 1, single); // delivered set, ACK count, ACK
    EXPECT_FALSE(delivered.sameState(sink));
}

TEST(StateEquality, IdleStreamRegistersAndPlainDirtyBitAreIgnored)
{
    // Two finished single-flit streams leave different stale stream
    // registers; nothing reads them until the next stream starts.
    const noc::NetworkConfig config;
    noc::NetworkInterface a(config, 0);
    noc::NetworkInterface b(config, 0);
    a.enqueue(packet(1, 0, 1));
    b.enqueue(packet(2, 0, 1));
    idleCycle(a, 0);
    idleCycle(b, 0);
    EXPECT_TRUE(a.sameState(b));

    // Without retransmission the dirty bit is write-only.
    noc::NetworkInterface clean(config, 0);
    noc::NetworkInterface dirty(config, 0);
    for (noc::NetworkInterface *ni : {&clean, &dirty})
        ejectCycle(*ni, 0, flitTo(0, 10, 0, noc::FlitType::Head));
    ejectCycle(clean, 1, flitTo(0, 10, 1, noc::FlitType::Body));
    ejectCycle(dirty, 1, flitTo(0, 11, 1, noc::FlitType::Body));
    EXPECT_TRUE(clean.sameState(dirty));
}

TEST(StateEquality, RepeatsIgnoresTheCycleButNotStaleSlotsOrEjections)
{
    // A drained network with generation stopped stands still once its
    // last credits are home.
    noc::NetworkConfig config;
    config.width = config.height = 4;
    noc::TrafficSpec traffic;
    traffic.injectionRate = 0.12;
    traffic.seed = 5;
    traffic.stopCycle = 300;
    noc::Network net(config, traffic);
    net.setKernelMode(KernelMode::Bitmask);
    net.run(300);
    ASSERT_TRUE(net.drain(2000));
    net.run(8);
    const noc::Network earlier(net);
    net.run(64);
    EXPECT_FALSE(net.sameState(earlier)); // the cycle differs
    EXPECT_TRUE(net.repeats(earlier));

    // A stale slot and a moved head, with equal live contents.
    const auto idle = findVc(net, /*empty=*/true);
    ASSERT_TRUE(idle);
    noc::Network stale(net);
    noc::VcFifo &fifo = stale.router(idle->node).fifo(idle->port, idle->vc);
    fifo.push(flitTo(idle->node, 7, 0, noc::FlitType::Head));
    fifo.pop();
    EXPECT_TRUE(stale.router(idle->node).sameState(net.router(idle->node)));
    EXPECT_FALSE(stale.router(idle->node).sameState(net.router(idle->node),
                                                    /*stale_slots=*/true));
    EXPECT_FALSE(stale.repeats(earlier));

    // A second sighting of an open packet's head leaves the NI's
    // state as it was, but the flit was ejected: the log grew.
    noc::Network open(net);
    ejectCycle(open.ni(0), open.cycle(),
               flitTo(0, 21, 0, noc::FlitType::Head));
    const noc::Network before(open);
    ejectCycle(open.ni(0), open.cycle(),
               flitTo(0, 21, 0, noc::FlitType::Head));
    EXPECT_TRUE(open.sameState(before));
    EXPECT_EQ(open.ni(0).ejectionLog().size(),
              before.ni(0).ejectionLog().size() + 1);
    EXPECT_FALSE(open.repeats(before));
}

TEST(StateEquality, WorkloadGeneratorComparesItsStreams)
{
    const noc::Network net = warmNetwork();
    nocalert::traffic::WorkloadGenerator a = net.workload();
    nocalert::traffic::WorkloadGenerator b = net.workload();
    EXPECT_TRUE(a.sameState(b));
    (void)b.generate(net.config(), 0, net.cycle());
    EXPECT_FALSE(a.sameState(b));
}

TEST(StateEquality, ForeverStateTracksCountersAndNotifications)
{
    noc::Network net = warmNetwork();
    forever::ForeverModel a(net, forever::ForeverConfig{}, false);
    forever::ForeverModel b(net, forever::ForeverConfig{}, false);
    EXPECT_TRUE(a.state() == b.state());

    noc::NiWires eject;
    eject.cycle = net.cycle();
    eject.ejectValid = true;
    b.observeNi(net.ni(2), eject);
    EXPECT_FALSE(a.state() == b.state());

    forever::ForeverModel c(net, forever::ForeverConfig{}, false);
    noc::NiWires inject;
    inject.cycle = net.cycle();
    inject.injectValid = true;
    inject.injectFlit = flitTo(9, 1, 0, noc::FlitType::Head);
    c.observeNi(net.ni(2), inject);
    EXPECT_FALSE(a.state() == c.state());
}

// ---------------------------------------------------------------------
// Golden suffix
// ---------------------------------------------------------------------

noc::EjectionRecord
record(noc::PacketId packet, std::uint16_t seq, noc::NodeId node,
       noc::Cycle cycle)
{
    noc::EjectionRecord rec;
    rec.cycle = cycle;
    rec.node = node;
    rec.flit.packet = packet;
    rec.flit.seq = seq;
    rec.flit.dst = node;
    return rec;
}

std::vector<std::string>
described(const GoldenComparison &comparison)
{
    std::vector<std::string> out;
    for (const GoldenViolation &v : comparison.violations)
        out.push_back(v.describe());
    return out;
}

TEST(GoldenSuffix, SplicesGoldenRecordsAfterEachNode)
{
    const std::vector<noc::EjectionRecord> golden = {
        record(1, 0, 2, 10), record(1, 1, 2, 30), record(2, 0, 5, 12),
        record(3, 0, 5, 40), record(4, 0, 7, 50)};
    std::vector<GoldenReference::Checkpoint> checkpoints;
    checkpoints.push_back(
        {noc::Network(noc::NetworkConfig{}, noc::TrafficSpec{}),
         std::nullopt});
    const GoldenReference reference(golden, std::move(checkpoints), {});

    // Stopped at cycle 25, having delivered flit (4, 0) early at the
    // wrong node 3: the full run's node-ordered log meets that copy
    // first, so it is the wrong-destination one and golden's own
    // delivery at node 7 is the duplicate.
    const std::vector<noc::EjectionRecord> so_far = {
        record(1, 0, 2, 10), record(4, 0, 3, 20), record(2, 0, 5, 12)};
    const std::vector<noc::EjectionRecord> full = {
        record(1, 0, 2, 10), record(1, 1, 2, 30), record(4, 0, 3, 20),
        record(2, 0, 5, 12), record(3, 0, 5, 40), record(4, 0, 7, 50)};
    const GoldenComparison stopped = reference.compare(so_far, true, 25);
    EXPECT_EQ(described(stopped), described(reference.compare(full, true)));
    ASSERT_EQ(stopped.violations.size(), 2u);
    EXPECT_EQ(stopped.violations[0].type,
              GoldenViolation::Type::WrongDestination);
    EXPECT_EQ(stopped.violations[1].type, GoldenViolation::Type::NewFlit);
    EXPECT_EQ(reference.foreverAlarmFrom(0), std::nullopt);
}

// ---------------------------------------------------------------------
// Differential battery
// ---------------------------------------------------------------------

/** A campaign shape with short horizons so the battery stays fast. */
CampaignConfig
battery(int mesh, noc::Cycle warmup)
{
    CampaignConfig config;
    config.network.width = config.network.height = mesh;
    config.workload.synthetic.injectionRate = 0.05;
    config.workload.synthetic.seed = 11;
    config.warmup = warmup;
    config.observeWindow = 700;
    config.drainLimit = 6000;
    config.forever.epochLength = 300;
    return normalizedCampaignConfig(config);
}

/** Golden's own log, replayed from the prepared warm snapshot. */
GoldenReference
bareReference(const CampaignConfig &config, const noc::Network &base)
{
    noc::Network golden(base);
    golden.run(config.observeWindow);
    EXPECT_TRUE(golden.drain(config.drainLimit));
    return GoldenReference(golden.collectEjections());
}

/**
 * The full-horizon oracle: FaultCampaign::runSingle's wiring with none
 * of its shortcuts. Every site is armed at the same cycle, the
 * injector stays attached (its routers pinned) for the whole run, and
 * every cycle of the window, the drain and ForEVeR's epochLength + 2
 * tail is simulated.
 */
FaultRunResult
fullHorizonRun(const CampaignConfig &config, const noc::Network &base,
               const GoldenReference &golden,
               std::span<const FaultSite> sites, noc::Cycle inject_offset)
{
    noc::Network net(base);
    core::NoCAlertEngine engine(net, /*attach_now=*/false);
    std::optional<forever::ForeverModel> fever;
    if (config.runForever)
        fever.emplace(net, config.forever, /*attach_now=*/false);
    std::optional<recovery::RecoveryOrchestrator> orchestrator;
    if (config.recovery)
        orchestrator.emplace(net, engine);
    net.setPackedObserver(
        [&](const noc::Router &router, const noc::PackedCycleEvents &ev) {
            engine.observePacked(router, ev);
        });
    net.setRouterObserver(
        [&](const noc::Router &router, const noc::RouterWires &wires) {
            engine.observeRouter(router, wires);
            if (fever)
                fever->observeRouter(router, wires);
        });
    net.setNiObserver(
        [&](const noc::NetworkInterface &ni, const noc::NiWires &wires) {
            engine.observeNi(ni, wires);
            if (fever)
                fever->observeNi(ni, wires);
        });
    net.setCycleObserver([&](const noc::Network &n) {
        if (fever)
            fever->onCycleEnd(n);
        if (orchestrator)
            orchestrator->onCycleEnd(n.cycle());
    });
    const auto totals = [](const noc::Network &n) {
        std::array<std::uint64_t, 3> sum = {};
        for (noc::NodeId node = 0; node < n.config().numNodes(); ++node) {
            sum[0] += n.ni(node).retransmits();
            sum[1] += n.ni(node).duplicatesSuppressed();
            sum[2] += n.ni(node).packetsAbandoned();
        }
        return sum;
    };
    const auto warm = totals(base);

    FaultRunResult result;
    result.site = sites.front();
    result.injectCycle = net.cycle() + inject_offset;
    FaultInjector injector;
    for (const FaultSite &site : sites)
        injector.arm({site, result.injectCycle, config.kind});
    injector.attach(net);

    net.run(config.observeWindow);
    result.drained = net.drain(config.drainLimit);
    if (!result.drained && config.recovery) {
        result.drained = true;
        for (noc::NodeId node = 0; node < net.config().numNodes(); ++node)
            result.drained = result.drained && net.ni(node).idle();
    }
    if (fever)
        net.run(config.forever.epochLength + 2);

    const GoldenComparison comparison =
        golden.compare(net.collectEjections(), result.drained);
    result.violated = comparison.violated();
    result.violatedConditions = comparison.conditions();
    const core::AlertLog &log = engine.log();
    if (auto first = log.firstCycle()) {
        result.detected = true;
        result.detectionLatency = *first - result.injectCycle;
        result.alertAtInjection = *first == result.injectCycle;
        result.simultaneousCheckers =
            static_cast<unsigned>(log.invariantsAtCycle(*first).size());
    }
    if (auto first = log.firstCautiousCycle()) {
        result.detectedCautious = true;
        result.cautiousLatency = *first - result.injectCycle;
    }
    result.invariants = log.distinctInvariants();
    if (fever) {
        if (auto first = fever->firstDetection(result.injectCycle)) {
            result.foreverDetected = true;
            result.foreverLatency = *first - result.injectCycle;
        }
    }
    if (orchestrator) {
        const recovery::OrchestratorStats &stats = orchestrator->stats();
        result.recoveryTriggered = stats.actions > 0;
        result.recoveryActions = stats.actions;
        result.quarantinedPorts = stats.quarantinedPorts;
        result.purgedFlits = stats.purgedFlits;
        if (stats.actions > 0)
            result.recoveryCycle = stats.firstActionCycle;
        const auto after = totals(net);
        result.retransmits = after[0] - warm[0];
        result.duplicatesSuppressed = after[1] - warm[1];
        result.packetsAbandoned = after[2] - warm[2];
        result.recovered =
            result.detected && !result.violated && result.drained &&
            (result.recoveryTriggered || result.retransmits > 0);
    }
    return result;
}

struct Draw
{
    std::vector<FaultSite> sites; ///< Armed together at one cycle.
    noc::Cycle offset = 0;
};

/** The sites of @p draw, for a trace message. */
std::string
described(const Draw &draw)
{
    std::string text;
    for (const FaultSite &site : draw.sites)
        text += (text.empty() ? "" : " + ") + site.describe();
    return text;
}

/** What the runs against the checkpointed reference did. */
struct Tally
{
    std::size_t runs = 0;
    std::size_t converged = 0;
    std::size_t foreverFromGolden = 0;
    std::size_t repeatedDraining = 0; ///< Cut while the drain ran.
    std::size_t repeatedInTail = 0;   ///< Cut in the tail, drained.
    std::size_t foreverAfterRepeat = 0; ///< First alarm after the cut.
    std::size_t full = 0;             ///< Neither shortcut.
};

/**
 * Run every draw on every kernel against the checkpointed and the
 * bare-log reference and require each record to equal the
 * full-horizon oracle's. Returns what the checkpointed runs did.
 */
Tally
runBattery(const CampaignConfig &config, const std::vector<Draw> &draws,
           bool sampled)
{
    const FaultCampaign::PreparedReference prepared =
        FaultCampaign::prepareReference(config, config.workload.seed());
    const GoldenReference bare = bareReference(config, prepared.base);
    EXPECT_EQ(bare.flitCount(), prepared.golden.flitCount());
    const noc::Cycle window_end = prepared.base.cycle() + config.observeWindow;

    Tally tally;
    for (const KernelMode mode :
         {KernelMode::Dense, KernelMode::Active, KernelMode::Bitmask}) {
        noc::Network base(prepared.base);
        base.setKernelMode(mode);
        for (const Draw &draw : draws) {
            SCOPED_TRACE(described(draw) + " +" +
                         std::to_string(draw.offset) + " kernel " +
                         std::to_string(static_cast<int>(mode)));
            FaultCampaign::EarlyExit early;
            FaultCampaign::EarlyExit bare_early;
            const FaultRunResult run = FaultCampaign::runSingle(
                config, base, prepared.golden, draw.sites, draw.offset,
                &early);
            const FaultRunResult bare_run = FaultCampaign::runSingle(
                config, base, bare, draw.sites, draw.offset, &bare_early);
            const FaultRunResult full =
                fullHorizonRun(config, base, bare, draw.sites, draw.offset);
            const std::string want = toJson(full, sampled).dump();
            EXPECT_EQ(toJson(run, sampled).dump(), want);
            EXPECT_EQ(toJson(bare_run, sampled).dump(), want);
            EXPECT_FALSE(bare_early.converged);
            ++tally.runs;
            if (early.converged) {
                EXPECT_GT(*early.converged, run.injectCycle);
                EXPECT_FALSE(early.repeated);
                ++tally.converged;
                if (run.foreverDetected &&
                    run.injectCycle + run.foreverLatency >= *early.converged)
                    ++tally.foreverFromGolden;
            } else if (early.repeated) {
                EXPECT_EQ(*early.repeated, window_end + kRepeatOffsets[1]);
                ++(run.drained ? tally.repeatedInTail
                               : tally.repeatedDraining);
                if (run.foreverDetected &&
                    run.injectCycle + run.foreverLatency >= *early.repeated)
                    ++tally.foreverAfterRepeat;
            } else {
                ++tally.full;
            }
        }
    }
    return tally;
}

std::vector<Draw>
siteDraws(const CampaignConfig &config, unsigned count)
{
    std::vector<Draw> draws;
    for (const FaultSite &site : FaultSiteCatalog::sampleSites(
             FaultSiteCatalog::enumerateNetwork(config.network), count,
             config.sampleSeed))
        draws.push_back({{site}, 0});
    return draws;
}

TEST(EarlyExitDifferential, WarmSynthetic8x8)
{
    const CampaignConfig config = battery(8, 600);
    const Tally tally = runBattery(config, siteDraws(config, 6), false);
    EXPECT_GT(tally.converged, 0u);
    EXPECT_GT(tally.repeatedDraining, 0u);
    EXPECT_GT(tally.repeatedInTail, 0u);
    EXPECT_GT(tally.full, 0u);
}

TEST(EarlyExitDifferential, ColdInstant)
{
    const CampaignConfig config = battery(4, 0);
    const Tally tally = runBattery(config, siteDraws(config, 12), false);
    EXPECT_GT(tally.converged, 0u);
    EXPECT_GT(tally.repeatedDraining, 0u);
    EXPECT_GT(tally.repeatedInTail, 0u);
}

TEST(EarlyExitDifferential, PhasedWithBursts)
{
    CampaignConfig config = battery(4, 200);
    ASSERT_EQ(nocalert::traffic::parsePhaseProgram(
                  "0:200:uniform:0.06,200:400:transpose:0.1,"
                  "400:600:hotspot:0.05:5:0.5",
                  config.workload.phased),
              "");
    ASSERT_EQ(nocalert::traffic::parseBurstSpec(
                  "64:0.5:2.0:0.25:2", config.workload.phased.burst),
              "");
    config.workload.phased.repeat = true;
    config.workload.phased.seed = 13;
    config.workload.kind = nocalert::traffic::WorkloadKind::Phased;
    config.forever.epochLength = 150; // golden alarms twice
    config = normalizedCampaignConfig(config);
    const Tally tally = runBattery(config, siteDraws(config, 12), false);
    EXPECT_GT(tally.converged, 0u);
    // ForEVeR fires fault-free under this load, so stopped runs take
    // their detection from golden's alarm list.
    EXPECT_GT(tally.foreverFromGolden, 0u);
    // This load still drains at window end + 128: nothing repeats.
    EXPECT_GT(tally.full, 0u);
}

TEST(EarlyExitDifferential, TraceReplay)
{
    CampaignConfig config = battery(4, 200);
    config.workload.kind = nocalert::traffic::WorkloadKind::Trace;
    config.workload.trace.path =
        std::string(NOCALERT_TEST_DATA) + "/phased_4x4.trace";
    config = normalizedCampaignConfig(config);
    const Tally tally = runBattery(config, siteDraws(config, 12), false);
    EXPECT_GT(tally.converged, 0u);
    EXPECT_GT(tally.repeatedDraining, 0u);
    EXPECT_GT(tally.repeatedInTail, 0u);
}

TEST(EarlyExitDifferential, SampledWithCycleJitter)
{
    CampaignConfig config = battery(4, 200);
    config.sampling.enabled = true;
    config.sampling.stratify = Stratify::None;
    config.sampling.maxRuns = 16;
    config.sampling.batchSize = 16;
    config.sampling.cycleJitter = 400; // some draws land past +256
    config.sampling.samplerSeed = 3;
    config = normalizedCampaignConfig(config);
    SampledPlanner planner(config, sampledPopulation(config));
    std::vector<Draw> draws;
    for (const SampledDraw &draw : planner.planBatch())
        draws.push_back({{draw.site}, draw.cycleOffset});
    ASSERT_FALSE(draws.empty());
    EXPECT_TRUE(std::any_of(draws.begin(), draws.end(), [](const Draw &d) {
        return d.offset >= kCheckpointOffsets.back();
    }));
    const Tally tally = runBattery(config, draws, true);
    EXPECT_GT(tally.converged, 0u);
    // A jittered run's first ForEVeR alarm can fall past the cut: the
    // bookkeeping ForEVeR runs alone after it raises it.
    EXPECT_GT(tally.foreverAfterRepeat, 0u);
}

TEST(EarlyExitDifferential, SimultaneousTransientPairs)
{
    // E12's shape (bench/ablations): consecutive draws of one sample
    // of the campaign's own surface, taken as pairs armed at the warm
    // instant of a 6x6 mesh without ForEVeR. The cuts' argument holds
    // for every transient fired by injection cycle + 1.
    CampaignConfig config = battery(6, 600);
    config.runForever = false;
    const std::vector<FaultSite> sites = FaultSiteCatalog::sampleSites(
        enumerateCampaignSites(config), 2 * 12, config.sampleSeed);
    std::vector<Draw> pairs;
    for (std::size_t i = 0; i + 1 < sites.size(); i += 2)
        pairs.push_back({{sites[i], sites[i + 1]}, 0});
    ASSERT_EQ(pairs.size(), 12u);
    const Tally tally = runBattery(config, pairs, false);
    EXPECT_GT(tally.converged, 0u);
    EXPECT_GT(tally.repeatedDraining, 0u);
}

TEST(EarlyExitDifferential, PermanentAndRecoveryRunsAreNeverCut)
{
    // A permanent fault keeps its injector and its router's pin; a
    // recovery run carries orchestrator state and retransmits.
    CampaignConfig permanent = battery(4, 200);
    permanent.kind = FaultKind::Permanent;
    CampaignConfig recovery = permanent;
    recovery.recovery = true;
    recovery = normalizedCampaignConfig(recovery);
    for (const CampaignConfig &config : {permanent, recovery}) {
        const FaultCampaign::PreparedReference prepared =
            FaultCampaign::prepareReference(config, config.workload.seed());
        for (const KernelMode mode :
             {KernelMode::Dense, KernelMode::Active, KernelMode::Bitmask}) {
            noc::Network base(prepared.base);
            base.setKernelMode(mode);
            for (const Draw &draw : siteDraws(config, 6)) {
                SCOPED_TRACE(described(draw) + " kernel " +
                             std::to_string(static_cast<int>(mode)) +
                             (config.recovery ? " recovery" : ""));
                FaultCampaign::EarlyExit early;
                const FaultRunResult run = FaultCampaign::runSingle(
                    config, base, prepared.golden, draw.sites, 0, &early);
                EXPECT_FALSE(early.converged);
                EXPECT_FALSE(early.repeated);
                EXPECT_EQ(toJson(run).dump(),
                          toJson(fullHorizonRun(config, base,
                                                prepared.golden,
                                                draw.sites, 0))
                              .dump());
            }
        }
    }
}

TEST(EarlyExit, OnlyPlainTransientCampaignsStopEarly)
{
    const CampaignConfig transient = battery(4, 200);
    const FaultCampaign::PreparedReference prepared =
        FaultCampaign::prepareReference(transient, 11);
    ASSERT_FALSE(prepared.golden.checkpoints().empty());

    CampaignConfig permanent = transient;
    permanent.kind = FaultKind::Permanent;
    CampaignConfig recovery = transient;
    recovery.recovery = true;
    recovery = normalizedCampaignConfig(recovery);
    CampaignConfig retransmit = transient;
    retransmit.network.retransmit.enabled = true;
    for (const CampaignConfig &config : {permanent, recovery, retransmit})
        EXPECT_TRUE(FaultCampaign::prepareReference(config, 11)
                        .golden.checkpoints()
                        .empty());
    // Handed a checkpointed reference of the same mesh, a permanent or
    // retransmitting run still goes the full length where the plain
    // transient one stops.
    std::size_t transient_stops = 0;
    for (const Draw &draw : siteDraws(transient, 8)) {
        FaultCampaign::EarlyExit early;
        FaultCampaign::runSingle(transient, prepared.base, prepared.golden,
                                 draw.sites, 0, &early);
        if (!early.converged)
            continue;
        ++transient_stops;
        for (const CampaignConfig *config : {&permanent, &retransmit}) {
            FaultCampaign::runSingle(*config, prepared.base,
                                     prepared.golden, draw.sites, 0, &early);
            EXPECT_FALSE(early.converged) << described(draw);
            EXPECT_FALSE(early.repeated) << described(draw);
        }
    }
    EXPECT_GT(transient_stops, 0u);
}

TEST(EarlyExit, ProgressCountsConvergedAndRepeatedRuns)
{
    CampaignConfig config = battery(4, 0);
    config.maxSites = 12;
    config.jobs = 2;
    exec::TelemetrySnapshot last;
    FaultCampaign::RunOptions options;
    options.telemetry = [&](const exec::TelemetrySnapshot &snap) {
        last = snap;
    };
    const CampaignResult result = FaultCampaign(config).run({}, options);

    // The same runs, one by one.
    const FaultCampaign::PreparedReference prepared =
        FaultCampaign::prepareReference(config, config.workload.seed());
    std::uint64_t converged = 0;
    std::uint64_t repeated = 0;
    for (const FaultRunResult &run : result.runs) {
        FaultCampaign::EarlyExit early;
        FaultCampaign::runSingle(config, prepared.base, prepared.golden,
                                 run.site, 0, &early);
        converged += early.converged ? 1 : 0;
        repeated += early.repeated ? 1 : 0;
    }
    ASSERT_GT(repeated, 0u);
    const auto count = [&](const std::string &label) {
        for (std::size_t i = 0; i < last.counterLabels.size(); ++i)
            if (last.counterLabels[i] == label)
                return last.counters[i];
        ADD_FAILURE() << "no counter " << label;
        return std::uint64_t{0};
    };
    EXPECT_EQ(count("stop"), converged);
    EXPECT_EQ(count("repeat"), repeated);
}

TEST(EarlyExit, NetworkMatchWithoutForeverMatchRunsOn)
{
    // Find a run whose network reaches a checkpoint's state while its
    // ForEVeR counters remember the fault (a spurious SA2 grant whose
    // stray read the network absorbs).
    const CampaignConfig config = battery(4, 200);
    const FaultCampaign::PreparedReference prepared =
        FaultCampaign::prepareReference(config, config.workload.seed());
    std::optional<Draw> found;
    noc::Cycle at = 0;
    for (const Draw &draw : siteDraws(config, 40)) {
        noc::Network net(prepared.base);
        forever::ForeverModel fever(net, config.forever, false);
        net.setNiObserver([&](const noc::NetworkInterface &ni,
                              const noc::NiWires &wires) {
            fever.observeNi(ni, wires);
        });
        net.setCycleObserver(
            [&](const noc::Network &n) { fever.onCycleEnd(n); });
        FaultInjector injector;
        injector.arm({draw.sites.front(), net.cycle(), config.kind});
        injector.attach(net);
        for (const GoldenReference::Checkpoint &cp :
             prepared.golden.checkpoints()) {
            net.run(cp.cycle() - net.cycle());
            if (net.sameState(cp.network)) {
                if (!(fever.state() == *cp.forever)) {
                    found = draw;
                    at = cp.cycle();
                }
                break;
            }
        }
        if (found)
            break;
    }
    ASSERT_TRUE(found) << "no run matched a checkpoint's network only";

    FaultCampaign::EarlyExit stop;
    const FaultRunResult early = FaultCampaign::runSingle(
        config, prepared.base, prepared.golden, found->sites, 0, &stop);
    EXPECT_NE(stop.converged, std::optional<noc::Cycle>(at))
        << described(*found);
    const GoldenReference bare = bareReference(config, prepared.base);
    const FaultRunResult full =
        fullHorizonRun(config, prepared.base, bare, found->sites, 0);
    EXPECT_EQ(toJson(early).dump(), toJson(full).dump());
}

} // namespace
} // namespace nocalert::fault
