#include "forever/forever.hpp"

#include "util/bits.hpp"

namespace nocalert::forever {

using noc::kMaxVcs;
using noc::kNumPorts;

const char *
foreverSourceName(ForeverAlert::Source source)
{
    switch (source) {
      case ForeverAlert::Source::CounterEpoch: return "counter-epoch";
      case ForeverAlert::Source::NegativeCounter: return "neg-counter";
      case ForeverAlert::Source::AllocationComparator: return "alloc-cmp";
      case ForeverAlert::Source::EndToEnd: return "end-to-end";
    }
    return "?";
}

ForeverModel::ForeverModel(noc::Network &network,
                           const ForeverConfig &config, bool attach_now)
    : network_(network),
      config_(config),
      checknet_(network.config(), config.hopLatency),
      start_cycle_(network.cycle())
{
    // Counters start at the number of flits already heading to each
    // node: those packets' notifications predate our attachment.
    const auto in_flight =
        network.countInFlightFlitsPerDst(/*include_queued=*/false);
    counters_.assign(in_flight.begin(), in_flight.end());
    epoch_min_ = counters_;
    touched_.assign(counters_.size(), 0);
    touched_list_.reserve(counters_.size());

    if (attach_now) {
        network.setRouterObserver(
            [this](const noc::Router &router,
                   const noc::RouterWires &wires) {
                observeRouter(router, wires);
            });
        network.setNiObserver(
            [this](const noc::NetworkInterface &ni,
                   const noc::NiWires &wires) { observeNi(ni, wires); });
        network.setCycleObserver(
            [this](const noc::Network &net) { onCycleEnd(net); });
    }
}

void
ForeverModel::recordAlert(ForeverAlert::Source source, noc::Cycle cycle,
                          noc::NodeId node)
{
    alerts_.push_back({source, cycle, node});
}

void
ForeverModel::observeRouter(const noc::Router &router,
                            const noc::RouterWires &wires)
{
    if (!config_.useAllocationComparator)
        return;

    const unsigned num_vcs = router.params().numVcs;
    auto invalid = [](std::uint64_t req, std::uint64_t grant,
                      unsigned clients) {
        req &= lowMask(clients);
        grant &= lowMask(clients);
        return (grant & ~req) != 0 || !isAtMostOneHot(grant);
    };

    bool fired = false;
    for (int p = 0; p < kNumPorts && !fired; ++p)
        fired = invalid(wires.in[p].sa1Req, wires.in[p].sa1Grant, num_vcs);
    for (int o = 0; o < kNumPorts && !fired; ++o)
        fired = invalid(wires.out[o].sa2Req, wires.out[o].sa2Grant,
                        kNumPorts);
    for (int o = 0; o < kNumPorts && !fired; ++o)
        for (unsigned w = 0; w < num_vcs && !fired; ++w)
            fired = invalid(wires.out[o].va2Req[w],
                            wires.out[o].va2Grant[w],
                            kNumPorts * kMaxVcs);

    if (fired) {
        recordAlert(ForeverAlert::Source::AllocationComparator,
                    wires.cycle, wires.router);
    }
}

void
ForeverModel::observeNi(const noc::NetworkInterface &ni,
                        const noc::NiWires &wires)
{
    // Ahead-of-time notification when a packet's header is injected.
    if (wires.injectValid && noc::isHead(wires.injectFlit.type)) {
        const auto &classes = network_.config().router.classes;
        const unsigned cls = wires.injectFlit.msgClass < classes.size()
            ? wires.injectFlit.msgClass : 0;
        checknet_.send(wires.cycle, ni.node(), wires.injectFlit.dst,
                       classes[cls].packetLength);
    }

    if (wires.ejectValid) {
        const auto node = static_cast<std::size_t>(ni.node());
        std::int64_t &counter = counters_[node];
        --counter;
        if (!touched_[node]) {
            touched_[node] = 1;
            touched_list_.push_back(ni.node());
        }
        if (counter < 0) {
            recordAlert(ForeverAlert::Source::NegativeCounter,
                        wires.cycle, ni.node());
        }
    }

    if (config_.useEndToEnd && wires.anomalies != 0)
        recordAlert(ForeverAlert::Source::EndToEnd, wires.cycle,
                    ni.node());
}

void
ForeverModel::endCycle(noc::Cycle completed)
{
    for (const Notification &note : checknet_.deliverUpTo(completed)) {
        if (note.dst >= 0 &&
            note.dst < static_cast<noc::NodeId>(counters_.size())) {
            counters_[static_cast<std::size_t>(note.dst)] +=
                note.flits;
        }
    }

    // Activity-gated minimum maintenance: only nodes that ejected
    // flits this cycle can have lowered their counter (notification
    // increments never lower a minimum), so only they need the update.
    for (const noc::NodeId node : touched_list_) {
        const auto n = static_cast<std::size_t>(node);
        epoch_min_[n] = std::min(epoch_min_[n], counters_[n]);
        touched_[n] = 0;
    }
    touched_list_.clear();

    const auto nodes = counters_.size();
    const noc::Cycle elapsed = completed - start_cycle_ + 1;
    if (elapsed > 0 && elapsed % config_.epochLength == 0) {
        for (std::size_t n = 0; n < nodes; ++n) {
            if (epoch_min_[n] > 0) {
                recordAlert(ForeverAlert::Source::CounterEpoch,
                            completed, static_cast<noc::NodeId>(n));
            }
        }
        epoch_min_ = counters_;
    }
}

std::optional<noc::Cycle>
ForeverModel::firstDetection(noc::Cycle from) const
{
    std::optional<noc::Cycle> first;
    for (const ForeverAlert &alert : alerts_) {
        if (alert.cycle >= from && (!first || alert.cycle < *first))
            first = alert.cycle;
    }
    return first;
}

} // namespace nocalert::forever
