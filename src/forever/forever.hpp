/**
 * @file
 * Behavioural model of the ForEVeR fault-detection framework (Parikh
 * & Bertacco, MICRO 2011), the paper's comparison baseline
 * (Sections 2.2 and 5).
 *
 * Three detectors cooperate:
 *  1. Destination counters fed by checker-network notifications: every
 *     source notifies the destination of an incoming packet's flit
 *     count ahead of time; the destination decrements per ejected
 *     flit. Time is split into epochs (default 1,500 cycles — the
 *     shortest the paper found free of excessive false positives);
 *     an alarm is raised when a counter fails to touch zero within an
 *     epoch, or ever goes negative.
 *  2. The Allocation Comparator (Shamshiri et al.): instantaneous
 *     detection of invalid arbiter operations (grants without
 *     requests, non-one-hot grants).
 *  3. An end-to-end checker at the ejection interface.
 *
 * Detection latency is dominated by the epoch quantization, which is
 * exactly the behaviour Figure 7 of the NoCAlert paper contrasts with
 * NoCAlert's same-cycle assertions.
 */

#ifndef NOCALERT_FOREVER_FOREVER_HPP
#define NOCALERT_FOREVER_FOREVER_HPP

#include <cstdint>
#include <map>
#include <optional>
#include <vector>

#include "forever/checknet.hpp"
#include "noc/network.hpp"

namespace nocalert::forever {

/** ForEVeR parameters. */
struct ForeverConfig
{
    noc::Cycle epochLength = 1500;
    noc::Cycle hopLatency = 1;
    bool useAllocationComparator = true;
    bool useEndToEnd = true;
};

/** One ForEVeR detection event. */
struct ForeverAlert
{
    enum class Source : std::uint8_t {
        CounterEpoch,        ///< Counter failed to reach zero in an epoch.
        NegativeCounter,     ///< More flits arrived than were notified.
        AllocationComparator,///< Invalid arbiter operation.
        EndToEnd,            ///< Ejection-interface check.
    };

    Source source = Source::CounterEpoch;
    noc::Cycle cycle = 0;
    noc::NodeId node = noc::kInvalidNode;
};

/** Name of an alert source. */
const char *foreverSourceName(ForeverAlert::Source source);

/**
 * The part of a ForeverModel that decides every later alert, taken
 * at a cycle boundary: the epoch origin, the destination counters,
 * the epoch minima and the checker-network notifications in flight.
 * The alert list is output only, and the touched-node list is empty
 * at every boundary. Two models in equal states attached to equal
 * networks raise the same alerts from then on.
 */
struct ForeverState
{
    noc::Cycle startCycle = 0;
    std::vector<std::int64_t> counters;
    std::vector<std::int64_t> epochMin;
    std::multimap<noc::Cycle, Notification> notifications;

    bool operator==(const ForeverState &) const = default;
};

/** ForEVeR attached to one network instance. */
class ForeverModel
{
  public:
    /**
     * Construct over @p network. Counters are synchronized to the
     * network's current in-flight traffic so the model can attach to
     * a warmed-up snapshot without spurious alarms.
     *
     * With @p attach_now the model installs itself as the network's
     * router/NI/cycle observer; otherwise compose the observe* calls
     * manually (as the fault campaign does to run ForEVeR alongside
     * NoCAlert on one run).
     */
    ForeverModel(noc::Network &network, const ForeverConfig &config,
                 bool attach_now = true);

    /**
     * Allocation-comparator tap on a router's finished cycle.
     *
     * Under KernelMode::Bitmask the network calls this only for
     * routers that take the branchy path; fast-path routers never
     * materialise RouterWires. That loses nothing: a fast-path
     * router's SA1/SA2/VA2 grants come from RoundRobinArbiter::compute
     * over its own request words, so each grant is a one-hot subset
     * of its requests and the comparator cannot fire on it. Fault
     * injection reaches a router only through its tap hook, which
     * pins the router to the branchy path while it is installed.
     */
    void observeRouter(const noc::Router &router,
                       const noc::RouterWires &wires);

    /** Notification/counter/end-to-end tap on an NI's cycle. */
    void observeNi(const noc::NetworkInterface &ni,
                   const noc::NiWires &wires);

    /** Epoch bookkeeping; call once per completed network cycle. */
    void
    onCycleEnd(const noc::Network &network)
    {
        endCycle(network.cycle() - 1);
    }

    /**
     * The bookkeeping of completed cycle @p completed without a
     * network: notifications in flight land and epoch boundaries are
     * checked. For a cycle in which no NI injected or ejected a flit
     * and no router raised an invalid grant, that is everything
     * ForEVeR does, so a run whose network has stopped changing calls
     * this alone up to the horizon it would have simulated.
     */
    void endCycle(noc::Cycle completed);

    /** All detection events so far. */
    const std::vector<ForeverAlert> &alerts() const { return alerts_; }

    /** Cycle of the first detection event at or after @p from, if any. */
    std::optional<noc::Cycle> firstDetection(noc::Cycle from = 0) const;

    /** Detector state at the current cycle boundary. */
    ForeverState state() const
    {
        return {start_cycle_, counters_, epoch_min_, checknet_.pending()};
    }

    /** Current counter value of node @p node (tests). */
    std::int64_t counter(noc::NodeId node) const
    {
        return counters_[static_cast<std::size_t>(node)];
    }

  private:
    void recordAlert(ForeverAlert::Source source, noc::Cycle cycle,
                     noc::NodeId node);

    noc::Network &network_;
    ForeverConfig config_;
    CheckerNetwork checknet_;

    std::vector<std::int64_t> counters_;
    std::vector<std::int64_t> epoch_min_;

    /**
     * Nodes whose counter was decremented since the last cycle end.
     * The per-cycle epoch-minimum update only visits these: a minimum
     * can only drop when its counter dropped, and counters drop only
     * on ejections (notifications strictly increment). Replaces an
     * O(nodes) every-cycle sweep with work proportional to actual
     * ejection activity — behaviour-identical by construction.
     */
    std::vector<std::uint8_t> touched_;
    std::vector<noc::NodeId> touched_list_;

    noc::Cycle start_cycle_ = 0;

    std::vector<ForeverAlert> alerts_;
};

} // namespace nocalert::forever

#endif // NOCALERT_FOREVER_FOREVER_HPP
