/**
 * @file
 * The ForEVeR checker network (Parikh & Bertacco, MICRO 2011): a
 * lightweight, assumed-100%-reliable secondary mesh that carries
 * ahead-of-time notifications from packet sources to destinations.
 *
 * Modelled behaviourally: a notification sent at cycle t from s to d
 * arrives at t + hops(s,d) * hopLatency + 1. The checker network is
 * single-flit, low-bandwidth, and contention is negligible at the
 * notification rates of interest, so no per-hop queueing is modelled
 * (the paper's own evaluation treats it as reliable and fast).
 */

#ifndef NOCALERT_FOREVER_CHECKNET_HPP
#define NOCALERT_FOREVER_CHECKNET_HPP

#include <cstdint>
#include <map>
#include <vector>

#include "noc/config.hpp"
#include "noc/types.hpp"

namespace nocalert::forever {

/** One notification in flight on the checker network. */
struct Notification
{
    noc::NodeId dst = noc::kInvalidNode;
    std::uint32_t flits = 0; ///< Expected flit count of the packet.

    bool operator==(const Notification &) const = default;
};

/** Behavioural checker-network model. */
class CheckerNetwork
{
  public:
    /** @param hop_latency Cycles per checker-network hop. */
    CheckerNetwork(const noc::NetworkConfig &config,
                   noc::Cycle hop_latency);

    /** Send a notification; returns its arrival cycle. */
    noc::Cycle send(noc::Cycle now, noc::NodeId src, noc::NodeId dst,
                    std::uint32_t flits);

    /** Pop every notification with arrival cycle <= @p now. */
    std::vector<Notification> deliverUpTo(noc::Cycle now);

    /** Notifications still in flight. */
    std::size_t inFlight() const { return pending_count_; }

    /** The in-flight notifications keyed by arrival cycle, in delivery
     *  order. */
    const std::multimap<noc::Cycle, Notification> &pending() const
    {
        return pending_;
    }

  private:
    const noc::NetworkConfig *config_;
    noc::Cycle hop_latency_;
    std::multimap<noc::Cycle, Notification> pending_;
    std::size_t pending_count_ = 0;
};

} // namespace nocalert::forever

#endif // NOCALERT_FOREVER_CHECKNET_HPP
