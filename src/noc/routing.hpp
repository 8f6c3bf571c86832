/**
 * @file
 * Routing algorithms and the legality predicates the checkers use.
 *
 * Each algorithm provides (a) the routing function proper (consumed by
 * the RC pipeline stage) and (b) the functional rules it is governed
 * by — turn legality and minimality — from which the RC invariances
 * (1-3 in Table 1) are derived. The checkers deliberately do NOT
 * recompute the route (that would be modular redundancy); they only
 * test the cheap necessary conditions every legal output satisfies.
 */

#ifndef NOCALERT_NOC_ROUTING_HPP
#define NOCALERT_NOC_ROUTING_HPP

#include <cstddef>
#include <memory>
#include <unordered_set>

#include "noc/config.hpp"
#include "noc/flit.hpp"
#include "noc/types.hpp"

namespace nocalert::noc {

/**
 * Abstract routing algorithm.
 *
 * All provided algorithms are minimal and deterministic (adaptivity,
 * where present, uses a deterministic selection function so that
 * golden-reference runs are exactly reproducible).
 */
class RoutingAlgorithm
{
  public:
    virtual ~RoutingAlgorithm() = default;

    /** Algorithm identifier. */
    virtual RoutingAlgo kind() const = 0;

    /**
     * Compute the output port for @p flit (a header) located at router
     * @p here having entered through @p in_port. Returns a port index;
     * Local when @p here is the destination.
     */
    virtual int route(const NetworkConfig &config, NodeId here,
                      const Flit &flit, int in_port) const = 0;

    /**
     * Turn legality rule (invariance 1). True iff a packet of @p flit
     * entering through @p in_port may legally leave through
     * @p out_port under this algorithm's deadlock-avoidance rules.
     * U-turns (out_port == in_port on a mesh port) are illegal for
     * every algorithm.
     */
    virtual bool legalTurn(const Flit &flit, int in_port,
                           int out_port) const = 0;

    /**
     * True iff the algorithm guarantees minimal paths, enabling the
     * non-minimal-routing invariance (3).
     */
    virtual bool minimalRequired() const { return true; }

    /**
     * Minimal-step rule (invariance 3): true iff sending the flit
     * through @p out_port from @p here strictly decreases the hop
     * distance to its destination (or ejects it at the destination).
     * Only meaningful when minimalRequired().
     */
    bool minimalStep(const NetworkConfig &config, NodeId here,
                     const Flit &flit, int out_port) const;

    /**
     * Mark output port @p port of router @p node quarantined. Only
     * quarantine-aware algorithms (QAdaptive) consult the set; for the
     * others this is inert bookkeeping. Quarantine is runtime state of
     * the routing instance — a Network copy recreates its routing and
     * therefore starts with an empty quarantine set.
     */
    void quarantine(NodeId node, int port);

    /** True iff (node, port) has been quarantined. */
    bool isQuarantined(NodeId node, int port) const;

    /** Number of quarantined (node, port) pairs. */
    std::size_t quarantinedCount() const { return quarantined_.size(); }

    /** Lift every quarantine. */
    void clearQuarantine() { quarantined_.clear(); }

    /** True iff both instances quarantine the same (node, port) set
     *  (their only runtime state). */
    bool
    sameQuarantine(const RoutingAlgorithm &other) const
    {
        return quarantined_ == other.quarantined_;
    }

  private:
    std::unordered_set<long long> quarantined_;
};

/** Instantiate a routing algorithm by id. */
std::unique_ptr<RoutingAlgorithm> makeRouting(RoutingAlgo algo);

/**
 * Dimension-ordered routing: X fully first (XY) or Y fully first (YX).
 * XY is the paper's baseline. Forbidden turns: XY forbids any
 * Y-dimension input turning to an X-dimension output; YX the converse.
 */
class DimensionOrderRouting : public RoutingAlgorithm
{
  public:
    /** @param x_first true for XY, false for YX. */
    explicit DimensionOrderRouting(bool x_first);

    RoutingAlgo kind() const override;
    int route(const NetworkConfig &config, NodeId here, const Flit &flit,
              int in_port) const override;
    bool legalTurn(const Flit &flit, int in_port,
                   int out_port) const override;

  private:
    bool x_first_;
};

/**
 * West-first turn-model routing (Glass & Ni). All westward hops are
 * taken first; afterwards the packet may move adaptively among the
 * remaining productive directions (selection here: largest remaining
 * offset, deterministic). Forbidden turns: any turn into West.
 */
class WestFirstRouting : public RoutingAlgorithm
{
  public:
    RoutingAlgo kind() const override { return RoutingAlgo::WestFirst; }
    int route(const NetworkConfig &config, NodeId here, const Flit &flit,
              int in_port) const override;
    bool legalTurn(const Flit &flit, int in_port,
                   int out_port) const override;
};

/**
 * O1Turn: each packet independently uses XY or YX, chosen by packet-id
 * parity (deterministic stand-in for the random coin of the original
 * proposal). Turn legality depends on the packet's chosen order, which
 * invariance 1 recovers from the flit's packet id.
 */
class O1TurnRouting : public RoutingAlgorithm
{
  public:
    RoutingAlgo kind() const override { return RoutingAlgo::O1Turn; }
    int route(const NetworkConfig &config, NodeId here, const Flit &flit,
              int in_port) const override;
    bool legalTurn(const Flit &flit, int in_port,
                   int out_port) const override;

    /** True iff @p flit routes X-first. */
    static bool xFirst(const Flit &flit);
};

/**
 * Quarantine-aware adaptive routing for fault recovery.
 *
 * Built on the west-first turn model so it stays deadlock-free even
 * when taking non-minimal detours: all westward hops are taken first
 * (mandatory — turning into West is the forbidden turn, so no legal
 * detour around a quarantined West port exists); once west progress is
 * done the packet prefers the exact XY choice, falling through to the
 * other productive direction and then to non-minimal North/South
 * escape hops when the preferred ports are quarantined. East is never
 * taken when dx == 0 (overshooting would require a forbidden west
 * hop later). With an empty quarantine set the selected port is
 * exactly XY's, so fault-free traffic is undisturbed. Because escapes
 * are non-minimal, minimalRequired() is false and invariance 3 is
 * disarmed for this algorithm.
 */
class QAdaptiveRouting : public RoutingAlgorithm
{
  public:
    RoutingAlgo kind() const override { return RoutingAlgo::QAdaptive; }
    int route(const NetworkConfig &config, NodeId here, const Flit &flit,
              int in_port) const override;
    bool legalTurn(const Flit &flit, int in_port,
                   int out_port) const override;
    bool minimalRequired() const override { return false; }
};

} // namespace nocalert::noc

#endif // NOCALERT_NOC_ROUTING_HPP
