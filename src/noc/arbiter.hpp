/**
 * @file
 * The round-robin arbiter.
 *
 * Arbiters are the workhorses of the VA and SA pipeline stages. The
 * grant computation is exposed as a pure function of (request vector,
 * priority state) so the router can place both vectors on the cycle's
 * wire record, where fault injection and the NoCAlert checkers
 * (invariances 4-6) can see them.
 */

#ifndef NOCALERT_NOC_ARBITER_HPP
#define NOCALERT_NOC_ARBITER_HPP

#include <cstdint>

#include "util/bits.hpp"

namespace nocalert::noc {

/**
 * Round-robin arbiter over up to 64 clients.
 *
 * The rotating priority pointer is architectural state (a fault
 * injection target). Grants are one-hot; a zero request vector yields
 * a zero grant vector.
 */
class RoundRobinArbiter
{
  public:
    /** Construct for @p num_clients clients. */
    explicit RoundRobinArbiter(unsigned num_clients = 1);

    /** Current priority pointer (client index searched first). */
    unsigned pointer() const { return pointer_; }

    /** Overwrite the priority pointer (fault injection hook). */
    void setPointer(unsigned pointer) { pointer_ = pointer; }

    /**
     * Pure grant computation: the first requesting client at or after
     * @p pointer (mod @p num_clients) wins. Returns a one-hot grant
     * vector, or 0 when @p requests is 0.
     */
    static std::uint64_t compute(std::uint64_t requests, unsigned pointer,
                                 unsigned num_clients)
    {
        requests &= lowMask(num_clients);
        if (requests == 0)
            return 0;
        // First requesting client at or after the pointer (mod
        // num_clients), wrapping once around. A corrupted pointer
        // >= num_clients behaves like pointer % num_clients, as the
        // wrap logic in hardware would. Branch-free search: mask off
        // the clients below the pointer, fall back to the full vector
        // when nothing at-or-above requests, take the lowest set bit.
        std::uint64_t at_or_above =
            requests & ~lowMask(pointer % num_clients);
        std::uint64_t candidates = at_or_above ? at_or_above : requests;
        return candidates & (~candidates + 1);
    }

    /**
     * Commit the pointer update implied by @p grant (the winner's
     * successor gains top priority). Non-one-hot grants — possible
     * only under fault injection — leave the pointer unchanged, as a
     * corrupted grant vector would feed garbage into the pointer
     * update logic in hardware; keeping it stable is the benign
     * modelling choice.
     */
    void commit(std::uint64_t grant)
    {
        grant &= lowMask(num_clients_);
        if (!isOneHot(grant))
            return;
        unsigned winner = static_cast<unsigned>(lowestSetBit(grant));
        pointer_ = (winner + 1) % num_clients_;
    }

    bool operator==(const RoundRobinArbiter &) const = default;

  private:
    unsigned num_clients_;
    unsigned pointer_ = 0;
};

} // namespace nocalert::noc

#endif // NOCALERT_NOC_ARBITER_HPP
