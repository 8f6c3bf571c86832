#include "hw/checkcost.hpp"

#include "hw/modules.hpp"
#include "util/bits.hpp"

namespace nocalert::hw {

using core::InvariantId;

namespace {

/**
 * Grant-without-request over an N-client arbiter (Figure 4): one
 * INV + AND per client and an OR tree. The inverted-request bus and
 * the "any request"/"any grant" trees are shared with the companion
 * checkers 5 and 6 at synthesis, so those two are costed as the small
 * residual logic they add on top.
 */
GateCounts
grantWoReqGates(double n)
{
    return {n / 2, n, n / 2, 0, 0, 0};
}

/** Request-present / grant-absent detector (shares the any-trees). */
GateCounts
grantToNobodyGates(double /*n*/)
{
    return {1, 1, 3, 0, 0, 0};
}

/** At-most-one-hot detector: a "seen a one already" carry chain. */
GateCounts
oneHotGates(double n)
{
    return {0, n, n / 2, 0, 0, 0};
}

double
log2ceil(unsigned n)
{
    return static_cast<double>(bitsFor(n < 2 ? 2 : n));
}

} // namespace

GateCounts
checkerGates(InvariantId id, const noc::NetworkConfig &config)
{
    const noc::RouterParams &params = config.router;
    const double p = noc::kNumPorts;
    const double v = params.numVcs;
    const double pv = p * v;
    const double credit_bits = log2ceil(params.bufferDepth + 1);
    const double vc_bits = log2ceil(params.numVcs);
    const double xb = log2ceil(static_cast<unsigned>(config.width));
    const double yb = log2ceil(static_cast<unsigned>(config.height));
    const double node_bits = xb + yb;

    switch (id) {
      case InvariantId::IllegalTurn:
        // Turn-rule lookup on the 3-bit direction per input port.
        return GateCounts{2, 6, 3, 0, 0, 0} * p;
      case InvariantId::InvalidRcOutput:
        // Range/connectivity decode per port + per-VC register check.
        return GateCounts{2, 5, 2, 0, 0, 0} * p +
               GateCounts{1, 2, 1, 0, 0, 0} * pv;
      case InvariantId::NonMinimalRoute:
        // Distance comparator per input port.
        return GateCounts{2, 6, 4, 2 * (xb + yb), 0, 0} * p;

      case InvariantId::GrantWithoutRequest:
        // SA stages monitor the (small) one-hot vectors directly; for
        // the wide VA2 matrix the checker compares the *encoded* VC id
        // each input VC requested against the one it was granted —
        // value comparison, not 1-hot wire monitoring (Section 4.2).
        return grantWoReqGates(v) * p +              // SA1
               grantWoReqGates(p) * p +              // SA2
               GateCounts{1, 2, 1, vc_bits, 0, 0} * pv; // VA2 per VC
      case InvariantId::GrantToNobody:
        return grantToNobodyGates(v) * p + grantToNobodyGates(p) * p +
               grantToNobodyGates(pv) * p;
      case InvariantId::GrantNotOneHot:
        return oneHotGates(v) * p + oneHotGates(p) * p +
               oneHotGates(pv) * p;
      case InvariantId::GrantToOccupiedOrFullVc:
        // Free bit + credit comparator per output VC.
        return GateCounts{1, 3, 2, credit_bits, 0, 0} * pv;
      case InvariantId::OneToOneVcAssignment:
        return GateCounts{0, 2, 2, 0, 0, 0} * pv;
      case InvariantId::OneToOnePortAssignment:
        return GateCounts{0, p, p - 1, 0, 0, 0} * p;
      case InvariantId::VaAgreesWithRc:
        return GateCounts{0, 2, 2, 3, 0, 0} * pv;
      case InvariantId::SaAgreesWithRc:
        return GateCounts{0, 2, 2, 3, 0, 0} * p;
      case InvariantId::IntraVaStageOrder:
        return GateCounts{0, 2, 1, vc_bits, 0, 0} * pv;
      case InvariantId::IntraSaStageOrder:
        return GateCounts{1, 2, 1, 0, 0, 0} * p;

      case InvariantId::XbarColumnOneHot:
        return oneHotGates(p) * p;
      case InvariantId::XbarRowOneHot:
        return oneHotGates(p) * p;
      case InvariantId::XbarFlitConservation:
        // Two small population counters plus a comparator.
        return {2, 3 * p, 2 * p, 2 * p + 3, 0, 0};

      case InvariantId::ConsistentVcState:
        return GateCounts{2, 6, 4, 0, 0, 0} * pv;
      case InvariantId::HeaderOnlyIntoFreeVc:
        return GateCounts{1, 3, 1, 0, 0, 0} * pv;
      case InvariantId::InvalidOutputVcValue:
        return GateCounts{1, 2, 1, 0, 0, 0} * pv;
      case InvariantId::RcOnNonHeaderFlit:
        return GateCounts{1, 2, 1, 0, 0, 0} * p;
      case InvariantId::RcOnEmptyVc:
        return GateCounts{1, 2, 1, 0, 0, 0} * p;
      case InvariantId::VaOnNonHeaderFlit:
        return GateCounts{1, 2, 1, 0, 0, 0} * pv;
      case InvariantId::VaOnEmptyVc:
        return GateCounts{1, 2, 1, 0, 0, 0} * pv;

      case InvariantId::ReadFromEmptyBuffer:
        // Occupancy-zero detect per VC.
        return GateCounts{1, credit_bits, 1, 0, 0, 0} * pv;
      case InvariantId::WriteToFullBuffer:
        return GateCounts{1, credit_bits, 1, 0, 0, 0} * pv;
      case InvariantId::BufferAtomicityViolation:
        return GateCounts{1, 3, 2, 0, 0, 0} * pv;
      case InvariantId::NonAtomicPacketMixing:
        return GateCounts{1, 3, 2, 0, 0, 0} * pv;
      case InvariantId::PacketFlitCountViolation:
        return GateCounts{1, 3, 2, credit_bits, 0, 0} * pv;

      case InvariantId::ConcurrentReadMultipleVcs:
        return oneHotGates(v) * p;
      case InvariantId::ConcurrentWriteMultipleVcs:
        return oneHotGates(v) * p;
      case InvariantId::ConcurrentRcMultipleVcs:
        return oneHotGates(v) * p;

      case InvariantId::EjectionAtWrongDestination:
        // Destination comparator at the ejection interface.
        return {1, 3, node_bits - 1, node_bits, 0, 0};
    }
    return {};
}

GateCounts
nocalertTotal(const noc::NetworkConfig &config)
{
    GateCounts total;
    for (const CheckerCostRow &row : checkerCostTable(config))
        total += row.gates;
    // A final OR tree combining the individual checker flags.
    total += GateCounts{0, 0, core::kNumInvariants - 1, 0, 0, 0};
    return total;
}

GateCounts
dmrControlLogic(const noc::NetworkConfig &config)
{
    const GateCounts control = routerControlLogic(config);
    // Duplicate the control plane and compare its architectural
    // outputs (one XOR per register bit plus the OR reduce tree).
    const double compared_bits = control.dff;
    GateCounts dmr = control;
    dmr.xor2 += compared_bits;
    dmr.or2 += compared_bits / 2;
    return dmr;
}

std::vector<CheckerCostRow>
checkerCostTable(const noc::NetworkConfig &config)
{
    std::vector<CheckerCostRow> rows;
    for (const core::InvariantInfo &info : core::invariantCatalog()) {
        if (core::invariantApplies(info, config.router))
            rows.push_back({info.id, checkerGates(info.id, config)});
    }
    return rows;
}

} // namespace nocalert::hw
