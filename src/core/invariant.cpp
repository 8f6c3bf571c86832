#include "core/invariant.hpp"

#include "noc/config.hpp"
#include "util/log.hpp"

namespace nocalert::core {

const char *
moduleClassName(ModuleClass cls)
{
    switch (cls) {
      case ModuleClass::RoutingComputation: return "RC unit";
      case ModuleClass::Arbiters: return "Arbiters (VA/SA)";
      case ModuleClass::Crossbar: return "Crossbar";
      case ModuleClass::VcState: return "VC state";
      case ModuleClass::Buffer: return "Buffer";
      case ModuleClass::PortLevel: return "Port-level";
      case ModuleClass::NetworkLevel: return "Network-level";
    }
    return "?";
}

namespace {

constexpr std::uint8_t kBD = kBoundedDelivery;
constexpr std::uint8_t kFD = kNoFlitDrop;
constexpr std::uint8_t kNG = kNoNewFlitGeneration;
constexpr std::uint8_t kCM = kNoCorruptionOrMixing;

// Figure 3 of the paper categorizes the 32 invariants under the four
// correctness conditions (several at intersections); the published
// figure is partially illegible in the source text, so the mapping
// below reconstructs it from each invariant's failure semantics as
// discussed in Sections 4.1 and 5.4.
const std::vector<InvariantInfo> &
buildCatalog()
{
    static const std::vector<InvariantInfo> catalog = {
        {InvariantId::IllegalTurn, "Illegal turn",
         "Routing algorithms forbid some turns to prevent deadlocks; the "
         "RC output must respect the turn rules for the input the packet "
         "arrived on.",
         ModuleClass::RoutingComputation, kBD, RiskLevel::Low,
         false, false, false, false},
        {InvariantId::InvalidRcOutput, "Invalid RC output direction",
         "The RC output must name an existing, connected output port of "
         "this router.",
         ModuleClass::RoutingComputation, kBD | kFD, RiskLevel::Standard,
         false, false, false, false},
        {InvariantId::NonMinimalRoute, "Non-minimal routing (if required)",
         "Under a minimal routing algorithm the RC output must take the "
         "flit one step closer to its destination.",
         ModuleClass::RoutingComputation, kBD, RiskLevel::Low,
         false, false, true, false},
        {InvariantId::GrantWithoutRequest, "Grant w/o request",
         "It is not possible for a client to win a grant without making "
         "a request.",
         ModuleClass::Arbiters, kBD | kNG | kCM, RiskLevel::Standard,
         false, false, false, false},
        {InvariantId::GrantToNobody, "Grant to nobody",
         "The arbiter must always declare a winner when there is at "
         "least one client request.",
         ModuleClass::Arbiters, kBD, RiskLevel::PermanentSensitive,
         false, false, false, false},
        {InvariantId::GrantNotOneHot, "1-hot grant vector",
         "The arbiter's grant vector must have at most one bit set.",
         ModuleClass::Arbiters, kCM | kNG, RiskLevel::Standard,
         false, false, false, false},
        {InvariantId::GrantToOccupiedOrFullVc, "Grant to occupied/full VC",
         "A VC allocation grant to an occupied output VC, or to one "
         "whose downstream buffer lacks space (by the neighbor's "
         "credits), is forbidden.",
         ModuleClass::Arbiters, kFD | kCM, RiskLevel::Standard,
         false, false, false, true},
        {InvariantId::OneToOneVcAssignment, "One-to-one VC assignment",
         "An input VC must not be assigned to multiple output VCs.",
         ModuleClass::Arbiters, kCM, RiskLevel::Standard,
         false, false, false, true},
        {InvariantId::OneToOnePortAssignment, "One-to-one port assignment",
         "An input port must not gain simultaneous access to multiple "
         "output ports.",
         ModuleClass::Arbiters, kNG | kCM, RiskLevel::Standard,
         false, false, false, false},
        {InvariantId::VaAgreesWithRc, "VA agrees with RC",
         "The output VC assigned by the VA unit must belong to the "
         "output port computed by the RC stage.",
         ModuleClass::Arbiters, kBD | kCM, RiskLevel::Standard,
         false, false, false, true},
        {InvariantId::SaAgreesWithRc, "SA agrees with RC",
         "The switch arbitration result must be in agreement with the "
         "RC stage result.",
         ModuleClass::Arbiters, kBD | kCM, RiskLevel::Standard,
         false, false, false, false},
        {InvariantId::IntraVaStageOrder, "Intra-VA stage order",
         "If a VC wins the VA2 (global) arbitration it must also have "
         "won its VA1 (local) stage.",
         ModuleClass::Arbiters, kCM, RiskLevel::Standard,
         false, false, false, true},
        {InvariantId::IntraSaStageOrder, "Intra-SA stage order",
         "If a VC wins the SA2 (global) arbitration it must also have "
         "won its SA1 (local) stage.",
         ModuleClass::Arbiters, kBD | kFD | kCM, RiskLevel::Standard,
         false, false, false, false},
        {InvariantId::XbarColumnOneHot, "1-hot column control vector",
         "At most one connection may be active in each column of the "
         "crossbar per cycle (no flit collisions).",
         ModuleClass::Crossbar, kFD | kCM, RiskLevel::Standard,
         false, false, false, false},
        {InvariantId::XbarRowOneHot, "1-hot row control vector",
         "At most one connection may be active in each row of the "
         "crossbar per cycle (no unwanted multicast).",
         ModuleClass::Crossbar, kNG, RiskLevel::Standard,
         false, false, false, false},
        {InvariantId::XbarFlitConservation, "#in flits == #out flits",
         "The number of flits exiting the crossbar each cycle must "
         "equal the number entering it.",
         ModuleClass::Crossbar, kFD | kNG, RiskLevel::Standard,
         false, false, false, false},
        {InvariantId::ConsistentVcState, "Consistent VC buffer state",
         "The router pipeline stages must be executed in the correct "
         "order on consistently tracked VC state.",
         ModuleClass::VcState, kBD | kFD | kNG | kCM,
         RiskLevel::Standard, false, false, false, false},
        {InvariantId::HeaderOnlyIntoFreeVc, "Only headers enter free VCs",
         "While a VC is free (not allocated to an in-flight packet) "
         "only a header flit may enter its buffer.",
         ModuleClass::VcState, kCM, RiskLevel::Standard,
         false, false, false, false},
        {InvariantId::InvalidOutputVcValue, "Invalid output VC value",
         "The output VC saved at the end of the VA stage to extend the "
         "wormhole cannot be out of range.",
         ModuleClass::VcState, kFD | kCM, RiskLevel::Standard,
         false, false, false, true},
        {InvariantId::RcOnNonHeaderFlit, "Complete RC on non-header flit",
         "Routing computation is performed only on header flits.",
         ModuleClass::VcState, kBD | kNG, RiskLevel::Standard,
         false, false, false, false},
        {InvariantId::RcOnEmptyVc, "Complete RC on empty VC",
         "A transition from the RC to the VA stage is forbidden when "
         "the VC's buffer is empty.",
         ModuleClass::VcState, kNG, RiskLevel::Standard,
         false, false, false, false},
        {InvariantId::VaOnNonHeaderFlit, "Complete VA on non-header flit",
         "Virtual-channel allocation is performed only on header flits.",
         ModuleClass::VcState, kCM, RiskLevel::Standard,
         false, false, false, true},
        {InvariantId::VaOnEmptyVc, "Complete VA on empty VC",
         "A transition from the VA to the SA stage is forbidden when "
         "the VC's buffer is empty.",
         ModuleClass::VcState, kNG, RiskLevel::Standard,
         false, false, false, true},
        {InvariantId::ReadFromEmptyBuffer, "Read from an empty buffer",
         "A read signal cannot be issued to an empty VC buffer.",
         ModuleClass::Buffer, kNG, RiskLevel::Standard,
         false, false, false, false},
        {InvariantId::WriteToFullBuffer, "Write to a full buffer",
         "A write signal cannot be issued to a full VC buffer.",
         ModuleClass::Buffer, kFD, RiskLevel::Standard,
         false, false, false, false},
        {InvariantId::BufferAtomicityViolation, "Buffer atomicity violation",
         "With atomic buffers only flits of a single packet may reside "
         "in a VC; a header cannot arrive at a non-free VC.",
         ModuleClass::Buffer, kCM, RiskLevel::Standard,
         true, false, false, false},
        {InvariantId::NonAtomicPacketMixing, "Packet mixing (non-atomic)",
         "With non-atomic buffers a tail flit may only be followed by a "
         "header flit.",
         ModuleClass::Buffer, kCM, RiskLevel::Standard,
         false, true, false, false},
        {InvariantId::PacketFlitCountViolation, "Packet flit-count violation",
         "Packets of the same message class have the same length: the "
         "number of flits arriving at a VC for one packet must equal "
         "the class's predefined constant.",
         ModuleClass::Buffer, kFD | kNG | kCM, RiskLevel::Standard,
         false, false, false, false},
        {InvariantId::ConcurrentReadMultipleVcs,
         "Concurrent read from multiple VCs",
         "Only one flit may leave a single input port per cycle "
         "(output multiplexer).",
         ModuleClass::PortLevel, kNG | kCM, RiskLevel::Standard,
         false, false, false, true},
        {InvariantId::ConcurrentWriteMultipleVcs,
         "Concurrent write to multiple VCs",
         "Only one flit may arrive at a single input port per cycle "
         "(input demultiplexer).",
         ModuleClass::PortLevel, kNG | kCM, RiskLevel::Standard,
         false, false, false, true},
        {InvariantId::ConcurrentRcMultipleVcs,
         "Concurrent RC completion of multiple VCs",
         "Since only one flit can arrive per port per cycle, only one "
         "VC per port may complete RC per cycle (atomic buffers, shared "
         "routing algorithm).",
         ModuleClass::PortLevel, kBD | kCM, RiskLevel::Standard,
         true, false, false, true},
        {InvariantId::EjectionAtWrongDestination,
         "Ejection at wrong destination",
         "End-to-end: a flit may only exit the network at its intended "
         "destination node, as part of its own packet, in order.",
         ModuleClass::NetworkLevel, kBD | kFD | kCM,
         RiskLevel::Standard, false, false, false, false},
    };
    return catalog;
}

} // namespace

const std::vector<InvariantInfo> &
invariantCatalog()
{
    return buildCatalog();
}

const InvariantInfo &
invariantInfo(InvariantId id)
{
    const unsigned index = invariantIndex(id);
    NOCALERT_ASSERT(index >= 1 && index <= kNumInvariants,
                    "bad invariant id ", index);
    const InvariantInfo &info = invariantCatalog()[index - 1];
    NOCALERT_ASSERT(info.id == id, "catalog order mismatch at ", index);
    return info;
}

const char *
invariantName(InvariantId id)
{
    return invariantInfo(id).name;
}

bool
invariantApplies(const InvariantInfo &info, const noc::RouterParams &params)
{
    return !(info.atomicOnly && !params.atomicBuffers) &&
           !(info.nonAtomicOnly && params.atomicBuffers) &&
           !(info.needsVcs && params.numVcs <= 1);
}

} // namespace nocalert::core
