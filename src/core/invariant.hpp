/**
 * @file
 * The NoCAlert invariant catalog — Table 1 of the paper.
 *
 * Thirty-two invariances completely characterize the operational
 * behaviour of the baseline router: any forbidden behaviour, as
 * dictated by the functional rules governing the router's operation,
 * is captured by at least one of these assertion checkers.
 */

#ifndef NOCALERT_CORE_INVARIANT_HPP
#define NOCALERT_CORE_INVARIANT_HPP

#include <cstdint>
#include <string>
#include <vector>

namespace nocalert::noc {
struct RouterParams;
} // namespace nocalert::noc

namespace nocalert::core {

/** Identifier of an invariance checker (1-based, as in Table 1). */
enum class InvariantId : std::uint8_t {
    IllegalTurn = 1,
    InvalidRcOutput = 2,
    NonMinimalRoute = 3,
    GrantWithoutRequest = 4,
    GrantToNobody = 5,
    GrantNotOneHot = 6,
    GrantToOccupiedOrFullVc = 7,
    OneToOneVcAssignment = 8,
    OneToOnePortAssignment = 9,
    VaAgreesWithRc = 10,
    SaAgreesWithRc = 11,
    IntraVaStageOrder = 12,
    IntraSaStageOrder = 13,
    XbarColumnOneHot = 14,
    XbarRowOneHot = 15,
    XbarFlitConservation = 16,
    ConsistentVcState = 17,
    HeaderOnlyIntoFreeVc = 18,
    InvalidOutputVcValue = 19,
    RcOnNonHeaderFlit = 20,
    RcOnEmptyVc = 21,
    VaOnNonHeaderFlit = 22,
    VaOnEmptyVc = 23,
    ReadFromEmptyBuffer = 24,
    WriteToFullBuffer = 25,
    BufferAtomicityViolation = 26,
    NonAtomicPacketMixing = 27,
    PacketFlitCountViolation = 28,
    ConcurrentReadMultipleVcs = 29,
    ConcurrentWriteMultipleVcs = 30,
    ConcurrentRcMultipleVcs = 31,
    EjectionAtWrongDestination = 32,
};

/** Number of invariants in the catalog. */
inline constexpr unsigned kNumInvariants = 32;

/** Numeric value of an invariant id (1..32). */
constexpr unsigned
invariantIndex(InvariantId id)
{
    return static_cast<unsigned>(id);
}

/** Router module class an invariant belongs to (Table 1 sections). */
enum class ModuleClass : std::uint8_t {
    RoutingComputation,
    Arbiters,
    Crossbar,
    VcState,
    Buffer,
    PortLevel,
    NetworkLevel,
};

/** Name of a module class. */
const char *moduleClassName(ModuleClass cls);

/**
 * The four fundamental network-correctness conditions (paper
 * Section 4.1, after Borrione et al. and ForEVeR), as bit flags so an
 * invariant can guard several conditions at once (Figure 3 places
 * several invariants at category intersections).
 */
enum CorrectnessCondition : std::uint8_t {
    kBoundedDelivery = 1 << 0,
    kNoFlitDrop = 1 << 1,
    kNoNewFlitGeneration = 1 << 2,
    kNoCorruptionOrMixing = 1 << 3,
};

/**
 * Risk level used by the "Cautious" reaction policy (Observation 2):
 * low-risk checkers fire often on benign faults, so a recovery scheme
 * may defer its reaction until corroborated.
 */
enum class RiskLevel : std::uint8_t {
    Low,      ///< Benign when asserted alone (invariants 1 and 3).
    Standard, ///< React immediately.
    /**
     * Benign under transient faults but catastrophic under permanent
     * ones (Observation 3: invariant 5 behaves like a NOP when
     * transient, but a permanently silent arbiter deadlocks packets).
     */
    PermanentSensitive,
};

/** Static description of one invariant. */
struct InvariantInfo
{
    InvariantId id;
    const char *name;
    const char *description;
    ModuleClass module;
    std::uint8_t conditions; ///< CorrectnessCondition bit mask.
    RiskLevel risk;
    bool atomicOnly;     ///< Applies only with atomic VC buffers.
    bool nonAtomicOnly;  ///< Applies only with non-atomic buffers.
    bool minimalOnly;    ///< Applies only to minimal routing.
    bool needsVcs;       ///< Void when the design has no VA stage (V=1).
};

/** Metadata of invariant @p id. */
const InvariantInfo &invariantInfo(InvariantId id);

/** All 32 invariants in Table-1 order. */
const std::vector<InvariantInfo> &invariantCatalog();

/** Short name of invariant @p id. */
const char *invariantName(InvariantId id);

/**
 * Whether invariant @p info is armed on a router built with @p params:
 * atomicOnly and nonAtomicOnly follow the buffer kind, and needsVcs
 * wants a VA stage (more than one VC).
 */
bool invariantApplies(const InvariantInfo &info,
                      const noc::RouterParams &params);

} // namespace nocalert::core

#endif // NOCALERT_CORE_INVARIANT_HPP
