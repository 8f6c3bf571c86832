/**
 * @file
 * Enumeration of fault-injection sites (paper Section 5.2, Figure 5).
 *
 * The fault model targets the control logic at the granularity of
 * individual module inputs and outputs: arbiter request and grant
 * vectors, routing-computation outputs, buffer read/write enables,
 * credit signals, and the architectural registers of the VC status
 * tables, output-VC allocation tables, arbiter priority pointers, and
 * the SA->ST schedule. Flit *contents* are excluded: the paper assumes
 * error-detecting codes protect the datapath (Section 3.3).
 *
 * Sites are enumerated only for connected ports, mirroring the paper's
 * smaller fault-location count at edge and corner routers (205 sites
 * for a full five-port router; 11,808 across the 8x8 mesh in the
 * paper's accounting; our enumeration is finer-grained and the exact
 * totals are reported by the campaign).
 */

#ifndef NOCALERT_FAULT_SITE_HPP
#define NOCALERT_FAULT_SITE_HPP

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "noc/config.hpp"
#include "noc/signals.hpp"

namespace nocalert::fault {

/** Control signal classes that can host a fault. */
enum class SignalClass : std::uint8_t {
    // ---- Wires (mutated at their producing tap point) ----
    WriteEnable,  ///< Buffer write-enable bit (port = input, bit = vc).
    CreditRecv,   ///< Incoming credit bit (port = output, bit = vc).
    Sa1Req,       ///< SA1 request bit (port = input, bit = vc).
    Sa1Grant,     ///< SA1 grant bit (port = input, bit = vc).
    Sa2Req,       ///< SA2 request bit (port = output, bit = in port).
    Sa2Grant,     ///< SA2 grant bit (port = output, bit = in port).
    Va1Candidate, ///< VA1 selection bits (port, vc; bit of the VC id).
    Va2Req,       ///< VA2 request bit (port = output, vc = out VC, bit = client).
    Va2Grant,     ///< VA2 grant bit (same indexing as Va2Req).
    RcWaiting,    ///< RC service-request bit (port = input, bit = vc).
    RcDone,       ///< RC completion bit (port = input, bit = vc).
    RcOutPort,    ///< RC output-direction bits (port = input, bit).

    // ---- Architectural registers (mutated at CycleStart) ----
    StVcState,    ///< VC state machine register (2 bits).
    StVcOutPort,  ///< VC's saved output port (3 bits).
    StVcOutVc,    ///< VC's saved output VC (bitsFor(V) bits).
    StOutVcFree,  ///< Output-VC allocation table free bit.
    StCredits,    ///< Credit counter bits (bitsFor(depth+1)).
    StSa1Pointer, ///< SA1 round-robin pointer bits.
    StSa2Pointer, ///< SA2 round-robin pointer bits.
    StRcPointer,  ///< RC service pointer bits.
    StSchedValid, ///< Schedule register valid bit (port = input).
    StSchedVc,    ///< Schedule register VC field bits.
    StSchedRow,   ///< Schedule register crossbar row bits.
    StSchedOutVc, ///< Schedule register outgoing VC id bits.
};

/** Number of signal classes (contiguous enum, 0-based). */
inline constexpr unsigned kNumSignalClasses =
    static_cast<unsigned>(SignalClass::StSchedOutVc) + 1;

/** Name of a signal class. */
const char *signalClassName(SignalClass cls);

/** Inverse of signalClassName (nullopt for unknown names). */
std::optional<SignalClass> signalClassFromName(std::string_view name);

/** True iff the class is an architectural register (CycleStart tap). */
bool isStateSignal(SignalClass cls);

/** Tap point at which faults on this class are applied. */
noc::TapPoint signalTapPoint(SignalClass cls);

/** One single-bit fault location. */
struct FaultSite
{
    noc::NodeId router = noc::kInvalidNode;
    SignalClass signal = SignalClass::WriteEnable;
    int port = 0;     ///< Input or output port (role depends on signal).
    int vc = 0;       ///< VC / output-VC index (-1 when not applicable).
    unsigned bit = 0; ///< Bit position within the field.

    /** Human-readable location, e.g. "r12 Sa1Grant p=E bit=2". */
    std::string describe() const;

    bool operator==(const FaultSite &) const = default;
};

/** Enumerates every fault site of a configured network. */
class FaultSiteCatalog
{
  public:
    /** All sites of router @p node under @p config. */
    static std::vector<FaultSite> enumerateRouter(
        const noc::NetworkConfig &config, noc::NodeId node);

    /** All sites of every router in the network. */
    static std::vector<FaultSite> enumerateNetwork(
        const noc::NetworkConfig &config);

    /**
     * Deterministic stratified sample of at most @p max_sites network
     * sites: sites are grouped by signal class and drawn round-robin
     * from per-class shuffles, so every class keeps representation.
     * @p max_sites == 0 returns the full enumeration.
     */
    static std::vector<FaultSite> sampleNetwork(
        const noc::NetworkConfig &config, unsigned max_sites,
        std::uint64_t seed);

    /** Stratified sample drawn from a caller-provided site list. */
    static std::vector<FaultSite> sampleSites(
        std::vector<FaultSite> sites, unsigned max_sites,
        std::uint64_t seed);
};

/**
 * Parse "r<router>:<SignalClass>:<port>:<bit>[:vc]" (port one of N, E,
 * S, W, L) into @p site. Every field must parse whole, and the site
 * must be one that FaultSiteCatalog::enumerateRouter lists for that
 * router of @p config (wire classes take no vc, per-VC classes need
 * one), so a fault that cannot be injected is an error, not a
 * benign-looking run. Returns "" on success, else what is wrong with
 * @p spec (and leaves @p site untouched).
 */
std::string parseFaultSite(std::string_view spec,
                           const noc::NetworkConfig &config, FaultSite &site);

} // namespace nocalert::fault

#endif // NOCALERT_FAULT_SITE_HPP
