/**
 * @file
 * The workload engine: a WorkloadModel abstraction over *what traffic
 * drives the network*, with three interchangeable backends behind one
 * value-semantic generator seam (noc::Network holds a
 * WorkloadGenerator where it used to hold the synthetic generator
 * directly):
 *
 *  - Synthetic: today's noc::TrafficGenerator, bit-exact with every
 *    artifact ever produced (per-node sequential PCG streams).
 *  - Phased: a piecewise schedule of (pattern, rate, class-weights)
 *    segments with deterministic transitions, plus an MMPP-style
 *    on/off burst modulator (superposed dyadic layers) for
 *    self-similar arrivals. Draws are counter-mode — each (node,
 *    cycle) keys its own stream — so skipping an idle cycle consumes
 *    nothing and is exactly unobservable.
 *  - Trace: replay of a recorded injection log (tracefile.hpp),
 *    consuming no randomness at all.
 *
 * The load-bearing invariant of noc/traffic.hpp is preserved by every
 * backend: generation is a pure function of (node, cycle, stream) —
 * never network state — so golden and fault-injected runs of one spec
 * see byte-identical packet sequences, and the dense, active, and
 * bitmask kernels stay bit-exact. The active-set kernels' skip-draw
 * contract (TrafficGenerator::stopped) generalizes to idleAt(): a
 * cycle may be skipped when no node can fire in it, which for the
 * counter-mode and trace backends extends from "stopped forever" to
 * any idle segment or gap.
 */

#ifndef NOCALERT_TRAFFIC_WORKLOAD_HPP
#define NOCALERT_TRAFFIC_WORKLOAD_HPP

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <variant>
#include <vector>

#include "noc/traffic.hpp"
#include "traffic/tracefile.hpp"

namespace nocalert::traffic {

/** Which backend drives the network. */
enum class WorkloadKind : std::uint8_t {
    Synthetic, ///< Stationary noc::TrafficGenerator (the legacy model).
    Phased,    ///< Piecewise phase program with optional bursts.
    Trace,     ///< Replay of a recorded injection log.
};

/** Name of a workload kind ("synthetic" / "phased" / "trace"). */
const char *workloadKindName(WorkloadKind kind);

/** Inverse of workloadKindName (nullopt for unknown names). */
std::optional<WorkloadKind> workloadKindFromName(std::string_view name);

/**
 * One phase of a phase program: over cycles [begin, end), every node
 * injects with Bernoulli(rate) under @p pattern. Segments must be
 * non-overlapping and sorted; gaps between segments are idle.
 */
struct PhaseSegment
{
    noc::Cycle begin = 0; ///< First cycle of the phase (inclusive).
    noc::Cycle end = 0;   ///< One past the last cycle (exclusive).
    noc::TrafficPattern pattern = noc::TrafficPattern::UniformRandom;
    double rate = 0.0;    ///< Base injection probability per node/cycle.

    /** Class weights for this phase (empty = equal). */
    std::vector<double> classWeights;

    /** Hotspot parameters (Hotspot pattern only). */
    noc::HotspotSpec hotspot;

    bool operator==(const PhaseSegment &) const = default;
};

/**
 * MMPP-style on/off burst modulator: time is cut into epochs of
 * `period` cycles, and each (node, layer, epoch) is independently
 * "on" with probability onProbability — a hash of the coordinates,
 * never stream state. The segment rate is multiplied by onMultiplier
 * or offMultiplier per layer (layers use dyadic periods: period,
 * 2*period, 4*period, ...), then clamped to [0,1]. Superposing layers
 * produces burst trains at several time scales — the classic
 * self-similar-arrivals construction.
 */
struct BurstSpec
{
    bool enabled = false;
    noc::Cycle period = 64;      ///< Epoch length of the first layer.
    double onProbability = 0.5;  ///< P(epoch is on) per (node, layer).
    double onMultiplier = 2.0;   ///< Rate multiplier in on epochs.
    double offMultiplier = 0.0;  ///< Rate multiplier in off epochs.
    unsigned layers = 1;         ///< Superposed dyadic layers.

    bool operator==(const BurstSpec &) const = default;
};

/** A phase-program workload. */
struct PhasedSpec
{
    /** Sorted, non-overlapping phases. */
    std::vector<PhaseSegment> segments;

    /** Optional burst modulation on top of every phase. */
    BurstSpec burst;

    /** Seed of the counter-mode per-(node, cycle) draw streams. */
    std::uint64_t seed = 1;

    /** Cycle at which generation stops regardless of phases (-1 =
     *  never); pinned by the campaign like TrafficSpec::stopCycle. */
    noc::Cycle stopCycle = -1;

    /** Wrap the program: phase position = cycle mod last segment end. */
    bool repeat = false;

    bool operator==(const PhasedSpec &) const = default;
};

/** A trace-replay workload. */
struct TraceSpec
{
    /** Trace file (tracefile.hpp format). */
    std::string path;

    /**
     * CRC-32 of the whole trace file — the campaign-identity pin. 0
     * means "unstamped"; stampTraceSpec() fills it from the file, and
     * generator construction verifies it so an artifact can never
     * silently describe a different trace than the one replayed.
     */
    std::uint32_t digest = 0;

    /** Record count (informational, stamped with the digest). */
    std::uint64_t records = 0;

    /** Cycle at which replay stops (-1 = never). */
    noc::Cycle stopCycle = -1;

    bool operator==(const TraceSpec &) const = default;
};

/**
 * The full workload description — campaign identity. Exactly one
 * backend (selected by `kind`) is active; the others keep their
 * defaults and are not serialized.
 */
struct WorkloadSpec
{
    WorkloadKind kind = WorkloadKind::Synthetic;
    noc::TrafficSpec synthetic;
    PhasedSpec phased;
    TraceSpec trace;

    /** Wrap a legacy synthetic spec. */
    static WorkloadSpec fromSynthetic(noc::TrafficSpec spec)
    {
        WorkloadSpec workload;
        workload.synthetic = std::move(spec);
        return workload;
    }

    /** The active backend's seed (0 for Trace: replay draws nothing). */
    std::uint64_t seed() const;

    /** Re-seed the seeded backends (sampled campaigns' per-seed
     *  references); a no-op for Trace. */
    void setSeed(std::uint64_t seed);

    /** The active backend's stop cycle. */
    noc::Cycle stopCycle() const;

    /** Pin the active backend's stop cycle (campaign normalization). */
    void setStopCycle(noc::Cycle cycle);

    bool operator==(const WorkloadSpec &) const = default;
};

/**
 * Why @p spec cannot drive @p config (empty = valid); every message
 * names the bad field. Does not touch the filesystem — trace files
 * are opened (and their digest enforced) at generator construction.
 */
std::string validateWorkloadSpec(const noc::NetworkConfig &config,
                                 const WorkloadSpec &spec);

/**
 * Read the trace file named by @p spec.path and stamp digest and
 * record count into @p spec. False + *error when the file is missing
 * or malformed, or when a non-zero pre-set digest disagrees with the
 * file (the caller pinned a different trace).
 */
bool stampTraceSpec(TraceSpec &spec, std::string *error = nullptr);

/**
 * Index of the segment of @p spec covering @p cycle, or -1 (idle gap,
 * past the stop cycle, or past a non-repeating program). The pure
 * schedule lookup shared by PhasedGenerator and the phase-stratified
 * sampled planner.
 */
int phaseSegmentAt(const PhasedSpec &spec, noc::Cycle cycle);

/**
 * Parse a phase-program CLI string into @p spec.segments. Format:
 * comma-separated `begin:end:pattern:rate[:hotspotNode:hotspotFrac]`
 * segments, e.g. "0:2000:uniform:0.05,2000:4000:transpose:0.1".
 * Returns an empty string on success, else an error naming the bad
 * segment and field.
 */
std::string parsePhaseProgram(std::string_view text, PhasedSpec &spec);

/**
 * Parse a burst-modulator CLI string into @p burst. Format:
 * `period:onProb:onMult:offMult[:layers]`, e.g. "64:0.5:2:0:3".
 * Returns an empty string on success, else an error naming the field.
 */
std::string parseBurstSpec(std::string_view text, BurstSpec &burst);

/**
 * The phase-program backend. Counter-mode: the draws for (node,
 * cycle) come from a private stream keyed by (seed, node, cycle), so
 * generation order is irrelevant and skipped idle cycles consume
 * nothing — the property that lets the active-set kernels treat any
 * idle segment like the synthetic backend's permanent stop.
 */
class PhasedGenerator
{
  public:
    PhasedGenerator(const noc::NetworkConfig &config,
                    const PhasedSpec &spec);

    const PhasedSpec &spec() const { return spec_; }

    std::optional<noc::Packet> generate(const noc::NetworkConfig &config,
                                        noc::NodeId node,
                                        noc::Cycle cycle);

    /** No node can fire at @p cycle (idle gap, zero rate, stopped). */
    bool idleAt(noc::Cycle cycle) const;

    std::uint64_t packetsCreated() const { return packets_created_; }

    /** Same program and packet-id counters (statistic ignored). */
    bool
    sameState(const PhasedGenerator &other) const
    {
        return spec_ == other.spec_ && counts_ == other.counts_;
    }

    /** Index of the segment covering @p cycle, or -1 (idle gap /
     *  stopped / past a non-repeating program). Phase stratification
     *  keys on this. */
    int segmentAt(noc::Cycle cycle) const;

    /** The rate multiplier the burst modulator applies for (node,
     *  cycle) — 1.0 when bursts are disabled. Exposed for tests and
     *  the experiment tooling. */
    double burstMultiplier(noc::NodeId node, noc::Cycle cycle) const;

  private:
    PhasedSpec spec_;
    std::vector<std::uint64_t> counts_; // per node packet counter
    std::uint64_t packets_created_ = 0;
};

/**
 * The trace-replay backend. The loaded trace is immutable and shared
 * across network copies; the per-node cursors are value state, so a
 * snapshot resumed later replays from exactly its recorded position.
 * Replay consumes no randomness.
 */
class TraceGenerator
{
  public:
    TraceGenerator(const noc::NetworkConfig &config,
                   const TraceSpec &spec);

    const TraceSpec &spec() const { return spec_; }

    std::optional<noc::Packet> generate(const noc::NetworkConfig &config,
                                        noc::NodeId node,
                                        noc::Cycle cycle);

    /** No record fires at @p cycle (or replay stopped). */
    bool idleAt(noc::Cycle cycle) const;

    std::uint64_t packetsCreated() const { return packets_created_; }

    /** Same trace (the spec pins its digest), cursors and packet-id
     *  counters (statistic ignored). */
    bool
    sameState(const TraceGenerator &other) const
    {
        return spec_ == other.spec_ && cursor_ == other.cursor_ &&
               counts_ == other.counts_;
    }

  private:
    struct NodeEvents
    {
        std::vector<TraceRecord> events; ///< Sorted by cycle.
    };

    TraceSpec spec_;
    std::shared_ptr<const std::vector<NodeEvents>> events_; // immutable
    /** Sorted distinct cycles with any record — idleAt is a pure
     *  binary search, consuming no cursor state. */
    std::shared_ptr<const std::vector<noc::Cycle>> cycles_;
    std::vector<std::uint32_t> cursor_;     // per node next event
    std::vector<std::uint64_t> counts_;     // per node packet counter
    std::uint64_t packets_created_ = 0;
};

/**
 * The generator seam noc::Network holds: one of the three backends,
 * dispatched by kind, with the synthetic fast path inline. Value-
 * semantic like every backend.
 */
class WorkloadGenerator
{
  public:
    WorkloadGenerator(const noc::NetworkConfig &config,
                      const WorkloadSpec &spec);

    const WorkloadSpec &spec() const { return spec_; }
    WorkloadKind kind() const { return spec_.kind; }

    /** See TrafficGenerator::generate; dispatches per backend. */
    std::optional<noc::Packet>
    generate(const noc::NetworkConfig &config, noc::NodeId node,
             noc::Cycle cycle)
    {
        if (auto *synthetic =
                std::get_if<noc::TrafficGenerator>(&backend_))
            return synthetic->generate(config, node, cycle);
        if (auto *phased = std::get_if<PhasedGenerator>(&backend_))
            return phased->generate(config, node, cycle);
        return std::get<TraceGenerator>(backend_).generate(config, node,
                                                           cycle);
    }

    /**
     * True iff no generate() call at @p cycle can return a packet, so
     * the active-set kernels may skip the draws entirely. For the
     * synthetic backend this is the *permanent* stop (its sequential
     * streams must otherwise stay aligned with a dense run); the
     * counter-mode and trace backends extend it to any idle segment
     * or gap, because skipping consumes no stream state.
     */
    bool
    idleAt(noc::Cycle cycle) const
    {
        if (const auto *synthetic =
                std::get_if<noc::TrafficGenerator>(&backend_))
            return synthetic->stopped(cycle);
        if (const auto *phased = std::get_if<PhasedGenerator>(&backend_))
            return phased->idleAt(cycle);
        return std::get<TraceGenerator>(backend_).idleAt(cycle);
    }

    /** Packets created so far (all nodes, all backends). */
    std::uint64_t packetsCreated() const;

    /**
     * True iff both generators will produce the same packets from
     * here on: same spec and same backend state.
     */
    bool sameState(const WorkloadGenerator &other) const;

    /** The phased backend, or nullptr (phase stratification, tests). */
    const PhasedGenerator *phased() const
    {
        return std::get_if<PhasedGenerator>(&backend_);
    }

  private:
    WorkloadSpec spec_;
    std::variant<noc::TrafficGenerator, PhasedGenerator, TraceGenerator>
        backend_;
};

/**
 * Regenerate the packets @p spec would inject over cycles [0,
 * @p cycles) and write them as a trace file at @p path — the
 * `--record-trace` implementation. Because generation is a pure
 * function of the spec, this produces exactly the packets a live run
 * of the same spec injects, with no hooks into any network.
 */
bool recordTrace(const noc::NetworkConfig &config,
                 const WorkloadSpec &spec, noc::Cycle cycles,
                 const std::string &path, std::string *error = nullptr);

} // namespace nocalert::traffic

#endif // NOCALERT_TRAFFIC_WORKLOAD_HPP
