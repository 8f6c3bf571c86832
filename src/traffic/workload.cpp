#include "traffic/workload.hpp"

#include <algorithm>
#include <cstdlib>
#include <type_traits>
#include <utility>

#include "util/log.hpp"

namespace nocalert::traffic {

namespace {

/** Hash-to-[0,1): 53 high bits of a splitMix64 output. */
double
hashToUnit(std::uint64_t hash)
{
    return static_cast<double>(hash >> 11) *
           (1.0 / 9007199254740992.0); // 2^-53
}

constexpr std::uint64_t kGolden = 0x9e3779b97f4a7c15ULL;
constexpr std::uint64_t kBurstSalt = 0xb5297a4d3f84d5b5ULL;

std::string
validatePhasedSpec(const noc::NetworkConfig &config,
                   const PhasedSpec &spec)
{
    if (spec.segments.empty())
        return "phased.segments must have at least one segment";
    for (std::size_t i = 0; i < spec.segments.size(); ++i) {
        const PhaseSegment &seg = spec.segments[i];
        const std::string where =
            "phased.segments[" + std::to_string(i) + "]";
        if (seg.begin < 0)
            return where + ".begin must be >= 0, got " +
                   std::to_string(seg.begin);
        if (seg.end <= seg.begin)
            return where + ".end (" + std::to_string(seg.end) +
                   ") must be greater than begin (" +
                   std::to_string(seg.begin) + ")";
        if (i > 0 && seg.begin < spec.segments[i - 1].end)
            return where + " [" + std::to_string(seg.begin) + "," +
                   std::to_string(seg.end) +
                   ") overlaps or is out of order with segments[" +
                   std::to_string(i - 1) + "] [" +
                   std::to_string(spec.segments[i - 1].begin) + "," +
                   std::to_string(spec.segments[i - 1].end) + ")";
        // Reuse the synthetic validator for the shared per-segment
        // fields (rate, class weights, hotspot parameters).
        noc::TrafficSpec probe;
        probe.pattern = seg.pattern;
        probe.injectionRate = seg.rate;
        probe.classWeights = seg.classWeights;
        probe.hotspot = seg.hotspot;
        std::string error = validateTrafficSpec(config, probe);
        if (!error.empty()) {
            // The probe's rate field stands in for the segment's.
            const std::string rate_field = "injectionRate";
            if (error.compare(0, rate_field.size(), rate_field) == 0)
                error = "rate" + error.substr(rate_field.size());
            return where + "." + error;
        }
    }
    const BurstSpec &burst = spec.burst;
    if (burst.enabled) {
        if (burst.period < 1)
            return "phased.burst.period must be >= 1, got " +
                   std::to_string(burst.period);
        if (!(burst.onProbability >= 0.0 && burst.onProbability <= 1.0))
            return "phased.burst.onProbability must be in [0,1], got " +
                   std::to_string(burst.onProbability);
        if (!(burst.onMultiplier >= 0.0))
            return "phased.burst.onMultiplier must be >= 0";
        if (!(burst.offMultiplier >= 0.0))
            return "phased.burst.offMultiplier must be >= 0";
        if (burst.layers < 1 || burst.layers > 16)
            return "phased.burst.layers must be in [1,16], got " +
                   std::to_string(burst.layers);
    }
    if (spec.stopCycle < -1)
        return "phased.stopCycle must be a cycle or -1 (never), got " +
               std::to_string(spec.stopCycle);
    return std::string();
}

std::string
validateTraceSpec(const TraceSpec &spec)
{
    if (spec.path.empty())
        return "trace.path must not be empty";
    if (spec.stopCycle < -1)
        return "trace.stopCycle must be a cycle or -1 (never), got " +
               std::to_string(spec.stopCycle);
    return std::string();
}

bool
parseDoubleField(std::string_view text, double &out)
{
    const std::string copy(text);
    char *end = nullptr;
    out = std::strtod(copy.c_str(), &end);
    return end == copy.c_str() + copy.size() && !copy.empty();
}

bool
parseCycleField(std::string_view text, noc::Cycle &out)
{
    const std::string copy(text);
    char *end = nullptr;
    out = std::strtoll(copy.c_str(), &end, 10);
    return end == copy.c_str() + copy.size() && !copy.empty();
}

std::vector<std::string_view>
splitFields(std::string_view text, char sep)
{
    std::vector<std::string_view> fields;
    std::size_t start = 0;
    while (true) {
        const std::size_t pos = text.find(sep, start);
        if (pos == std::string_view::npos) {
            fields.push_back(text.substr(start));
            return fields;
        }
        fields.push_back(text.substr(start, pos - start));
        start = pos + 1;
    }
}

} // namespace

const char *
workloadKindName(WorkloadKind kind)
{
    switch (kind) {
      case WorkloadKind::Synthetic: return "synthetic";
      case WorkloadKind::Phased: return "phased";
      case WorkloadKind::Trace: return "trace";
    }
    return "?";
}

std::optional<WorkloadKind>
workloadKindFromName(std::string_view name)
{
    for (int i = 0; i <= static_cast<int>(WorkloadKind::Trace); ++i) {
        const auto kind = static_cast<WorkloadKind>(i);
        if (name == workloadKindName(kind))
            return kind;
    }
    return std::nullopt;
}

std::uint64_t
WorkloadSpec::seed() const
{
    switch (kind) {
      case WorkloadKind::Synthetic: return synthetic.seed;
      case WorkloadKind::Phased: return phased.seed;
      case WorkloadKind::Trace: return 0; // replay draws nothing
    }
    return 0;
}

void
WorkloadSpec::setSeed(std::uint64_t seed)
{
    synthetic.seed = seed;
    phased.seed = seed;
}

noc::Cycle
WorkloadSpec::stopCycle() const
{
    switch (kind) {
      case WorkloadKind::Synthetic: return synthetic.stopCycle;
      case WorkloadKind::Phased: return phased.stopCycle;
      case WorkloadKind::Trace: return trace.stopCycle;
    }
    return -1;
}

void
WorkloadSpec::setStopCycle(noc::Cycle cycle)
{
    synthetic.stopCycle = cycle;
    phased.stopCycle = cycle;
    trace.stopCycle = cycle;
}

std::string
validateWorkloadSpec(const noc::NetworkConfig &config,
                     const WorkloadSpec &spec)
{
    switch (spec.kind) {
      case WorkloadKind::Synthetic:
        return validateTrafficSpec(config, spec.synthetic);
      case WorkloadKind::Phased:
        return validatePhasedSpec(config, spec.phased);
      case WorkloadKind::Trace:
        return validateTraceSpec(spec.trace);
    }
    return "unknown workload kind";
}

bool
stampTraceSpec(TraceSpec &spec, std::string *error)
{
    std::string read_error;
    const std::optional<TraceFile> trace =
        readTraceFile(spec.path, &read_error);
    if (!trace) {
        if (error)
            *error = read_error;
        return false;
    }
    if (spec.digest != 0 && spec.digest != trace->digest) {
        if (error)
            *error = "trace digest mismatch: spec pins " +
                     std::to_string(spec.digest) + " but '" + spec.path +
                     "' has digest " + std::to_string(trace->digest);
        return false;
    }
    spec.digest = trace->digest;
    spec.records = trace->records.size();
    return true;
}

std::string
parsePhaseProgram(std::string_view text, PhasedSpec &spec)
{
    if (text.find_first_not_of(" \t") == std::string_view::npos)
        return "phase program must have at least one segment";
    std::vector<PhaseSegment> segments;
    const std::vector<std::string_view> parts = splitFields(text, ',');
    for (std::size_t i = 0; i < parts.size(); ++i) {
        const std::string where =
            "phase segment " + std::to_string(i);
        const std::vector<std::string_view> fields =
            splitFields(parts[i], ':');
        if (fields.size() != 4 && fields.size() != 6)
            return where + ": expected begin:end:pattern:rate"
                           "[:hotspotNode:hotspotFraction], got " +
                   std::to_string(fields.size()) + " fields";
        PhaseSegment seg;
        if (!parseCycleField(fields[0], seg.begin))
            return where + ": begin '" + std::string(fields[0]) +
                   "' is not a cycle";
        if (!parseCycleField(fields[1], seg.end))
            return where + ": end '" + std::string(fields[1]) +
                   "' is not a cycle";
        const std::optional<noc::TrafficPattern> pattern =
            noc::trafficPatternFromName(fields[2]);
        if (!pattern)
            return where + ": unknown pattern '" +
                   std::string(fields[2]) + "'";
        seg.pattern = *pattern;
        if (!parseDoubleField(fields[3], seg.rate))
            return where + ": rate '" + std::string(fields[3]) +
                   "' is not a number";
        if (fields.size() == 6) {
            noc::Cycle node = 0;
            if (!parseCycleField(fields[4], node))
                return where + ": hotspotNode '" +
                       std::string(fields[4]) + "' is not a node id";
            seg.hotspot.node = static_cast<noc::NodeId>(node);
            if (!parseDoubleField(fields[5], seg.hotspot.fraction))
                return where + ": hotspotFraction '" +
                       std::string(fields[5]) + "' is not a number";
        }
        segments.push_back(std::move(seg));
    }
    if (segments.empty())
        return "phase program must have at least one segment";
    spec.segments = std::move(segments);
    return std::string();
}

std::string
parseBurstSpec(std::string_view text, BurstSpec &burst)
{
    const std::vector<std::string_view> fields = splitFields(text, ':');
    if (fields.size() != 4 && fields.size() != 5)
        return "burst spec: expected period:onProb:onMult:offMult"
               "[:layers], got " +
               std::to_string(fields.size()) + " fields";
    BurstSpec parsed;
    parsed.enabled = true;
    if (!parseCycleField(fields[0], parsed.period))
        return "burst spec: period '" + std::string(fields[0]) +
               "' is not a cycle count";
    if (!parseDoubleField(fields[1], parsed.onProbability))
        return "burst spec: onProbability '" + std::string(fields[1]) +
               "' is not a number";
    if (!parseDoubleField(fields[2], parsed.onMultiplier))
        return "burst spec: onMultiplier '" + std::string(fields[2]) +
               "' is not a number";
    if (!parseDoubleField(fields[3], parsed.offMultiplier))
        return "burst spec: offMultiplier '" + std::string(fields[3]) +
               "' is not a number";
    if (fields.size() == 5) {
        noc::Cycle layers = 0;
        if (!parseCycleField(fields[4], layers) || layers < 1)
            return "burst spec: layers '" + std::string(fields[4]) +
                   "' is not a positive count";
        parsed.layers = static_cast<unsigned>(layers);
    }
    burst = parsed;
    return std::string();
}

PhasedGenerator::PhasedGenerator(const noc::NetworkConfig &config,
                                 const PhasedSpec &spec)
    : spec_(spec)
{
    const std::string error = validatePhasedSpec(config, spec_);
    if (!error.empty())
        NOCALERT_FATAL("invalid workload spec: ", error);
    counts_.assign(static_cast<std::size_t>(config.numNodes()), 0);
}

int
phaseSegmentAt(const PhasedSpec &spec, noc::Cycle cycle)
{
    if (cycle < 0 || spec.segments.empty())
        return -1;
    if (spec.stopCycle >= 0 && cycle >= spec.stopCycle)
        return -1;
    const noc::Cycle program_length = spec.segments.back().end;
    noc::Cycle pos = cycle;
    if (spec.repeat)
        pos = cycle % program_length;
    else if (pos >= program_length)
        return -1;
    // First segment whose end is past pos; segments are sorted and
    // non-overlapping, so it is the only candidate.
    const auto it = std::upper_bound(
        spec.segments.begin(), spec.segments.end(), pos,
        [](noc::Cycle c, const PhaseSegment &seg) { return c < seg.end; });
    if (it == spec.segments.end() || it->begin > pos)
        return -1; // idle gap between segments
    return static_cast<int>(it - spec.segments.begin());
}

int
PhasedGenerator::segmentAt(noc::Cycle cycle) const
{
    return phaseSegmentAt(spec_, cycle);
}

double
PhasedGenerator::burstMultiplier(noc::NodeId node,
                                 noc::Cycle cycle) const
{
    const BurstSpec &burst = spec_.burst;
    if (!burst.enabled)
        return 1.0;
    double multiplier = 1.0;
    for (unsigned layer = 0; layer < burst.layers; ++layer) {
        const noc::Cycle period = burst.period
                                  << static_cast<noc::Cycle>(layer);
        const auto epoch = static_cast<std::uint64_t>(cycle / period);
        // Pure hash of (seed, node, layer, epoch): the on/off state of
        // an epoch never consumes stream state, so skipping idle
        // cycles cannot shift it.
        const std::uint64_t hash = splitMix64(
            splitMix64(spec_.seed ^ kBurstSalt) ^
            splitMix64(static_cast<std::uint64_t>(node) * kGolden +
                       layer) ^
            splitMix64(epoch * kGolden));
        const bool on = hashToUnit(hash) < burst.onProbability;
        multiplier *= on ? burst.onMultiplier : burst.offMultiplier;
    }
    return multiplier;
}

bool
PhasedGenerator::idleAt(noc::Cycle cycle) const
{
    const int segment = segmentAt(cycle);
    if (segment < 0)
        return true;
    // A zero-rate phase can never fire regardless of burst state; a
    // positive rate might (conservatively treat it as active even when
    // the burst multiplier could zero it for some nodes).
    return !(spec_.segments[static_cast<std::size_t>(segment)].rate >
             0.0);
}

std::optional<noc::Packet>
PhasedGenerator::generate(const noc::NetworkConfig &config,
                          noc::NodeId node, noc::Cycle cycle)
{
    const int index = segmentAt(cycle);
    if (index < 0)
        return std::nullopt;
    const PhaseSegment &seg =
        spec_.segments[static_cast<std::size_t>(index)];

    double rate = seg.rate * burstMultiplier(node, cycle);
    rate = std::clamp(rate, 0.0, 1.0);

    // Counter-mode: a private stream keyed by (seed, cycle) with the
    // node as the stream selector. No sequential state survives the
    // call, so generation at (node, cycle) is independent of which
    // other cycles were ever generated — the property that makes
    // idle-segment skipping exactly unobservable.
    Pcg32 rng = deriveStream(
        splitMix64(spec_.seed ^
                   splitMix64(static_cast<std::uint64_t>(cycle) *
                              kGolden)),
        static_cast<std::uint64_t>(node));
    if (!rng.nextBool(rate))
        return std::nullopt;

    const noc::NodeId dst = noc::trafficDestination(
        config, seg.pattern, seg.hotspot, node, rng);
    if (dst == node)
        return std::nullopt; // self-directed permutation slot: idle

    const std::uint8_t cls =
        noc::trafficMessageClass(config, seg.classWeights, rng);

    noc::Packet pkt;
    pkt.id = (static_cast<std::uint64_t>(node) << 40) |
             counts_[static_cast<std::size_t>(node)];
    ++counts_[static_cast<std::size_t>(node)];
    ++packets_created_;
    pkt.src = node;
    pkt.dst = dst;
    pkt.msgClass = cls;
    pkt.length = config.router.classLength(cls);
    pkt.created = cycle;
    return pkt;
}

TraceGenerator::TraceGenerator(const noc::NetworkConfig &config,
                               const TraceSpec &spec)
    : spec_(spec)
{
    std::string error = validateTraceSpec(spec_);
    if (!error.empty())
        NOCALERT_FATAL("invalid workload spec: ", error);

    const std::optional<TraceFile> trace =
        readTraceFile(spec_.path, &error);
    if (!trace)
        NOCALERT_FATAL("invalid workload spec: ", error);
    if (spec_.digest != 0 && spec_.digest != trace->digest) {
        NOCALERT_FATAL("invalid workload spec: trace digest mismatch: "
                       "spec pins ",
                       spec_.digest, " but '", spec_.path,
                       "' has digest ", trace->digest);
    }
    spec_.digest = trace->digest;
    spec_.records = trace->records.size();

    const int nodes = config.numNodes();
    const auto num_classes =
        static_cast<std::uint8_t>(config.router.classes.size());
    auto events =
        std::make_shared<std::vector<NodeEvents>>(std::size_t(nodes));
    auto cycles = std::make_shared<std::vector<noc::Cycle>>();
    for (std::size_t i = 0; i < trace->records.size(); ++i) {
        const TraceRecord &record = trace->records[i];
        if (record.src >= nodes || record.dst >= nodes) {
            NOCALERT_FATAL("invalid workload spec: trace record ", i,
                           " names node ",
                           std::max(record.src, record.dst),
                           " but the mesh has ", nodes, " nodes");
        }
        if (record.cls >= num_classes) {
            NOCALERT_FATAL("invalid workload spec: trace record ", i,
                           " uses message class ", int(record.cls),
                           " but the router is configured with ",
                           int(num_classes), " classes");
        }
        (*events)[static_cast<std::size_t>(record.src)]
            .events.push_back(record);
        if (cycles->empty() || cycles->back() != record.cycle)
            cycles->push_back(record.cycle); // records sorted by cycle
    }
    events_ = std::move(events);
    cycles_ = std::move(cycles);
    cursor_.assign(std::size_t(nodes), 0);
    counts_.assign(std::size_t(nodes), 0);
}

bool
TraceGenerator::idleAt(noc::Cycle cycle) const
{
    if (spec_.stopCycle >= 0 && cycle >= spec_.stopCycle)
        return true;
    return !std::binary_search(cycles_->begin(), cycles_->end(), cycle);
}

std::optional<noc::Packet>
TraceGenerator::generate(const noc::NetworkConfig &config,
                         noc::NodeId node, noc::Cycle cycle)
{
    if (spec_.stopCycle >= 0 && cycle >= spec_.stopCycle)
        return std::nullopt;
    const std::vector<TraceRecord> &events =
        (*events_)[static_cast<std::size_t>(node)].events;
    std::uint32_t &cur = cursor_[static_cast<std::size_t>(node)];
    while (cur < events.size() && events[cur].cycle < cycle)
        ++cur; // defensive: step over records the run never asked about
    if (cur >= events.size() || events[cur].cycle != cycle)
        return std::nullopt;
    const TraceRecord &record = events[cur];
    ++cur;
    if (record.dst == node)
        return std::nullopt; // self-directed record: nothing to inject

    noc::Packet pkt;
    pkt.id = (static_cast<std::uint64_t>(node) << 40) |
             counts_[static_cast<std::size_t>(node)];
    ++counts_[static_cast<std::size_t>(node)];
    ++packets_created_;
    pkt.src = node;
    pkt.dst = record.dst;
    pkt.msgClass = record.cls;
    pkt.length = config.router.classLength(record.cls);
    pkt.created = cycle;
    return pkt;
}

namespace {

std::variant<noc::TrafficGenerator, PhasedGenerator, TraceGenerator>
makeBackend(const noc::NetworkConfig &config, const WorkloadSpec &spec)
{
    switch (spec.kind) {
      case WorkloadKind::Synthetic:
        return noc::TrafficGenerator(config, spec.synthetic);
      case WorkloadKind::Phased:
        return PhasedGenerator(config, spec.phased);
      case WorkloadKind::Trace:
        return TraceGenerator(config, spec.trace);
    }
    NOCALERT_PANIC("unknown workload kind");
}

} // namespace

WorkloadGenerator::WorkloadGenerator(const noc::NetworkConfig &config,
                                     const WorkloadSpec &spec)
    : spec_(spec), backend_(makeBackend(config, spec))
{
    // The trace backend stamps digest and record count at load; mirror
    // them so spec() reports the verified identity.
    if (const auto *trace = std::get_if<TraceGenerator>(&backend_))
        spec_.trace = trace->spec();
}

std::uint64_t
WorkloadGenerator::packetsCreated() const
{
    return std::visit(
        [](const auto &backend) { return backend.packetsCreated(); },
        backend_);
}

bool
WorkloadGenerator::sameState(const WorkloadGenerator &other) const
{
    if (!(spec_ == other.spec_) ||
        backend_.index() != other.backend_.index())
        return false;
    return std::visit(
        [&](const auto &backend) {
            using Backend = std::decay_t<decltype(backend)>;
            return backend.sameState(std::get<Backend>(other.backend_));
        },
        backend_);
}

bool
recordTrace(const noc::NetworkConfig &config, const WorkloadSpec &spec,
            noc::Cycle cycles, const std::string &path,
            std::string *error)
{
    const std::string invalid = validateWorkloadSpec(config, spec);
    if (!invalid.empty()) {
        if (error)
            *error = invalid;
        return false;
    }
    if (cycles < 1) {
        if (error)
            *error = "trace length must be at least one cycle";
        return false;
    }

    // Generation is a pure function of (node, cycle, stream), so a
    // fresh generator swept over the window reproduces exactly the
    // packets a live run of the same spec injects.
    WorkloadGenerator generator(config, spec);
    TraceWriter writer;
    for (noc::Cycle cycle = 0; cycle < cycles; ++cycle) {
        if (generator.idleAt(cycle))
            continue;
        for (noc::NodeId node = 0; node < config.numNodes(); ++node) {
            const std::optional<noc::Packet> pkt =
                generator.generate(config, node, cycle);
            if (!pkt)
                continue;
            TraceRecord record;
            record.cycle = cycle;
            record.src = pkt->src;
            record.dst = pkt->dst;
            record.cls = pkt->msgClass;
            writer.add(record);
        }
    }
    return writer.write(path, error);
}

} // namespace nocalert::traffic
