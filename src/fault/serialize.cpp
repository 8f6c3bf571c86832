#include "fault/serialize.hpp"

#include <algorithm>
#include <concepts>
#include <cstdio>
#include <utility>

#include "fault/sampled.hpp"
#include "util/fsio.hpp"

namespace nocalert::fault {

namespace {

using nocalert::traffic::WorkloadKind;

// ------------------------------------------------------ field visitors

/**
 * One record type of the campaign document: the name that starts
 * every reader error about it, and its field list. fields(v, record)
 * makes one visitor call per key, in document order. Writer runs the
 * list over a const record to build its JSON object; Reader runs the
 * same list over a mutable record to read it back, so a key exists
 * in both directions or in neither.
 */
template <typename Fields>
struct Record
{
    const char *name;
    Fields fields;
};

/** Builds a record's JSON object, one member per field call. */
class Writer
{
  public:
    template <typename Fields, typename T>
    static JsonValue write(const Record<Fields> &record, const T &value)
    {
        Writer writer;
        record.fields(writer, value);
        return std::move(writer.json_);
    }

    template <typename T>
    void field(const char *key, const T &value) { json_.set(key, value); }

    void latency(const char *key, noc::Cycle at, bool) { field(key, at); }

    template <typename E>
    void enumeration(const char *key, E value, const char *,
                     const char *(*name)(E),
                     std::optional<E> (*)(std::string_view))
    {
        json_.set(key, name(value));
    }

    template <typename Fields, typename T>
    void object(const char *key, const T &value,
                const Record<Fields> &record)
    {
        json_.set(key, write(record, value));
    }

    template <typename Fields, typename T>
    bool optionalObject(const char *key, const T &value,
                        const Record<Fields> &record, bool present)
    {
        if (present)
            object(key, value, record);
        return present;
    }

    template <typename Fields, typename T>
    void objects(const char *key, const std::vector<T> &values,
                 const Record<Fields> &record)
    {
        JsonValue array = JsonValue(JsonValue::Array{});
        for (const T &value : values)
            array.push(write(record, value));
        json_.set(key, std::move(array));
    }

    template <typename Numbers>
    void numbers(const char *key, const Numbers &values)
    {
        JsonValue array = JsonValue(JsonValue::Array{});
        for (const auto &value : values) {
            if constexpr (std::is_enum_v<typename Numbers::value_type>)
                array.push(core::invariantIndex(value));
            else
                array.push(value);
        }
        json_.set(key, std::move(array));
    }

    template <typename Fields>
    void when(bool present, const char *, Fields &&fields)
    {
        if (present)
            fields();
    }

    template <typename T, typename Compute>
    void derive(T &value, Compute &&compute) { value = compute(); }

    template <typename Check>
    void check(Check &&) {}

  private:
    JsonValue json_;
};

/**
 * Reads a record back by running its field list over one JSON object.
 * The first error wins: it lands in the shared error slot and turns
 * every later call into a no-op, so a field list reads straight
 * through. Once the list has run, a member it never asked for is an
 * error too: the reader accepts exactly the keys the writer emits.
 */
class Reader
{
  public:
    template <typename Fields, typename T>
    static void read(const JsonValue &json, const Record<Fields> &record,
                     T &value, std::string &error)
    {
        Reader reader(json, record.name, error);
        record.fields(reader, value);
        reader.rejectUnvisited();
    }

    template <typename T>
    void field(const char *key, T &value)
    {
        const JsonValue *json = get(key);
        if (const char *expected = json ? convert(*json, value) : nullptr)
            fail(fieldError(key, expected));
    }

    /**
     * A cycle field that holds kNoDetection unless its event @p fired
     * (a detector's latency, the recovery's first action).
     */
    void latency(const char *key, noc::Cycle &value, bool fired)
    {
        field(key, value);
        if (ok() && (fired ? value < 0 : value != kNoDetection))
            fail(std::string(key) + " inconsistent with its detection flag");
    }

    template <typename E>
    void enumeration(const char *key, E &value, const char *what,
                     const char *(*)(E),
                     std::optional<E> (*parse)(std::string_view))
    {
        std::string name;
        field(key, name);
        if (!ok() || absent_because_)
            return;
        if (const std::optional<E> parsed = parse(name))
            value = *parsed;
        else
            fail("unknown " + std::string(what) + " '" + name + "'");
    }

    template <typename Fields, typename T>
    void object(const char *key, T &value, const Record<Fields> &record)
    {
        if (const JsonValue *json = get(key))
            read(*json, record, value, error_);
    }

    /** Read @p key when the document has it; returns whether it did. */
    template <typename Fields, typename T>
    bool optionalObject(const char *key, T &value,
                        const Record<Fields> &record, bool)
    {
        if (!ok() || !json_.find(key))
            return false;
        object(key, value, record);
        return true;
    }

    template <typename Fields, typename T>
    void objects(const char *key, std::vector<T> &values,
                 const Record<Fields> &record)
    {
        const JsonValue *json = array(key);
        if (!json)
            return;
        values.clear();
        values.reserve(json->array().size());
        for (const JsonValue &entry : json->array()) {
            if (!ok())
                break;
            read(entry, record, values.emplace_back(), error_);
        }
    }

    /** A std::vector takes the array's length; a std::array must match. */
    template <typename Numbers>
    void numbers(const char *key, Numbers &values)
    {
        const JsonValue *json = array(key);
        if (!json)
            return;
        const JsonValue::Array &items = json->array();
        if constexpr (requires { values.resize(0); })
            values.resize(items.size());
        else if (items.size() != values.size())
            return fail(std::string(what_) + " " + key + " must have " +
                        std::to_string(values.size()) + " entries");
        for (std::size_t i = 0; i < items.size(); ++i) {
            if (const char *expected = convert(items[i], values[i]))
                return fail(std::string(what_) + " " + key +
                            " entries must be " + expected);
        }
    }

    /**
     * Keys that exist only when @p present: required then, rejected
     * otherwise with a message saying the key @p needs something.
     */
    template <typename Fields>
    void when(bool present, const char *needs, Fields &&fields)
    {
        absent_because_ = present ? nullptr : needs;
        fields();
        absent_because_ = nullptr;
    }

    /** Derived blocks are read like any other, then checked. */
    template <typename T, typename Compute>
    void derive(T &, Compute &&) {}

    /** @p error returns what is wrong with the record so far, or "". */
    template <typename Check>
    void check(Check &&error)
    {
        if (ok())
            fail(error());
    }

  private:
    Reader(const JsonValue &json, const char *what, std::string &error)
        : json_(json), what_(what), error_(error)
    {
        if (!json_.isObject())
            fail(std::string(what_) + " is not a JSON object");
    }

    // Scalar conversions: nullptr, or what @p json should have been.

    static const char *convert(const JsonValue &json, bool &value)
    {
        if (!json.isBool())
            return "a boolean";
        value = json.boolean();
        return nullptr;
    }

    static const char *convert(const JsonValue &json, double &value)
    {
        if (!json.isNumber())
            return "a number";
        value = json.asDouble();
        return nullptr;
    }

    static const char *convert(const JsonValue &json, std::string &value)
    {
        if (!json.isString())
            return "a string";
        value = json.string();
        return nullptr;
    }

    /** Integers must fit their field: the narrow-integer range check. */
    template <std::integral T>
    static const char *convert(const JsonValue &json, T &value)
    {
        constexpr const char *kWidth = sizeof(T) == 1   ? "an 8-bit value"
                                       : sizeof(T) == 2 ? "a 16-bit value"
                                                        : "a 32-bit value";
        if constexpr (std::is_signed_v<T>) {
            if (json.type() != JsonValue::Type::Int)
                return "an integer";
            if (!std::in_range<T>(json.asInt()))
                return kWidth;
            value = static_cast<T>(json.asInt());
        } else {
            if (!(json.type() == JsonValue::Type::Uint ||
                  (json.type() == JsonValue::Type::Int && json.asInt() >= 0)))
                return "a non-negative integer";
            if (!std::in_range<T>(json.asUint()))
                return kWidth;
            value = static_cast<T>(json.asUint());
        }
        return nullptr;
    }

    static const char *convert(const JsonValue &json, core::InvariantId &id)
    {
        unsigned index = 0;
        if (convert(json, index) || index < 1 || index > core::kNumInvariants)
            return "an invariant index 1..32";
        id = static_cast<core::InvariantId>(index);
        return nullptr;
    }

    bool ok() const { return error_.empty(); }

    void fail(const std::string &message)
    {
        if (error_.empty())
            error_ = message;
    }

    std::string fieldError(const char *key, const char *expected) const
    {
        return std::string(what_) + " field '" + key + "' must be " +
               expected;
    }

    /** Marks @p key visited; nullptr (with the error set) if absent. */
    const JsonValue *get(const char *key)
    {
        if (!ok())
            return nullptr;
        const JsonValue::Object &members = json_.object();
        const JsonValue *json = nullptr;
        // Keys arrive in the writer's order, so the search starts
        // just past the previous hit.
        for (std::size_t i = 0; i < members.size() && !json; ++i) {
            const std::size_t at = (next_ + i) % members.size();
            if (members[at].first == key) {
                json = &members[at].second;
                next_ = at + 1;
                if (at < 64)
                    visited_ |= std::uint64_t{1} << at;
            }
        }
        if (absent_because_) {
            if (json)
                fail(std::string(what_) + " field '" + key +
                     "' requires " + absent_because_);
            return nullptr;
        }
        if (!json)
            fail(std::string(what_) + " is missing field '" + key + "'");
        return json;
    }

    const JsonValue *array(const char *key)
    {
        const JsonValue *json = get(key);
        if (json && !json->isArray()) {
            fail(fieldError(key, "an array"));
            return nullptr;
        }
        return json;
    }

    /** No record has 64 keys, so a member past that is unexpected. */
    void rejectUnvisited()
    {
        if (!ok())
            return;
        const JsonValue::Object &members = json_.object();
        for (std::size_t i = 0; i < members.size(); ++i) {
            if (i >= 64 || !(visited_ >> i & 1))
                return fail(std::string(what_) + " has unexpected field '" +
                            members[i].first + "'");
        }
    }

    const JsonValue &json_;
    const char *what_;
    std::string &error_;
    const char *absent_because_ = nullptr;
    std::size_t next_ = 0;
    std::uint64_t visited_ = 0;
};

template <typename T>
std::optional<T>
finish(T value, std::string &error, std::string *out_error)
{
    if (error.empty())
        return value;
    if (out_error)
        *out_error = error;
    return std::nullopt;
}

// --------------------------------------------------------- field lists

constexpr Record kMessageClass{"message class", [](auto &v, auto &cls) {
    v.field("name", cls.name);
    v.field("packetLength", cls.packetLength);
}};

constexpr Record kRouterParams{"router params", [](auto &v, auto &router) {
    v.field("numVcs", router.numVcs);
    v.field("bufferDepth", router.bufferDepth);
    v.field("atomicBuffers", router.atomicBuffers);
    v.field("speculative", router.speculative);
    v.field("flitWidthBits", router.flitWidthBits);
    v.field("extendedChecks", router.extendedChecks);
    v.objects("classes", router.classes, kMessageClass);
}};

constexpr Record kRetransmit{"retransmit params", [](auto &v, auto &params) {
    v.field("enabled", params.enabled);
    v.field("ackTimeout", params.ackTimeout);
    v.field("maxRetries", params.maxRetries);
    v.field("backoffCap", params.backoffCap);
}};

constexpr Record kNetworkConfig{"network config", [](auto &v, auto &network) {
    v.field("width", network.width);
    v.field("height", network.height);
    v.enumeration("routing", network.routing, "routing algorithm",
                  noc::routingAlgoName, noc::routingAlgoFromName);
    v.object("router", network.router, kRouterParams);
    v.object("retransmit", network.retransmit, kRetransmit);
}};

/**
 * The destination mix a synthetic spec and a phase segment share. The
 * hotspot parameters live in their own sub-spec in memory
 * (noc::HotspotSpec) but keep the legacy flat keys on disk, so every
 * artifact ever written round-trips byte-identically.
 */
constexpr auto kMixFields = [](auto &v, auto &spec) {
    v.numbers("classWeights", spec.classWeights);
    v.field("hotspot", spec.hotspot.node);
    v.field("hotspotFraction", spec.hotspot.fraction);
};

constexpr Record kTrafficSpec{"traffic spec", [](auto &v, auto &traffic) {
    v.enumeration("pattern", traffic.pattern, "traffic pattern",
                  noc::trafficPatternName, noc::trafficPatternFromName);
    v.field("injectionRate", traffic.injectionRate);
    v.field("seed", traffic.seed);
    v.field("stopCycle", traffic.stopCycle);
    kMixFields(v, traffic);
}};

constexpr Record kPhaseSegment{"phase segment", [](auto &v, auto &segment) {
    v.field("begin", segment.begin);
    v.field("end", segment.end);
    v.enumeration("pattern", segment.pattern, "traffic pattern",
                  noc::trafficPatternName, noc::trafficPatternFromName);
    v.field("rate", segment.rate);
    kMixFields(v, segment);
}};

constexpr Record kBurstSpec{"burst spec", [](auto &v, auto &burst) {
    v.field("enabled", burst.enabled);
    v.field("period", burst.period);
    v.field("onProbability", burst.onProbability);
    v.field("onMultiplier", burst.onMultiplier);
    v.field("offMultiplier", burst.offMultiplier);
    v.field("layers", burst.layers);
}};

constexpr Record kPhasedSpec{"phased workload", [](auto &v, auto &phased) {
    v.objects("segments", phased.segments, kPhaseSegment);
    v.object("burst", phased.burst, kBurstSpec);
    v.field("seed", phased.seed);
    v.field("stopCycle", phased.stopCycle);
    v.field("repeat", phased.repeat);
}};

constexpr Record kTraceSpec{"trace workload", [](auto &v, auto &trace) {
    v.field("path", trace.path);
    v.field("digest", trace.digest);
    v.field("records", trace.records);
    v.field("stopCycle", trace.stopCycle);
}};

/**
 * The `workload` block of schema-v6 configs. Only the active backend
 * is emitted — the inactive specs are defaults by construction, so
 * identity hashing never keys on dead fields.
 */
constexpr Record kWorkloadSpec{"workload spec", [](auto &v, auto &workload) {
    v.enumeration("kind", workload.kind, "workload kind",
                  nocalert::traffic::workloadKindName,
                  nocalert::traffic::workloadKindFromName);
    switch (workload.kind) {
      case WorkloadKind::Synthetic:
        v.object("synthetic", workload.synthetic, kTrafficSpec);
        break;
      case WorkloadKind::Phased:
        v.object("phased", workload.phased, kPhasedSpec);
        break;
      case WorkloadKind::Trace:
        v.object("trace", workload.trace, kTraceSpec);
        break;
    }
}};

constexpr Record kForeverConfig{"forever config", [](auto &v, auto &config) {
    v.field("epochLength", config.epochLength);
    v.field("hopLatency", config.hopLatency);
    v.field("useAllocationComparator", config.useAllocationComparator);
    v.field("useEndToEnd", config.useEndToEnd);
}};

constexpr Record kFaultSite{"fault site", [](auto &v, auto &site) {
    v.field("router", site.router);
    v.enumeration("signal", site.signal, "signal class",
                  signalClassName, signalClassFromName);
    v.field("port", site.port);
    v.field("vc", site.vc);
    v.field("bit", site.bit);
}};

constexpr Record kSamplingSpec{"sampling spec", [](auto &v, auto &spec) {
    v.field("enabled", spec.enabled);
    v.enumeration("stratify", spec.stratify, "stratification",
                  stratifyName, stratifyFromName);
    v.enumeration("method", spec.method, "interval method",
                  stats::intervalMethodName,
                  stats::intervalMethodFromName);
    v.field("confidence", spec.confidence);
    v.field("ciHalfWidth", spec.ciHalfWidth);
    v.field("maxRuns", spec.maxRuns);
    v.field("batchSize", spec.batchSize);
    v.field("minPerStratum", spec.minPerStratum);
    v.field("cycleJitter", spec.cycleJitter);
    v.field("seedCount", spec.seedCount);
    v.field("reallocate", spec.reallocate);
    v.field("samplerSeed", spec.samplerSeed);
}};

/**
 * The campaign config. Synthetic workloads keep the legacy flat
 * `traffic` block, so every schema-v4/v5 artifact serializes
 * byte-identically to the day it was written; the phased and trace
 * backends emit a `workload` block (schema v6) in the same key
 * position. @p workload_block picks one: writers pass whether the
 * workload is non-synthetic, readers what the document's version (or
 * a bare config's own keys) says.
 */
auto
campaignConfig(bool workload_block)
{
    return Record{"campaign config", [=](auto &v, auto &config) {
        v.object("network", config.network, kNetworkConfig);
        if (workload_block)
            v.object("workload", config.workload, kWorkloadSpec);
        else
            v.object("traffic", config.workload.synthetic, kTrafficSpec);
        v.field("warmup", config.warmup);
        v.field("observeWindow", config.observeWindow);
        v.field("drainLimit", config.drainLimit);
        v.enumeration("kind", config.kind, "fault kind", faultKindName,
                      faultKindFromName);
        v.field("maxSites", config.maxSites);
        v.field("wireSitesOnly", config.wireSitesOnly);
        v.field("sampleSeed", config.sampleSeed);
        v.field("runForever", config.runForever);
        v.object("forever", config.forever, kForeverConfig);
        v.field("recovery", config.recovery);
        // Present iff enabled: exhaustive configs (schema v4) serialize
        // as before sampling existed. Every sampling knob shapes the
        // draw stream, so the block is campaign identity as well.
        const bool sampling = v.optionalObject(
            "sampling", config.sampling, kSamplingSpec,
            config.sampling.enabled);
        v.check([&] {
            return sampling == config.sampling.enabled
                       ? ""
                       : "campaign config has a disabled 'sampling' block";
        });
        v.field("denseKernel", config.denseKernel);
        // jobs / checkpointPath / checkpointEvery never reach JSON, so
        // every --jobs value and checkpoint cadence writes the same
        // bytes and a loaded config gets their defaults. The shard
        // selector is structural: it says which runs this document holds.
        v.field("shardIndex", config.shardIndex);
        v.field("shardCount", config.shardCount);
        // Reject a malformed workload here, before anything (the phase
        // planner, a resume, a serve submission) consumes it. Synthetic
        // specs keep the legacy lenient load path.
        v.check([&] {
            if (config.workload.kind == WorkloadKind::Synthetic)
                return std::string();
            const std::string error = nocalert::traffic::validateWorkloadSpec(
                config.network, config.workload);
            return error.empty() ? error : "invalid workload spec: " + error;
        });
    }};
}

/** What a key that only sampled documents carry requires. */
constexpr const char *kSampledOnly = "a config 'sampling' block";

/** @p sampled adds the schema-v5 draw tags. */
auto
faultRun(bool sampled)
{
    return Record{"fault run", [sampled](auto &v, auto &run) {
        v.field("sampleIndex", run.sampleIndex);
        v.when(sampled, kSampledOnly, [&] {
            v.field("stratum", run.stratum);
            v.field("seedIndex", run.seedIndex);
        });
        v.object("site", run.site, kFaultSite);
        v.field("injectCycle", run.injectCycle);
        v.field("violated", run.violated);
        v.field("violatedConditions", run.violatedConditions);
        v.field("drained", run.drained);
        v.field("detected", run.detected);
        v.latency("detectionLatency", run.detectionLatency, run.detected);
        v.field("detectedCautious", run.detectedCautious);
        v.latency("cautiousLatency", run.cautiousLatency,
                  run.detectedCautious);
        v.field("alertAtInjection", run.alertAtInjection);
        v.field("simultaneousCheckers", run.simultaneousCheckers);
        v.numbers("invariants", run.invariants);
        v.field("foreverDetected", run.foreverDetected);
        v.latency("foreverLatency", run.foreverLatency, run.foreverDetected);
        v.field("recovered", run.recovered);
        v.field("recoveryTriggered", run.recoveryTriggered);
        v.latency("recoveryCycle", run.recoveryCycle, run.recoveryTriggered);
        v.field("recoveryActions", run.recoveryActions);
        v.field("quarantinedPorts", run.quarantinedPorts);
        v.field("purgedFlits", run.purgedFlits);
        v.field("retransmits", run.retransmits);
        v.field("duplicatesSuppressed", run.duplicatesSuppressed);
        v.field("packetsAbandoned", run.packetsAbandoned);
        v.check([&] {
            return run.recovered && !run.detected
                       ? "recovered requires detected"
                       : "";
        });
    }};
}

constexpr Record kTelemetry{"telemetry", [](auto &v, auto &telemetry) {
    v.field("runsPlanned", telemetry.runsPlanned);
    v.field("runsCompleted", telemetry.runsCompleted);
    v.numbers("outcomes", telemetry.outcomes);
}};

constexpr Record kInterval{"interval", [](auto &v, auto &interval) {
    v.field("lower", interval.lower);
    v.field("upper", interval.upper);
}};

constexpr Record kEstimate{"stratum estimate", [](auto &v, auto &estimate) {
    v.field("name", estimate.name);
    v.field("population", estimate.population);
    v.field("draws", estimate.draws);
    v.field("detected", estimate.detected);
    v.field("falsePositives", estimate.falsePositives);
    v.field("falseNegatives", estimate.falseNegatives);
    v.field("halted", estimate.halted);
    v.object("detectedWilson", estimate.detectedWilson, kInterval);
    v.object("detectedClopperPearson", estimate.detectedClopperPearson,
             kInterval);
    v.object("falsePositiveWilson", estimate.falsePositiveWilson,
             kInterval);
    v.object("falsePositiveClopperPearson",
             estimate.falsePositiveClopperPearson, kInterval);
    v.object("falseNegativeWilson", estimate.falseNegativeWilson,
             kInterval);
    v.object("falseNegativeClopperPearson",
             estimate.falseNegativeClopperPearson, kInterval);
}};

constexpr Record kSamplingReport{"sampling report", [](auto &v, auto &report) {
    v.objects("strata", report.strata, kEstimate);
    v.object("pooled", report.pooled, kEstimate);
}};

/** Reader check of the runs against the header and telemetry. */
std::string
runsError(const CampaignResult &result, const CampaignTelemetry &stored)
{
    for (std::size_t i = 1; i < result.runs.size(); ++i) {
        if (result.runs[i - 1].sampleIndex >= result.runs[i].sampleIndex)
            return "runs are not in increasing sampleIndex order";
    }
    if (result.runs.size() > result.shardRunsPlanned)
        return "more runs than shardRunsPlanned";
    if (stored != computeTelemetry(result))
        return "telemetry block inconsistent with runs";
    return {};
}

/** Reader check of a sampled document's spec, draw tags and report. */
std::string
samplingError(const CampaignResult &result, const SamplingReport &stored)
{
    const CampaignConfig &config = result.config;
    // Guard the recomputation below (which enumerates the network and
    // builds a planner) against aborting on nonsense input.
    const std::string spec_error =
        validateSamplingSpec(config.sampling, config.observeWindow);
    if (!spec_error.empty())
        return "invalid sampling spec: " + spec_error;
    if (config.sampling.stratify == Stratify::Phase &&
        config.workload.kind != WorkloadKind::Phased)
        return "phase stratification needs a phased workload";
    if (config.network.width <= 0 || config.network.height <= 0)
        return "sampled campaign with an empty mesh";
    std::vector<FaultSite> population = sampledPopulation(config);
    if (population.empty())
        return "sampled campaign with an empty site population";
    const SampledPlanner planner(config, std::move(population));
    for (const FaultRunResult &run : result.runs) {
        if (run.stratum >= planner.strataCount() ||
            run.seedIndex >= config.sampling.seedCount)
            return "run draw tags out of range for the sampling spec";
    }
    if (toJson(stored) != toJson(computeSamplingReport(result)))
        return "sampling block inconsistent with runs";
    return {};
}

constexpr Record kCampaignResult{"campaign result", [](auto &v, auto &result) {
    std::string schema = kCampaignSchemaName;
    v.field("schema", schema);
    v.check([&] {
        return schema == kCampaignSchemaName
                   ? std::string()
                   : "not a campaign document (schema '" + schema + "')";
    });
    std::int64_t version = campaignSchemaVersionFor(result.config);
    v.field("version", version);
    v.check([&] {
        if (version >= kCampaignSchemaVersionMin &&
            version <= kCampaignSchemaVersion)
            return std::string();
        return "unsupported campaign schema version " +
               std::to_string(version) + " (expected " +
               std::to_string(kCampaignSchemaVersionMin) + ".." +
               std::to_string(kCampaignSchemaVersion) + ")";
    });
    v.object("config", result.config,
             campaignConfig(version == kCampaignSchemaVersion));
    // The version is determined by the config: 6 iff the workload
    // is non-synthetic, else 5 iff sampled. A document claiming
    // otherwise was hand-edited or corrupted.
    v.check([&] {
        if (version == campaignSchemaVersionFor(result.config))
            return std::string();
        return "schema version " + std::to_string(version) +
               " inconsistent with the config's workload and "
               "sampling state";
    });
    v.field("totalSitesEnumerated", result.totalSitesEnumerated);
    v.field("goldenFlits", result.goldenFlits);
    v.field("shardRunsPlanned", result.shardRunsPlanned);
    const bool sampled = result.config.sampling.enabled;
    v.when(sampled, kSampledOnly,
           [&] { v.field("samplerDone", result.samplerDone); });
    // Derived blocks: deterministic projections of the runs below
    // (never wall-clock rates, which would break byte-identity
    // across machines and --jobs). The reader recomputes both from
    // the runs and rejects a document whose stored block disagrees
    // — tampered or corrupted — rather than silently recompute.
    CampaignTelemetry telemetry;
    v.derive(telemetry, [&] { return computeTelemetry(result); });
    v.object("telemetry", telemetry, kTelemetry);
    SamplingReport report;
    v.when(sampled, kSampledOnly, [&] {
        v.derive(report, [&] { return computeSamplingReport(result); });
        v.object("sampling", report, kSamplingReport);
    });
    v.objects("runs", result.runs, faultRun(sampled));
    v.check([&] { return runsError(result, telemetry); });
    if (sampled)
        v.check([&] { return samplingError(result, report); });
}};

JsonValue
histogramJson(const Histogram &histogram)
{
    JsonValue points = JsonValue(JsonValue::Array{});
    for (const auto &[value, count] : histogram.points()) {
        JsonValue point = JsonValue(JsonValue::Array{});
        point.push(value);
        point.push(count);
        points.push(std::move(point));
    }
    return points;
}

/** The summary verify compares: written only, so it has no reader. */
constexpr Record kSummary{"campaign summary", [](auto &v, auto &summary) {
    v.field("runs", summary.runs);
    v.numbers("nocalert", summary.nocalert);
    v.numbers("cautious", summary.cautious);
    v.numbers("forever", summary.forever);
    v.field("detectionLatency", histogramJson(summary.detectionLatency));
    v.field("foreverLatency", histogramJson(summary.foreverLatency));
    v.field("simultaneous", histogramJson(summary.simultaneous));
    v.numbers("perInvariant", summary.perInvariant);
    v.field("noInstantAlert", summary.noInstantAlert);
    v.field("noInstantCaughtLater", summary.noInstantCaughtLater);
    v.field("noInstantBenignUndetected", summary.noInstantBenignUndetected);
    v.field("noInstantViolatedUndetected",
            summary.noInstantViolatedUndetected);
}};

} // namespace

// ---------------------------------------------------------- documents

std::int64_t
campaignSchemaVersionFor(const CampaignConfig &config)
{
    if (config.workload.kind != WorkloadKind::Synthetic)
        return kCampaignSchemaVersion;
    return config.sampling.enabled ? kCampaignSchemaVersionSampled
                                   : kCampaignSchemaVersionMin;
}

JsonValue
toJson(const CampaignConfig &config)
{
    return Writer::write(
        campaignConfig(config.workload.kind != WorkloadKind::Synthetic),
        config);
}

JsonValue
toJson(const FaultRunResult &run, bool sampled)
{
    return Writer::write(faultRun(sampled), run);
}

JsonValue
toJson(const CampaignResult &result)
{
    return Writer::write(kCampaignResult, result);
}

JsonValue
toJson(const CampaignTelemetry &telemetry)
{
    return Writer::write(kTelemetry, telemetry);
}

JsonValue
toJson(const SamplingReport &report)
{
    return Writer::write(kSamplingReport, report);
}

std::optional<CampaignConfig>
campaignConfigFromJson(const JsonValue &json, std::string *out_error)
{
    std::string error;
    CampaignConfig config;
    // A bare config has no version to say which workload block it
    // holds, so its keys say it.
    Reader::read(json, campaignConfig(json.find("workload") != nullptr),
                 config, error);
    return finish(std::move(config), error, out_error);
}

std::optional<CampaignResult>
campaignResultFromJson(const JsonValue &json, std::string *out_error)
{
    std::string error;
    CampaignResult result;
    Reader::read(json, kCampaignResult, result, error);
    return finish(std::move(result), error, out_error);
}

JsonValue
campaignIdentityJson(const CampaignConfig &config)
{
    // denseKernel is execution detail: both kernels produce
    // bit-identical results, so shards may mix them freely. (jobs and
    // checkpoint knobs are never serialized in the first place.)
    static constexpr const char *kExecutionKeys[] = {
        "shardIndex", "shardCount", "denseKernel"};

    const JsonValue full = toJson(config);
    JsonValue identity;
    for (const auto &[key, value] : full.object()) {
        const bool execution =
            std::find(std::begin(kExecutionKeys), std::end(kExecutionKeys),
                      key) != std::end(kExecutionKeys);
        if (!execution)
            identity.set(key, value);
    }
    return identity;
}

std::string
campaignArtifactHash(const CampaignConfig &config)
{
    const std::string bytes =
        toJson(normalizedCampaignConfig(config)).dump();
    // FNV-1a 64: deterministic across platforms and builds, cheap,
    // and keyed on exact serialized bytes — any knob that can change
    // the artifact changes the key.
    std::uint64_t hash = 0xcbf29ce484222325ULL;
    for (unsigned char byte : bytes) {
        hash ^= byte;
        hash *= 0x100000001b3ULL;
    }
    char hex[17];
    std::snprintf(hex, sizeof(hex), "%016llx",
                  static_cast<unsigned long long>(hash));
    return std::string(hex);
}

JsonValue
toJson(const CampaignSummary &summary)
{
    return Writer::write(kSummary, summary);
}

// ---------------------------------------------------- documents, files

std::string
writeCampaignJson(const CampaignResult &result)
{
    return toJson(result).dump(2) + "\n";
}

std::optional<CampaignResult>
readCampaignJson(std::string_view text, std::string *out_error)
{
    std::string error;
    const std::optional<JsonValue> json = parseJson(text, &error);
    if (!json) {
        if (out_error)
            *out_error = error;
        return std::nullopt;
    }
    return campaignResultFromJson(*json, out_error);
}

bool
saveCampaignResult(const CampaignResult &result, const std::string &path,
                   std::string *out_error)
{
    return writeFileAtomic(path, writeCampaignJson(result), out_error);
}

std::optional<CampaignResult>
loadCampaignResult(const std::string &path, std::string *out_error)
{
    const std::optional<std::string> text = readFileBytes(path);
    std::string error = "cannot open '" + path + "'";
    auto result = text ? readCampaignJson(*text, &error) : std::nullopt;
    if (!result && out_error)
        *out_error = text ? path + ": " + error : error;
    return result;
}

// --------------------------------------------------------------- merge

std::optional<CampaignResult>
mergeCampaignShards(std::span<const CampaignResult> shards,
                    std::string *out_error)
{
    std::string error;
    auto fail = [&](const std::string &message) {
        error = message;
        return finish(CampaignResult{}, error, out_error);
    };

    if (shards.empty())
        return fail("no shards to merge");

    const CampaignResult &first = shards.front();
    const unsigned count = std::max(1u, first.config.shardCount);
    if (shards.size() != count)
        return fail("expected " + std::to_string(count) +
                    " shards, got " + std::to_string(shards.size()));

    const JsonValue identity = campaignIdentityJson(first.config);
    std::vector<bool> seen(count, false);

    CampaignResult merged;
    merged.config = first.config;
    merged.config.shardIndex = 0;
    merged.config.shardCount = 1;
    merged.config.checkpointPath.clear();
    merged.totalSitesEnumerated = first.totalSitesEnumerated;
    merged.goldenFlits = first.goldenFlits;

    for (const CampaignResult &shard : shards) {
        const unsigned index = shard.config.shardIndex;
        if (shard.config.shardCount != count || index >= count)
            return fail("shard selector " + std::to_string(index) + "/" +
                        std::to_string(shard.config.shardCount) +
                        " does not fit a " + std::to_string(count) +
                        "-way campaign");
        if (seen[index])
            return fail("duplicate shard " + std::to_string(index));
        seen[index] = true;
        if (campaignIdentityJson(shard.config) != identity)
            return fail("shard " + std::to_string(index) +
                        " was run with a different campaign config");
        if (!shard.complete())
            return fail("shard " + std::to_string(index) +
                        " is incomplete (" +
                        std::to_string(shard.runs.size()) + " of " +
                        std::to_string(shard.shardRunsPlanned) +
                        " runs)");
        if (shard.totalSitesEnumerated != merged.totalSitesEnumerated ||
            shard.goldenFlits != merged.goldenFlits)
            return fail("shard " + std::to_string(index) +
                        " disagrees on site enumeration or golden "
                        "reference");
        for (const FaultRunResult &run : shard.runs) {
            if (run.sampleIndex % count != index)
                return fail("run with sampleIndex " +
                            std::to_string(run.sampleIndex) +
                            " does not belong to shard " +
                            std::to_string(index));
        }
        merged.shardRunsPlanned += shard.shardRunsPlanned;
        merged.runs.insert(merged.runs.end(), shard.runs.begin(),
                           shard.runs.end());
    }

    std::sort(merged.runs.begin(), merged.runs.end(),
              [](const FaultRunResult &a, const FaultRunResult &b) {
                  return a.sampleIndex < b.sampleIndex;
              });
    for (std::size_t i = 1; i < merged.runs.size(); ++i) {
        if (merged.runs[i - 1].sampleIndex ==
            merged.runs[i].sampleIndex)
            return fail("duplicate sampleIndex " +
                        std::to_string(merged.runs[i].sampleIndex) +
                        " across shards");
    }

    return finish(std::move(merged), error, out_error);
}

} // namespace nocalert::fault
