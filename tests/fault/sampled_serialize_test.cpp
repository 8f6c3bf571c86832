/**
 * Schema v4 / v5 contract for sampled campaigns: exhaustive artifacts
 * keep writing the legacy v4 document byte for byte, sampled artifacts
 * round-trip as v5 with their sampling block recompute-validated, the
 * version field and the sampling state must agree, and every sampling
 * parameter is campaign identity.
 */

#include "fault/campaign.hpp"
#include "fault/sampled.hpp"
#include "fault/serialize.hpp"
#include "traffic/workload.hpp"

#include <gtest/gtest.h>

#include <fstream>
#include <optional>
#include <sstream>
#include <string>

#ifndef NOCALERT_RUNS
#error "NOCALERT_RUNS must point at runs/"
#endif

namespace nocalert::fault {
namespace {

CampaignConfig
tinyCampaign()
{
    CampaignConfig config;
    config.network.width = 4;
    config.network.height = 4;
    config.workload.synthetic.injectionRate = 0.05;
    config.workload.synthetic.seed = 13;
    config.warmup = 200;
    config.observeWindow = 1200;
    config.drainLimit = 4000;
    config.maxSites = 8;
    config.runForever = false;
    return config;
}

CampaignConfig
tinySampled()
{
    CampaignConfig config = tinyCampaign();
    config.sampling.enabled = true;
    config.sampling.ciHalfWidth = 0.0;
    config.sampling.maxRuns = 8;
    config.sampling.batchSize = 8;
    config.sampling.seedCount = 2;
    config.sampling.cycleJitter = 32;
    config.sampling.samplerSeed = 21;
    return config;
}

/** One finished sampled result, computed once per process. */
const CampaignResult &
sampledResult()
{
    static const CampaignResult result =
        FaultCampaign(tinySampled()).run();
    return result;
}

TEST(SampledSerialize, ExhaustiveArtifactsStayOnSchemaV4)
{
    // Backward compatibility is a writer property here: with sampling
    // disabled the document must remain the exact legacy v4 shape —
    // same version number, no sampling keys anywhere — so pre-v5
    // artifacts and fresh exhaustive ones stay interchangeable.
    EXPECT_EQ(campaignSchemaVersionFor(tinyCampaign()), 4);
    const CampaignResult result = FaultCampaign(tinyCampaign()).run();
    const JsonValue doc = toJson(result);
    ASSERT_NE(doc.find("version"), nullptr);
    EXPECT_EQ(doc.find("version")->asInt(), 4);
    EXPECT_EQ(doc.find("sampling"), nullptr);
    EXPECT_EQ(doc.find("samplerDone"), nullptr);
    ASSERT_NE(doc.find("config"), nullptr);
    EXPECT_EQ(doc.find("config")->find("sampling"), nullptr);

    std::string error;
    const auto restored =
        readCampaignJson(writeCampaignJson(result), &error);
    ASSERT_TRUE(restored.has_value()) << error;
    EXPECT_TRUE(restored->complete());
    EXPECT_FALSE(restored->config.sampling.enabled);
}

TEST(SampledSerialize, SampledArtifactRoundTripsOnSchemaV5)
{
    EXPECT_EQ(campaignSchemaVersionFor(tinySampled()), 5);
    const CampaignResult &result = sampledResult();
    ASSERT_TRUE(result.complete());

    const JsonValue doc = toJson(result);
    ASSERT_NE(doc.find("version"), nullptr);
    EXPECT_EQ(doc.find("version")->asInt(), 5);
    EXPECT_NE(doc.find("sampling"), nullptr);
    EXPECT_NE(doc.find("samplerDone"), nullptr);

    const std::string text = writeCampaignJson(result);
    std::string error;
    const auto restored = readCampaignJson(text, &error);
    ASSERT_TRUE(restored.has_value()) << error;
    EXPECT_TRUE(restored->config.sampling.enabled);
    EXPECT_TRUE(restored->samplerDone);
    EXPECT_TRUE(restored->complete());
    EXPECT_EQ(restored->config.sampling.samplerSeed, 21u);
    EXPECT_EQ(restored->config.sampling.seedCount, 2u);
    EXPECT_EQ(restored->config.sampling.cycleJitter, 32);
    EXPECT_EQ(restored->config.sampling.maxRuns, 8u);
    ASSERT_EQ(restored->runs.size(), result.runs.size());
    for (std::size_t i = 0; i < result.runs.size(); ++i) {
        EXPECT_EQ(restored->runs[i].stratum, result.runs[i].stratum);
        EXPECT_EQ(restored->runs[i].seedIndex,
                  result.runs[i].seedIndex);
    }

    // Byte-identical re-serialization, like the v4 contract.
    EXPECT_EQ(writeCampaignJson(*restored), text);
}

TEST(SampledSerialize, VersionMustAgreeWithSamplingState)
{
    // A sampled document downgraded to version 4 and an exhaustive
    // document upgraded to version 5 are both corrupt: the version is
    // not advisory, it must match what the config implies.
    JsonValue sampled = toJson(sampledResult());
    sampled.set("version", 4);
    std::string error;
    EXPECT_FALSE(campaignResultFromJson(sampled, &error).has_value());
    EXPECT_NE(error.find("version"), std::string::npos) << error;

    const CampaignResult exhaustive =
        FaultCampaign(tinyCampaign()).run();
    JsonValue doc = toJson(exhaustive);
    doc.set("version", 5);
    error.clear();
    EXPECT_FALSE(campaignResultFromJson(doc, &error).has_value());
    EXPECT_NE(error.find("version"), std::string::npos) << error;

    // Outside the supported range entirely.
    JsonValue future = toJson(sampledResult());
    future.set("version", kCampaignSchemaVersion + 1);
    error.clear();
    EXPECT_FALSE(campaignResultFromJson(future, &error).has_value());
    EXPECT_NE(error.find("version"), std::string::npos) << error;
}

TEST(SampledSerialize, TamperedSamplingBlockIsRejected)
{
    // The sampling block is recompute-validated like telemetry: a
    // document whose estimates disagree with its own runs is corrupt.
    JsonValue doc = toJson(sampledResult());
    JsonValue sampling = *doc.find("sampling");
    JsonValue pooled = *sampling.find("pooled");
    pooled.set("detected", 999);
    sampling.set("pooled", std::move(pooled));
    doc.set("sampling", std::move(sampling));
    std::string error;
    EXPECT_FALSE(campaignResultFromJson(doc, &error).has_value());
    EXPECT_NE(error.find("sampling"), std::string::npos) << error;
}

TEST(SampledSerialize, OutOfRangeDrawTagsAreRejected)
{
    // Per-run draw coordinates are bounded by the spec: a stratum tag
    // past the planner's stratum count or a seed index past seedCount
    // cannot have been produced by this campaign.
    auto tamperRun = [](const char *key, int value) {
        JsonValue doc = toJson(sampledResult());
        JsonValue::Array runs = doc.find("runs")->array();
        runs[0].set(key, value);
        doc.set("runs", JsonValue(std::move(runs)));
        std::string error;
        EXPECT_FALSE(campaignResultFromJson(doc, &error).has_value());
        return error;
    };
    EXPECT_NE(tamperRun("stratum", 99).find("draw tags out of range"),
              std::string::npos);
    // seedCount is 2, so index 7 is impossible.
    EXPECT_NE(tamperRun("seedIndex", 7).find("draw tags out of range"),
              std::string::npos);
}

/** @p object without its member @p key. */
JsonValue
without(const JsonValue &object, std::string_view key)
{
    JsonValue::Object members;
    for (const auto &[name, value] : object.object()) {
        if (name != key)
            members.emplace_back(name, value);
    }
    return JsonValue(std::move(members));
}

TEST(SampledSerialize, ConditionalKeysFollowTheSamplingSpec)
{
    // The draw tags, samplerDone and the sampling report exist only
    // in sampled documents: required with a sampling spec, rejected
    // without one. A sampled v6 document that loses its spec must not
    // load as an exhaustive campaign (its version does not change).
    std::ifstream file(NOCALERT_RUNS "/e16_phased.json");
    std::ostringstream text;
    text << file.rdbuf();
    std::optional<JsonValue> doc = parseJson(text.str());
    ASSERT_TRUE(doc.has_value());
    std::string error;
    ASSERT_TRUE(campaignResultFromJson(*doc, &error).has_value()) << error;
    ASSERT_EQ(doc->find("version")->asInt(), 6);
    doc->set("config", without(*doc->find("config"), "sampling"));
    EXPECT_FALSE(campaignResultFromJson(*doc, &error).has_value());
    EXPECT_NE(error.find("'sampling'"), std::string::npos) << error;

    // A sampled run without a draw tag is rejected, not read as 0.
    for (const char *key : {"stratum", "seedIndex"}) {
        JsonValue sampled = toJson(sampledResult());
        JsonValue::Array runs = sampled.find("runs")->array();
        runs[0] = without(runs[0], key);
        sampled.set("runs", JsonValue(std::move(runs)));
        error.clear();
        EXPECT_FALSE(campaignResultFromJson(sampled, &error).has_value())
            << key;
        EXPECT_NE(error.find(key), std::string::npos) << error;
    }
}

TEST(SampledSerialize, EverySamplingKnobIsCampaignIdentity)
{
    const CampaignConfig base = tinySampled();
    // Execution knobs still do not matter.
    {
        CampaignConfig other = base;
        other.jobs = 16;
        other.checkpointPath = "elsewhere.json";
        other.checkpointEvery = 1;
        EXPECT_EQ(campaignIdentityJson(base),
                  campaignIdentityJson(other));
    }
    // Toggling sampling itself, or any knob of the spec, changes
    // which runs exist — all of it is identity.
    auto differs = [&](auto mutate) {
        CampaignConfig other = base;
        mutate(other.sampling);
        return campaignIdentityJson(base) != campaignIdentityJson(other);
    };
    EXPECT_TRUE(differs([](SamplingSpec &s) { s.enabled = false; }));
    EXPECT_TRUE(differs([](SamplingSpec &s) { s.samplerSeed += 1; }));
    EXPECT_TRUE(differs([](SamplingSpec &s) { s.maxRuns += 1; }));
    EXPECT_TRUE(differs([](SamplingSpec &s) { s.batchSize += 1; }));
    EXPECT_TRUE(differs([](SamplingSpec &s) { s.ciHalfWidth = 0.1; }));
    EXPECT_TRUE(differs([](SamplingSpec &s) { s.confidence = 0.99; }));
    EXPECT_TRUE(differs([](SamplingSpec &s) { s.seedCount += 1; }));
    EXPECT_TRUE(differs([](SamplingSpec &s) { s.cycleJitter += 1; }));
    EXPECT_TRUE(differs([](SamplingSpec &s) { s.minPerStratum += 1; }));
    EXPECT_TRUE(differs([](SamplingSpec &s) { s.reallocate = false; }));
    EXPECT_TRUE(differs(
        [](SamplingSpec &s) { s.stratify = Stratify::None; }));
    EXPECT_TRUE(differs([](SamplingSpec &s) {
        s.method = stats::IntervalMethod::ClopperPearson;
    }));
}

TEST(SampledSerialize, SamplingReportIsAPureFunctionOfRuns)
{
    // Two independent computations over the same result must agree
    // exactly — the property the reader's validation relies on.
    const CampaignResult &result = sampledResult();
    const SamplingReport a = computeSamplingReport(result);
    const SamplingReport b = computeSamplingReport(result);
    EXPECT_EQ(toJson(a).dump(), toJson(b).dump());

    // And the serialized block is that computation, verbatim.
    const JsonValue doc = toJson(result);
    ASSERT_NE(doc.find("sampling"), nullptr);
    EXPECT_EQ(doc.find("sampling")->dump(), toJson(a).dump());
}

TEST(SampledSerialize, ForeverAlarmsBeforeInjectionAreNotTheFaults)
{
    // Under this phase program ForEVeR alarms on the fault-free
    // traffic inside the jitter window, so a draw injected after such
    // an alarm raises it too before its fault arms. Only alarms from
    // the injection on may count, or the artifact would record a
    // negative latency (-1 reads as the no-detection sentinel) that
    // the reader rejects.
    CampaignConfig config = tinyCampaign();
    ASSERT_EQ(nocalert::traffic::parsePhaseProgram(
                  "0:200:uniform:0.06,200:400:transpose:0.1,"
                  "400:600:hotspot:0.05:5:0.5",
                  config.workload.phased),
              "");
    config.workload.phased.repeat = true;
    config.workload.phased.seed = 13;
    config.workload.kind = nocalert::traffic::WorkloadKind::Phased;
    config.runForever = true;
    config.forever.epochLength = 150;
    config.sampling.enabled = true;
    config.sampling.stratify = Stratify::Phase;
    config.sampling.ciHalfWidth = 0.0;
    config.sampling.maxRuns = 24;
    config.sampling.batchSize = 24;
    config.sampling.cycleJitter = 500;
    config.sampling.samplerSeed = 5;
    config = normalizedCampaignConfig(config);

    const FaultCampaign::PreparedReference prepared =
        FaultCampaign::prepareReference(config, config.workload.seed());
    const std::optional<noc::Cycle> alarm =
        prepared.golden.foreverAlarmFrom(prepared.base.cycle());
    ASSERT_TRUE(alarm.has_value());

    const CampaignResult result = FaultCampaign(config).run();
    std::size_t after_alarm = 0;
    for (const FaultRunResult &run : result.runs) {
        if (run.injectCycle > *alarm)
            ++after_alarm;
        if (run.foreverDetected) {
            EXPECT_GE(run.foreverLatency, 0) << "draw " << run.sampleIndex;
        }
    }
    EXPECT_GT(after_alarm, 0u) << "no draw injected after golden's alarm";

    const std::string text = writeCampaignJson(result);
    std::string error;
    const std::optional<CampaignResult> parsed =
        readCampaignJson(text, &error);
    ASSERT_TRUE(parsed.has_value()) << error;
    EXPECT_EQ(writeCampaignJson(*parsed), text);
}

} // namespace
} // namespace nocalert::fault
