/**
 * @file
 * The sampled-campaign planner: the batch source of
 * FaultCampaign::run in sampling mode.
 *
 * Where an exhaustive campaign runs its site list once, as one batch
 * per shard, the sampled planner draws (site, injection-cycle offset,
 * traffic seed) tuples *with replacement* from the same deterministic
 * site list, stratified (by signal class by default), in batches
 * sized by the stats::StratifiedSampler. Each draw's coordinates are
 * materialized from a counter-mode RNG stream keyed by the global
 * draw index, and every batch is fully planned before any outcome of
 * that batch is consulted, so the entire run stream — and therefore
 * the artifact — is a pure function of the campaign configuration.
 * Resume is replay: the planner regenerates the same batches and a
 * checkpoint simply pre-fills their results.
 *
 * The report side (SamplingReport / computeSamplingReport) is a pure
 * function of a result's committed runs, like the telemetry block:
 * per-stratum and pooled detection / false-positive / false-negative
 * estimates with Wilson and Clopper-Pearson intervals, serialized
 * into schema-v5 artifacts and validated on load.
 */

#ifndef NOCALERT_FAULT_SAMPLED_HPP
#define NOCALERT_FAULT_SAMPLED_HPP

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "fault/campaign.hpp"
#include "stats/sampler.hpp"

namespace nocalert::fault {

/** One planned sampled run. */
struct SampledDraw
{
    std::uint64_t drawIndex = 0; ///< Global index == sampleIndex.
    std::uint32_t stratum = 0;   ///< Planner stratum.
    FaultSite site;              ///< Sampled fault location.
    noc::Cycle cycleOffset = 0;  ///< Injection delay past warmup.
    std::uint32_t seedIndex = 0; ///< Traffic-seed offset.
};

/** Plans sampled batches for one campaign; see file comment. */
class SampledPlanner
{
  public:
    /**
     * @p population is the campaign's deterministic site list (the
     * exact list the exhaustive campaign would sweep — maxSites and
     * sampleSeed already applied); @p config carries the validated
     * sampling spec plus the workload and warmup the phase-stratified
     * mode partitions the jitter window against. Aborts on an invalid
     * spec; call validateSamplingSpec first for a recoverable answer.
     */
    SampledPlanner(const CampaignConfig &config,
                   std::vector<FaultSite> population);

    /** Plan the next batch (empty once done()). */
    std::vector<SampledDraw> planBatch();

    /**
     * Record one planned draw's outcome. Order within a batch is
     * irrelevant (only aggregates feed planning), but every draw of a
     * batch must be recorded before the next planBatch().
     */
    void record(const FaultRunResult &run);

    /** The sampler reached its stopping decision. */
    bool done() const { return sampler_.done(); }

    /** Total draws planned so far. */
    std::uint64_t drawsPlanned() const
    {
        return sampler_.drawsPlanned();
    }

    /** Number of strata. */
    std::size_t strataCount() const { return strataSites_.size(); }

    /** Display name of stratum @p index. */
    const std::string &stratumName(std::size_t index) const
    {
        return strataNames_[index];
    }

    /** Site population of stratum @p index. */
    const std::vector<FaultSite> &stratumSites(std::size_t index) const
    {
        return strataSites_[index];
    }

    /**
     * Re-materialize the draw with the given global index for
     * checkpoint validation: the stored run must match what the
     * planner would produce. @p stratum is the stored stratum tag.
     */
    SampledDraw materialize(std::uint64_t draw_index,
                            std::uint32_t stratum) const;

  private:
    SamplingSpec spec_;
    stats::StratifiedSampler sampler_;
    std::vector<std::string> strataNames_;
    std::vector<std::vector<FaultSite>> strataSites_;

    /**
     * Phase stratification only: the injection-cycle offsets (within
     * [0, cycleJitter]) each stratum owns. Empty for the legacy
     * modes, whose offset draw stays a uniform pick over the whole
     * jitter window — bit-exact with every v5 artifact.
     */
    std::vector<std::vector<noc::Cycle>> strataOffsets_;
};

/** Estimates for one stratum (or the pooled campaign). */
struct StratumEstimate
{
    std::string name;            ///< Stratum label ("all" for pooled).
    std::uint64_t population = 0; ///< Distinct sites in the stratum.
    std::uint64_t draws = 0;
    std::uint64_t detected = 0;
    std::uint64_t falsePositives = 0;
    std::uint64_t falseNegatives = 0;
    bool halted = false; ///< Stopping rule satisfied for this stratum.

    // Intervals on the detection rate (both constructions, so a
    // report never hides the conservative answer), plus the
    // rare-outcome bounds the paper's claims hinge on.
    stats::Interval detectedWilson;
    stats::Interval detectedClopperPearson;
    stats::Interval falsePositiveWilson;
    stats::Interval falsePositiveClopperPearson;
    stats::Interval falseNegativeWilson;
    stats::Interval falseNegativeClopperPearson;
};

/** Deterministic statistical projection of a sampled result. */
struct SamplingReport
{
    std::vector<StratumEstimate> strata;

    /**
     * All draws pooled into one binomial. With Stratify::None this is
     * the exact single-stratum estimate; with stratification it is
     * the unweighted pooled rate over the realized draw mix (exact
     * for the draws actually taken, not population-weighted).
     */
    StratumEstimate pooled;
};

/**
 * Compute the report from a (possibly partial) sampled result — a
 * pure function of the committed runs and the campaign config, so
 * serialized reports are byte-identical for every worker count and
 * recomputable by a reader for validation. Returns an empty report
 * for non-sampled results.
 */
SamplingReport computeSamplingReport(const CampaignResult &result);

/** The campaign's sampled-mode site population (the deterministic
 *  site list the exhaustive campaign would sweep). */
std::vector<FaultSite> sampledPopulation(const CampaignConfig &config);

} // namespace nocalert::fault

#endif // NOCALERT_FAULT_SAMPLED_HPP
