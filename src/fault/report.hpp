/**
 * @file
 * Campaign result export: per-run CSV (one row per injected fault,
 * suitable for external plotting/statistics), a compact text
 * summary, and the paper's Figures 3 and 6-9 rendered from campaign
 * artifacts.
 */

#ifndef NOCALERT_FAULT_REPORT_HPP
#define NOCALERT_FAULT_REPORT_HPP

#include <iosfwd>
#include <string>

#include "fault/campaign.hpp"

namespace nocalert::fault {

/**
 * Write one CSV row per fault run: site coordinates, ground truth,
 * detector verdicts, and latencies. Columns:
 * router,signal,port,vc,bit,violated,conditions,drained,
 * detected,latency,cautious,cautious_latency,at_injection,
 * simultaneous,invariants,forever_detected,forever_latency
 */
void writeCampaignCsv(const CampaignResult &result, std::ostream &os);

/**
 * Render the summary as text: the outcome matrix, NoCAlert latency
 * (same-cycle share, p99, max), ForEVeR latency (p50, max), both over
 * each detector's true positives, the false-negative count, and for
 * recovery campaigns the detected-recovered count.
 */
std::string summaryText(const CampaignResult &result);

/**
 * Render the per-stratum estimate table (draws, detection rate,
 * Wilson / Clopper-Pearson intervals, false-negative counts, halt
 * state) of a sampled result; empty string for exhaustive results.
 * summaryText appends this automatically.
 */
std::string samplingText(const CampaignResult &result);

/**
 * Render the paper's Figures 3 and 6-9 from campaign results: Fig 3's
 * taxonomy cross-check, Fig 7's detection-delay CDFs, Fig 8's
 * per-checker shares and Fig 9's simultaneity CDF read @p warm; Fig
 * 6's coverage table and the Observation-5 partition read @p cold as
 * well, when given. Each result is labelled by its injection instant:
 * "cycle 0" when its warmup is 0, else "warm".
 */
std::string figuresText(const CampaignResult &warm,
                        const CampaignResult *cold = nullptr);

} // namespace nocalert::fault

#endif // NOCALERT_FAULT_REPORT_HPP
