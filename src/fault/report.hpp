/**
 * @file
 * Campaign result export: per-run CSV (one row per injected fault,
 * suitable for external plotting/statistics) and a compact text
 * summary shared by examples and benches.
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
 * (same-cycle share, p99, max), the false-negative count, and for
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

} // namespace nocalert::fault

#endif // NOCALERT_FAULT_REPORT_HPP
