/**
 * @file
 * Shared setup for the ablation benches: the paper's evaluation
 * platform (8x8 mesh, 4 atomic VCs, 5-flit buffers, XY routing,
 * uniform random traffic) plus their standard flags.
 *
 * Defaults are sized to finish in tens of seconds using a stratified
 * fault-site sample.
 */

#ifndef NOCALERT_BENCH_COMMON_HPP
#define NOCALERT_BENCH_COMMON_HPP

#include <string>

#include "fault/campaign.hpp"

namespace nocalert::bench {

/** Campaign from the standard flag set: --sites --rate --seed
 *  --observe --drain --wires --jobs (0 = all hardware threads;
 *  results are --jobs-invariant). */
fault::CampaignConfig parseBenchCampaign(int argc,
                                         const char *const *argv);

/** Run a campaign, printing progress dots to stderr. */
fault::CampaignResult runCampaign(const fault::CampaignConfig &config,
                                  const std::string &label);

} // namespace nocalert::bench

#endif // NOCALERT_BENCH_COMMON_HPP
