/**
 * @file
 * The campaign flags of every CLI that starts a campaign
 * (`campaign_shard run`, `nocalert_client submit`): their names, help
 * lines and CLI defaults, and the one parser that turns them into a
 * CampaignConfig. `simulate` reuses only the workload-backend part.
 *
 * The CLI defaults (4x4 mesh, rate 0.05, seed 3, warmup 200, 120
 * sites) describe a laptop-sized campaign. They differ from
 * CampaignConfig's member defaults, which the benches and tests build
 * on, so they live here rather than in the struct. The --sample
 * family defaults to SamplingSpec's member values.
 */

#ifndef NOCALERT_FAULT_FLAGS_HPP
#define NOCALERT_FAULT_FLAGS_HPP

#include <string>
#include <vector>

#include "fault/campaign.hpp"
#include "traffic/workload.hpp"
#include "util/cli.hpp"

namespace nocalert::fault {

/**
 * Known-flag list of a campaign CLI: every campaign flag (identity,
 * --shard, the --sample family, the workload backend), then @p extra,
 * the caller's own flags.
 */
std::vector<std::string> campaignFlags(std::vector<std::string> extra);

/** Known-flag list of the workload-backend flags, then @p extra. */
std::vector<std::string> workloadFlags(std::vector<std::string> extra);

/** Help block naming every campaign flag and its CLI default. */
std::string campaignFlagHelp();

/**
 * Campaign config from the campaign flags, with the CLI defaults for
 * absent ones. Execution knobs (jobs, checkpointing) keep
 * CampaignConfig's defaults. A malformed or inconsistent flag is
 * fatal.
 */
CampaignConfig campaignConfigFromFlags(const CommandLine &cli);

/**
 * Apply the workload-backend flags to @p workload: a --phases program
 * (optionally with --burst and --phase-repeat) or a --trace-replay
 * file, stamped with its digest. Returns false and leaves @p workload
 * untouched when neither is given. A malformed program, an unreadable
 * trace, both backends at once, or --burst/--phase-repeat without
 * --phases is fatal.
 */
bool workloadFromFlags(const CommandLine &cli,
                       traffic::WorkloadSpec &workload);

} // namespace nocalert::fault

#endif // NOCALERT_FAULT_FLAGS_HPP
