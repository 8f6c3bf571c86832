/**
 * @file
 * The serve workload: the real daemon over one NDJSON connection.
 */

#ifndef PERFBENCH_SERVE_HPP
#define PERFBENCH_SERVE_HPP

#include "util/cli.hpp"

namespace perfbench {

/** The `serve` mode; writes the raw-result document to --out. */
int runServe(const nocalert::CommandLine &cli);

} // namespace perfbench

#endif // PERFBENCH_SERVE_HPP
