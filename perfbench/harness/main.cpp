/**
 * @file
 * Benchmark harness entry point. run.py builds this next to the
 * daemon and calls it with a generated workload config:
 *
 *   perfbench_harness batch --out RAW.json --dir DIR [config flags]
 *                           --reps N [--trace 1]
 *   perfbench_harness serve --out RAW.json --dir DIR --daemon PATH
 *                           [config flags] --hits H --reps N [--trace 1]
 *
 * The harness measures and checks; it writes raw timings, work counts
 * and spans to RAW.json, and run.py turns those into metrics. Exit
 * status 0 means RAW.json was written (failed checks are counted in
 * it); anything else means the run produced no result.
 */

#include <cstdio>
#include <string>

#include "batch.hpp"
#include "common.hpp"
#include "serve.hpp"
#include "util/log.hpp"

int
main(int argc, char **argv)
{
    if (argc < 2) {
        std::fprintf(stderr, "usage: perfbench_harness batch|serve ...\n");
        return 2;
    }
    nocalert::setLogQuiet(true);
    const std::string mode = argv[1];
    const nocalert::CommandLine cli(argc - 1, argv + 1,
                                    perfbench::harnessFlags());
    if (mode == "batch")
        return perfbench::runBatch(cli);
    if (mode == "serve")
        return perfbench::runServe(cli);
    std::fprintf(stderr, "unknown mode '%s'\n", mode.c_str());
    return 2;
}
