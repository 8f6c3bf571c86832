/**
 * @file
 * The campaign service daemon: accept campaign specs over a local
 * Unix-domain socket, multiplex them fairly onto the in-process
 * execution engine, stream live telemetry to watchers, and answer
 * repeated submissions byte-identically from the artifact cache.
 *
 *   nocalert_serve --socket PATH [--cache DIR] [--jobs N]
 *                  [--quantum N] [--checkpoint-every N]
 *                  [--max-line BYTES] [--cache-max-bytes N]
 *                  [--journal PATH|none]
 *
 * The protocol is newline-delimited JSON (one request or response per
 * line); `nocalert_client help` documents the client side. Concurrent
 * campaigns advance round-robin, one batch quantum per turn, so a
 * small interactive campaign is never starved behind a large one.
 * Served artifacts are byte-identical to what the batch CLI
 * (campaign_shard run) writes for the same spec — the
 * cache directory can be inspected, diffed, and reused across daemon
 * restarts.
 *
 * The daemon exits on a `shutdown` request, cancelling in-flight
 * campaigns cooperatively; their checkpoints remain in the cache
 * directory and a re-submission after restart resumes where they
 * stopped. With the write-ahead journal (on by default), even a hard
 * kill loses no accepted submission: the next start replays the
 * journal, requeues unfinished campaigns, and resumes each from its
 * checkpoint — losing at most the runs since the last checkpoint
 * write.
 *
 * Exit status: 0 clean shutdown; 1 socket setup failed or a flag value
 * is malformed (before listening); 2 usage error.
 */

#include <cstdio>
#include <string>

#include "serve/server.hpp"
#include "util/cli.hpp"
#include "util/log.hpp"

using namespace nocalert;

int
main(int argc, char **argv)
{
    const CommandLine cli(argc, argv,
                          {"socket", "cache", "jobs", "quantum",
                           "checkpoint-every", "max-line",
                           "cache-max-bytes", "journal", "help"});
    if (cli.getBool("help", false)) {
        std::printf(
            "usage: nocalert_serve --socket PATH [--cache DIR]\n"
            "                      [--jobs N] [--quantum N]\n"
            "                      [--checkpoint-every N]\n"
            "                      [--max-line BYTES]\n"
            "                      [--cache-max-bytes N]\n"
            "                      [--journal PATH|none]\n"
            "\n"
            "  --socket PATH        Unix-domain socket to listen on\n"
            "  --cache DIR          artifact/checkpoint store\n"
            "                       (default: nocalert-cache)\n"
            "  --jobs N             workers per quantum (0 = all\n"
            "                       hardware threads; default 1)\n"
            "  --quantum N          runs per scheduling turn\n"
            "                       (default 16)\n"
            "  --checkpoint-every N checkpoint cadence (default 8)\n"
            "  --max-line BYTES     per-request line ceiling\n"
            "  --cache-max-bytes N  artifact-byte budget; least\n"
            "                       recently used entries are evicted\n"
            "                       past it (0 = unlimited, default)\n"
            "  --journal PATH       write-ahead submission journal\n"
            "                       (default: CACHE/journal.wal;\n"
            "                       'none' disables durability)\n");
        return 0;
    }

    const std::string socket_path = cli.getString("socket", "");
    if (socket_path.empty()) {
        std::fprintf(stderr,
                     "usage: nocalert_serve --socket PATH [--cache DIR]"
                     " [--jobs N] [--quantum N]\n");
        return 2;
    }

    // Counts parse as unsigned, so "-1" is fatal (exit 1, naming the
    // flag) instead of wrapping into 2^32-1 workers.
    serve::ServerConfig config;
    config.socketPath = socket_path;
    config.cacheDir = cli.getString("cache", "nocalert-cache");
    config.registry.jobs = cli.getUnsigned("jobs", 1);
    config.registry.quantum = cli.getUnsigned("quantum", 16);
    config.registry.checkpointEvery =
        cli.getUnsigned("checkpoint-every", config.registry.checkpointEvery);
    config.maxLineBytes = cli.getUnsigned(
        "max-line", static_cast<unsigned>(serve::kDefaultMaxLineBytes));
    // The byte budget needs 64 bits, beyond getUnsigned.
    const std::int64_t cache_max_bytes = cli.getInt("cache-max-bytes", 0);
    if (cache_max_bytes < 0) {
        NOCALERT_FATAL("flag --cache-max-bytes expects a non-negative "
                       "integer, got '",
                       cli.getString("cache-max-bytes", ""), "'");
    }
    config.cacheMaxBytes = static_cast<std::uint64_t>(cache_max_bytes);
    config.journalPath = cli.getString("journal", "");

    serve::CampaignServer server(std::move(config));
    std::string error;
    if (!server.start(&error)) {
        std::fprintf(stderr, "error: %s\n", error.c_str());
        return 1;
    }
    std::printf("nocalert_serve: listening on %s (cache %s)\n",
                server.socketPath().c_str(),
                server.cache().directory().c_str());
    const serve::RecoveryInfo recovery = server.registry().recovery();
    if (recovery.recordsReplayed > 0 || recovery.recordsCorrupt > 0 ||
        recovery.bytesDroppedAtTail > 0) {
        std::printf("nocalert_serve: journal replay: %zu records, "
                    "%zu requeued, %zu completed intact, %zu healed"
                    " (%zu corrupt records, %zu torn tail bytes)\n",
                    recovery.recordsReplayed, recovery.requeued,
                    recovery.completedVerified,
                    recovery.completedRequeued, recovery.recordsCorrupt,
                    recovery.bytesDroppedAtTail);
    }
    std::fflush(stdout);

    server.waitForShutdown();
    std::printf("nocalert_serve: shutting down\n");
    server.stop();
    return 0;
}
