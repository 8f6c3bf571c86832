/**
 * @file
 * Command-line client of the campaign service (nocalert_serve).
 *
 *   nocalert_client ping     --socket PATH
 *   nocalert_client submit   --socket PATH [campaign flags] [--wait]
 *                            [--out FILE] [--detach] [--spec FILE]
 *   nocalert_client status   --socket PATH ID
 *   nocalert_client watch    --socket PATH ID
 *   nocalert_client cancel   --socket PATH ID
 *   nocalert_client result   --socket PATH ID [--out FILE]
 *   nocalert_client list     --socket PATH
 *   nocalert_client stats    --socket PATH
 *   nocalert_client shutdown --socket PATH
 *   nocalert_client help
 *
 * `submit` parses the same campaign flags with the same defaults as
 * `campaign_shard run` (fault/flags.hpp: --mesh, --sites, --rate,
 * --seed, --warmup, --kind, --recovery, --dense-kernel, --shard, the
 * --sample family and the workload backends), so submitting with the
 * flags of a batch invocation yields a served artifact byte-identical
 * to that invocation's output file.
 * `--spec FILE` instead reads a serialized campaign config (e.g. the
 * `config` block of an artifact). `--wait` stays connected, streams
 * telemetry to stderr until the campaign finishes, then fetches the
 * artifact (to --out, or stdout). A waiting submission is *attached*:
 * killing the client cancels the campaign (checkpointed, resumable);
 * a plain submit detaches and the campaign keeps running.
 *
 * `--retries N` (with `--retry-base-ms MS`) makes the client resilient
 * to a daemon crash or restart: connection attempts and mid-exchange
 * drops back off exponentially (with jitter) and reconnect up to N
 * times. Because a campaign id is the identity hash of its config, a
 * waiting submission simply re-submits after reconnecting — it joins
 * the requeued campaign (or finds it complete in the cache) instead of
 * forking a duplicate, and resumes watching.
 *
 * Exit status: 0 success; 1 server reported an error (or the campaign
 * failed/was cancelled); 2 usage error; 3 cannot connect.
 */

#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <optional>
#include <random>
#include <string>
#include <thread>

#include "fault/campaign.hpp"
#include "fault/flags.hpp"
#include "fault/serialize.hpp"
#include "serve/protocol.hpp"
#include "util/cli.hpp"
#include "util/fsio.hpp"
#include "util/log.hpp"

using namespace nocalert;

namespace {

constexpr int kExitOk = 0;
constexpr int kExitServerError = 1;
constexpr int kExitUsage = 2;
constexpr int kExitConnect = 3;

void
printHelp(std::FILE *to)
{
    std::fprintf(
        to,
        "usage: nocalert_client <command> --socket PATH [options]\n"
        "\n"
        "  ping                  liveness probe\n"
        "  submit [flags]        submit a campaign; the campaign flags\n"
        "                        below, as for campaign_shard run, or\n"
        "                        --spec FILE with a serialized config\n"
        "         --wait         stream progress until finished, then\n"
        "                        fetch the artifact (--out FILE or\n"
        "                        stdout); attached: killing the client\n"
        "                        cancels the campaign\n"
        "         --detach       keep the campaign running after this\n"
        "                        client disconnects (default when not\n"
        "                        waiting)\n"
        "  status ID             one-shot progress query\n"
        "  watch ID              stream telemetry until terminal\n"
        "  cancel ID             cooperative cancel (checkpointed)\n"
        "  result ID [--out F]   fetch the finished artifact\n"
        "  list                  enumerate known campaigns\n"
        "  stats                 server counters (cache hits, runs)\n"
        "  shutdown              stop the daemon cleanly\n"
        "\n"
        "  --retries N           reconnect/resubmit up to N times on\n"
        "                        connect failure or mid-exchange drop\n"
        "                        (default 0: fail fast)\n"
        "  --retry-base-ms MS    first backoff; doubles per attempt,\n"
        "                        jittered, capped at 5 s (default 100)\n"
        "\n");
    std::fputs(fault::campaignFlagHelp().c_str(), to);
}

/** Blocking NDJSON connection to the daemon. */
class Connection
{
  public:
    ~Connection()
    {
        if (fd_ >= 0)
            ::close(fd_);
    }

    bool connect(const std::string &path, std::string *error)
    {
        if (fd_ >= 0) {
            ::close(fd_);
            fd_ = -1;
        }
        framer_ = serve::LineFramer(); // A new stream, a new framing.
        sockaddr_un address{};
        address.sun_family = AF_UNIX;
        if (path.size() >= sizeof(address.sun_path)) {
            *error = "socket path too long: '" + path + "'";
            return false;
        }
        std::memcpy(address.sun_path, path.c_str(), path.size() + 1);
        fd_ = ::socket(AF_UNIX, SOCK_STREAM, 0);
        if (fd_ < 0) {
            *error = std::string("socket: ") + std::strerror(errno);
            return false;
        }
        if (::connect(fd_, reinterpret_cast<const sockaddr *>(&address),
                      sizeof(address)) != 0) {
            *error = "connect '" + path + "': " + std::strerror(errno);
            ::close(fd_);
            fd_ = -1;
            return false;
        }
        return true;
    }

    bool send(const JsonValue &request)
    {
        std::string line = request.dump() + "\n";
        std::string_view rest = line;
        while (!rest.empty()) {
            const ssize_t sent =
                ::send(fd_, rest.data(), rest.size(), MSG_NOSIGNAL);
            if (sent < 0) {
                if (errno == EINTR)
                    continue;
                return false;
            }
            rest.remove_prefix(static_cast<std::size_t>(sent));
        }
        return true;
    }

    /** Next response line as parsed JSON; nullopt on EOF. */
    std::optional<JsonValue> read()
    {
        for (;;) {
            if (const auto line = framer_.next()) {
                if (line->oversized)
                    continue;
                auto json = parseJson(line->text);
                if (json)
                    return json;
                continue; // Skip unparseable noise defensively.
            }
            char buffer[4096];
            const ssize_t got = ::recv(fd_, buffer, sizeof(buffer), 0);
            if (got < 0 && errno == EINTR)
                continue;
            if (got <= 0)
                return std::nullopt;
            framer_.feed(std::string_view(
                buffer, static_cast<std::size_t>(got)));
        }
    }

  private:
    int fd_ = -1;
    serve::LineFramer framer_;
};

/** Reconnect policy (--retries / --retry-base-ms). */
struct RetryPolicy
{
    unsigned retries = 0;  ///< Extra attempts after the first.
    unsigned baseMs = 100; ///< First backoff; doubles per attempt.
};

/** Sleep attempt @p attempt's backoff: base * 2^attempt capped at
 *  5 s, jittered ±25% so clients restarted together do not hammer a
 *  recovering daemon in lockstep. */
void
backoffSleep(const RetryPolicy &policy, unsigned attempt)
{
    static std::mt19937 rng(
        static_cast<std::mt19937::result_type>(::getpid()) ^
        static_cast<std::mt19937::result_type>(
            std::chrono::steady_clock::now()
                .time_since_epoch()
                .count()));
    const double base = static_cast<double>(policy.baseMs) *
                        static_cast<double>(1u << std::min(attempt, 16u));
    std::uniform_real_distribution<double> jitter(0.75, 1.25);
    const double ms = std::min(base, 5000.0) * jitter(rng);
    std::this_thread::sleep_for(
        std::chrono::duration<double, std::milli>(ms));
}

/** A connection plus the coordinates to rebuild it after a drop. */
struct ServiceLink
{
    Connection conn;
    std::string path;
    RetryPolicy policy;
};

/** Connect with bounded exponential backoff. */
bool
connectWithRetry(ServiceLink &link, std::string *error)
{
    for (unsigned attempt = 0;; ++attempt) {
        if (link.conn.connect(link.path, error))
            return true;
        if (attempt >= link.policy.retries)
            return false;
        std::fprintf(stderr,
                     "nocalert_client: %s; retrying (%u/%u)\n",
                     error->c_str(), attempt + 1, link.policy.retries);
        backoffSleep(link.policy, attempt);
    }
}

std::string
stringMember(const JsonValue &json, const char *key)
{
    const JsonValue *value = json.find(key);
    return value && value->isString() ? value->string() : std::string();
}

/** Print an error response and convert it to an exit code. */
int
reportError(const JsonValue &response)
{
    std::fprintf(stderr, "error [%s]: %s\n",
                 stringMember(response, "code").c_str(),
                 stringMember(response, "message").c_str());
    return kExitServerError;
}

bool
isType(const JsonValue &json, std::string_view type)
{
    return stringMember(json, "type") == type;
}

/**
 * One request, one response, transparently reconnecting (bounded
 * backoff) when the transport dies mid-exchange. Every request the
 * client sends is idempotent — submit's id is the config's identity
 * hash, so even a retried submit lands on the same campaign. Exits
 * the process once every attempt is exhausted.
 */
JsonValue
roundTrip(ServiceLink &link, const JsonValue &request)
{
    for (unsigned attempt = 0;; ++attempt) {
        if (link.conn.send(request)) {
            if (auto response = link.conn.read())
                return std::move(*response);
        }
        if (attempt >= link.policy.retries)
            NOCALERT_FATAL("connection lost mid-request (",
                           link.policy.retries, " retries exhausted)");
        std::fprintf(stderr, "nocalert_client: connection lost;"
                             " reconnecting (%u/%u)\n",
                     attempt + 1, link.policy.retries);
        backoffSleep(link.policy, attempt);
        std::string error;
        if (!connectWithRetry(link, &error))
            NOCALERT_FATAL("reconnect failed: ", error);
    }
}

JsonValue
makeRequest(const char *type)
{
    JsonValue json;
    json.set("type", type);
    return json;
}

JsonValue
makeIdRequest(const char *type, const std::string &id)
{
    JsonValue json = makeRequest(type);
    json.set("id", id);
    return json;
}

void
printStatusLine(const JsonValue &response)
{
    const JsonValue *completed = response.find("runsCompleted");
    const JsonValue *planned = response.find("runsPlanned");
    const std::string failure = stringMember(response, "failure");
    const std::string suffix =
        failure.empty() ? std::string() : " (" + failure + ")";
    std::printf("%s %s %llu/%llu%s\n",
                stringMember(response, "id").c_str(),
                stringMember(response, "state").c_str(),
                completed && completed->isNumber()
                    ? static_cast<unsigned long long>(completed->asUint())
                    : 0ULL,
                planned && planned->isNumber()
                    ? static_cast<unsigned long long>(planned->asUint())
                    : 0ULL,
                suffix.c_str());
}

/** Write the artifact from a result response; false on any problem. */
bool
emitArtifact(const JsonValue &response, const std::string &out)
{
    const JsonValue *artifact = response.find("artifact");
    if (!artifact || !artifact->isString())
        return false;
    if (out.empty()) {
        std::fwrite(artifact->string().data(), 1,
                    artifact->string().size(), stdout);
        return true;
    }
    std::ofstream file(out, std::ios::binary | std::ios::trunc);
    file.write(artifact->string().data(),
               static_cast<std::streamsize>(artifact->string().size()));
    return file.good();
}

/** Stream watch events for @p id until the terminal done event.
 *  Returns the terminal state name; an empty string when the server
 *  rejected the watch (already reported); nullopt on transport death
 *  (retryable: reconnect and watch again). */
std::optional<std::string>
streamWatch(Connection &conn, const std::string &id)
{
    if (!conn.send(makeIdRequest("watch", id)))
        return std::nullopt;
    for (;;) {
        auto event = conn.read();
        if (!event)
            return std::nullopt;
        if (isType(*event, "error")) {
            reportError(*event);
            return std::string();
        }
        if (isType(*event, "telemetry")) {
            const JsonValue *completed = event->find("runsCompleted");
            const JsonValue *planned = event->find("runsPlanned");
            const JsonValue *rate = event->find("runsPerSecond");
            std::fprintf(
                stderr, "%s: %llu/%llu runs (%.1f runs/s)\n",
                id.c_str(),
                completed ? static_cast<unsigned long long>(
                                completed->asUint())
                          : 0ULL,
                planned ? static_cast<unsigned long long>(
                              planned->asUint())
                        : 0ULL,
                rate && rate->isNumber() ? rate->asDouble() : 0.0);
            continue;
        }
        if (isType(*event, "done"))
            return stringMember(*event, "state");
        // "watching" ack and anything unknown: keep streaming.
    }
}

int
cmdSubmit(ServiceLink &link, const CommandLine &cli)
{
    fault::CampaignConfig config;
    const std::string spec_path = cli.getString("spec", "");
    if (!spec_path.empty()) {
        const std::optional<std::string> text = readFileBytes(spec_path);
        if (!text)
            NOCALERT_FATAL("cannot read spec file '", spec_path, "'");
        std::string parse_error;
        const auto json = parseJson(*text, &parse_error);
        if (!json)
            NOCALERT_FATAL("spec '", spec_path, "': ", parse_error);
        std::string config_error;
        const auto parsed =
            fault::campaignConfigFromJson(*json, &config_error);
        if (!parsed)
            NOCALERT_FATAL("spec '", spec_path, "': ", config_error);
        config = *parsed;
    } else {
        config = fault::campaignConfigFromFlags(cli);
    }

    const bool wait = cli.getBool("wait", false);
    // A waiting client is attached (dying cancels the campaign);
    // a fire-and-forget submit detaches unless overridden.
    const bool detach = cli.getBool("detach", !wait);

    JsonValue request = makeRequest("submit");
    request.set("config", fault::toJson(config));
    request.set("detach", detach);

    // Submit → watch, resubmitting after a mid-stream drop. The
    // resubmission is idempotent: the id is the config's identity
    // hash, so it joins the (journal-recovered) campaign or finds it
    // already complete in the cache — never a duplicate run.
    std::string id;
    std::string terminal;
    for (unsigned attempt = 0;; ++attempt) {
        const JsonValue response = roundTrip(link, request);
        if (isType(response, "error"))
            return reportError(response);
        id = stringMember(response, "id");
        const std::string state = stringMember(response, "state");
        const JsonValue *cached = response.find("cached");
        std::fprintf(stderr, "submitted %s: %s%s\n", id.c_str(),
                     state.c_str(),
                     cached && cached->isBool() && cached->boolean()
                         ? " (served from cache)"
                         : "");
        if (!wait) {
            std::printf("%s\n", id.c_str());
            return kExitOk;
        }
        if (state == "complete") {
            terminal = state;
            break;
        }
        const auto watched = streamWatch(link.conn, id);
        if (watched) {
            if (watched->empty())
                return kExitServerError; // Server rejected the watch.
            terminal = *watched;
            break;
        }
        if (attempt >= link.policy.retries)
            return kExitServerError;
        std::fprintf(stderr, "nocalert_client: connection lost;"
                             " resubmitting %s (%u/%u)\n",
                     id.c_str(), attempt + 1, link.policy.retries);
        backoffSleep(link.policy, attempt);
        std::string error;
        if (!connectWithRetry(link, &error)) {
            std::fprintf(stderr, "error: %s\n", error.c_str());
            return kExitServerError;
        }
    }
    if (terminal != "complete") {
        std::fprintf(stderr, "campaign %s: %s\n", id.c_str(),
                     terminal.c_str());
        return kExitServerError;
    }
    const JsonValue result = roundTrip(link, makeIdRequest("result", id));
    if (isType(result, "error"))
        return reportError(result);
    if (!emitArtifact(result, cli.getString("out", ""))) {
        std::fprintf(stderr, "error: cannot write artifact\n");
        return kExitServerError;
    }
    return kExitOk;
}

int
cmdWatch(ServiceLink &link, const std::string &id)
{
    for (unsigned attempt = 0;; ++attempt) {
        const auto terminal = streamWatch(link.conn, id);
        if (terminal) {
            if (terminal->empty())
                return kExitServerError;
            std::printf("%s\n", terminal->c_str());
            return *terminal == "complete" ? kExitOk
                                           : kExitServerError;
        }
        if (attempt >= link.policy.retries)
            return kExitServerError;
        std::fprintf(stderr, "nocalert_client: connection lost;"
                             " re-watching %s (%u/%u)\n",
                     id.c_str(), attempt + 1, link.policy.retries);
        backoffSleep(link.policy, attempt);
        std::string error;
        if (!connectWithRetry(link, &error)) {
            std::fprintf(stderr, "error: %s\n", error.c_str());
            return kExitServerError;
        }
    }
}

int
cmdResult(ServiceLink &link, const std::string &id,
          const std::string &out)
{
    const JsonValue response =
        roundTrip(link, makeIdRequest("result", id));
    if (isType(response, "error"))
        return reportError(response);
    if (!emitArtifact(response, out)) {
        std::fprintf(stderr, "error: cannot write artifact\n");
        return kExitServerError;
    }
    return kExitOk;
}

} // namespace

int
main(int argc, char **argv)
{
    if (argc < 2) {
        printHelp(stderr);
        return kExitUsage;
    }
    const std::string command = argv[1];
    if (command == "help" || command == "--help" || command == "-h") {
        printHelp(stdout);
        return kExitOk;
    }

    const CommandLine cli(argc - 1, argv + 1,
                          fault::campaignFlags({"socket", "out", "spec",
                                                "wait", "detach", "retries",
                                                "retry-base-ms"}),
                          /*allow_positionals=*/true);

    const std::string socket_path = cli.getString("socket", "");
    if (socket_path.empty()) {
        std::fprintf(stderr,
                     "error: %s requires --socket PATH\n",
                     command.c_str());
        return kExitUsage;
    }

    ServiceLink link;
    link.path = socket_path;
    link.policy.retries = cli.getUnsigned("retries", 0);
    link.policy.baseMs = cli.getUnsigned("retry-base-ms", 100);
    std::string error;
    if (!connectWithRetry(link, &error)) {
        std::fprintf(stderr, "error: %s\n", error.c_str());
        return kExitConnect;
    }

    auto idArg = [&cli, &command]() -> std::string {
        if (cli.positionals().empty()) {
            std::fprintf(stderr, "error: %s requires a campaign ID\n",
                         command.c_str());
            std::exit(kExitUsage);
        }
        return cli.positionals().front();
    };

    if (command == "ping") {
        const JsonValue response = roundTrip(link, makeRequest("ping"));
        if (isType(response, "error"))
            return reportError(response);
        std::printf("pong\n");
        return kExitOk;
    }
    if (command == "submit")
        return cmdSubmit(link, cli);
    if (command == "status") {
        const JsonValue response =
            roundTrip(link, makeIdRequest("status", idArg()));
        if (isType(response, "error"))
            return reportError(response);
        printStatusLine(response);
        return kExitOk;
    }
    if (command == "watch")
        return cmdWatch(link, idArg());
    if (command == "cancel") {
        const JsonValue response =
            roundTrip(link, makeIdRequest("cancel", idArg()));
        if (isType(response, "error"))
            return reportError(response);
        std::printf("cancelled %s\n",
                    stringMember(response, "id").c_str());
        return kExitOk;
    }
    if (command == "result")
        return cmdResult(link, idArg(), cli.getString("out", ""));
    if (command == "list") {
        const JsonValue response = roundTrip(link, makeRequest("list"));
        if (isType(response, "error"))
            return reportError(response);
        const JsonValue *campaigns = response.find("campaigns");
        if (campaigns && campaigns->isArray()) {
            for (const JsonValue &one : campaigns->array())
                printStatusLine(one);
        }
        return kExitOk;
    }
    if (command == "stats") {
        const JsonValue response = roundTrip(link, makeRequest("stats"));
        if (isType(response, "error"))
            return reportError(response);
        for (const auto &[key, value] : response.object()) {
            if (key == "type")
                continue;
            std::printf("%-20s %llu\n", key.c_str(),
                        static_cast<unsigned long long>(value.asUint()));
        }
        return kExitOk;
    }
    if (command == "shutdown") {
        const JsonValue response =
            roundTrip(link, makeRequest("shutdown"));
        if (isType(response, "error"))
            return reportError(response);
        std::printf("server shutting down\n");
        return kExitOk;
    }

    printHelp(stderr);
    return kExitUsage;
}
