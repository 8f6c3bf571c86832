/**
 * @file
 * The serve workload: one real nocalert_serve daemon at its defaults,
 * driven by one client in a closed loop over one persistent NDJSON
 * connection. Each repetition is a fresh daemon life with an empty
 * store: launch -> first pong (setup), every spec submitted, watched
 * to done and fetched cold, then resubmitted --hits times as cache
 * hits, then stats and shutdown. The traced run adds the registry's
 * quantum spans (in process, scheduler thread off) and the replica
 * over the cold artifacts.
 */

#include "serve.hpp"

#include <sys/prctl.h>
#include <sys/resource.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <sys/wait.h>
#include <fcntl.h>
#include <unistd.h>

#include <cerrno>
#include <csignal>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <thread>

#include "batch.hpp"
#include "fault/serialize.hpp"
#include "serve/cache.hpp"
#include "serve/journal.hpp"
#include "serve/protocol.hpp"
#include "serve/registry.hpp"
#include "util/log.hpp"

namespace perfbench {

using namespace nocalert;

namespace {

/** Empty daemon lives per invocation that only measure setup. */
constexpr std::size_t kSetupOnlyLives = 28;

/** Blocking NDJSON client connection with a receive timeout. */
class Connection
{
  public:
    Connection() = default;
    ~Connection() { close(); }
    Connection(const Connection &) = delete;
    Connection &operator=(const Connection &) = delete;

    bool connect(const std::string &path)
    {
        sockaddr_un address{};
        address.sun_family = AF_UNIX;
        if (path.size() >= sizeof(address.sun_path))
            return false;
        std::memcpy(address.sun_path, path.c_str(), path.size() + 1);
        fd_ = ::socket(AF_UNIX, SOCK_STREAM, 0);
        if (fd_ < 0)
            return false;
        if (::connect(fd_, reinterpret_cast<const sockaddr *>(&address),
                      sizeof(address)) != 0) {
            ::close(fd_);
            fd_ = -1;
            return false;
        }
        // A wedged daemon must fail the run, not hang it.
        timeval timeout{};
        timeout.tv_sec = 60;
        ::setsockopt(fd_, SOL_SOCKET, SO_RCVTIMEO, &timeout,
                     sizeof(timeout));
        return true;
    }

    bool send(const JsonValue &request)
    {
        const std::string line = request.dump() + "\n";
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

    /** Next response; nullopt on EOF, timeout or unparseable line. */
    std::optional<JsonValue> read()
    {
        for (;;) {
            if (const auto line = framer_.next()) {
                if (line->oversized)
                    return std::nullopt;
                return parseJson(line->text);
            }
            char buffer[1 << 16];
            const ssize_t got = ::recv(fd_, buffer, sizeof(buffer), 0);
            if (got < 0 && errno == EINTR)
                continue;
            if (got <= 0)
                return std::nullopt;
            framer_.feed(
                std::string_view(buffer, static_cast<std::size_t>(got)));
        }
    }

    void close()
    {
        if (fd_ >= 0)
            ::close(fd_);
        fd_ = -1;
    }

    /** One request, one response. */
    std::optional<JsonValue> roundTrip(const JsonValue &request)
    {
        if (!send(request))
            return std::nullopt;
        return read();
    }

  private:
    int fd_ = -1;
    serve::LineFramer framer_;
};

std::string
member(const JsonValue &json, const char *key)
{
    const JsonValue *value = json.find(key);
    return value && value->isString() ? value->string() : std::string();
}

std::uint64_t
counter(const JsonValue &json, const char *key)
{
    const JsonValue *value = json.find(key);
    return value && value->isNumber() ? value->asUint() : 0;
}

JsonValue
request(const char *type, const std::string &id = {})
{
    JsonValue json;
    json.set("type", type);
    if (!id.empty())
        json.set("id", id);
    return json;
}

/** The daemon process; killed and reaped if still running at scope end. */
class Daemon
{
  public:
    Daemon(const std::string &binary, const std::string &socket,
           const std::string &cache, const std::string &log)
    {
        pid_ = ::fork();
        if (pid_ == 0) {
            // Never outlive the harness, even when it is killed.
            ::prctl(PR_SET_PDEATHSIG, SIGKILL);
            const int fd = ::open(log.c_str(),
                                  O_WRONLY | O_CREAT | O_TRUNC, 0644);
            if (fd >= 0) {
                ::dup2(fd, STDOUT_FILENO);
                ::dup2(fd, STDERR_FILENO);
                ::close(fd);
            }
            const char *argv[] = {binary.c_str(), "--socket",
                                  socket.c_str(), "--cache", cache.c_str(),
                                  nullptr};
            ::execv(binary.c_str(), const_cast<char *const *>(argv));
            ::_exit(127);
        }
    }
    ~Daemon()
    {
        if (pid_ > 0) {
            ::kill(pid_, SIGKILL);
            reap(0.0);
        }
    }
    Daemon(const Daemon &) = delete;
    Daemon &operator=(const Daemon &) = delete;

    bool started() const { return pid_ > 0; }

    /** Wait up to @p timeout_s for exit; true on a clean exit 0.
     *  Fills the child's peak RSS. */
    bool reap(double timeout_s)
    {
        const Clock::time_point start = Clock::now();
        for (;;) {
            int status = 0;
            rusage usage{};
            const pid_t got = ::wait4(pid_, &status, WNOHANG, &usage);
            if (got == pid_) {
                pid_ = -1;
                peakRssMiB_ = static_cast<double>(usage.ru_maxrss) / 1024.0;
                return WIFEXITED(status) && WEXITSTATUS(status) == 0;
            }
            if (got < 0) {
                pid_ = -1;
                return false;
            }
            if (seconds(start, Clock::now()) >= timeout_s) {
                ::kill(pid_, SIGKILL);
                timeout_s = 1e9; // Now wait for the kill to land.
            }
            std::this_thread::sleep_for(std::chrono::milliseconds(1));
        }
    }

    double peakRssMiB() const { return peakRssMiB_; }

  private:
    pid_t pid_ = -1;
    double peakRssMiB_ = 0.0;
};

/** What one daemon life measured. */
struct Life
{
    double setupSeconds = 0.0;
    std::vector<double> coldSeconds;
    std::vector<double> hitSeconds;
    std::vector<std::string> coldArtifacts;
    JsonValue counts;
    double peakRssMiB = 0.0;
};

/**
 * Submit @p spec and fetch its artifact. Cold: watch it to done first.
 * A hit must be answered complete from the cache. Returns the artifact
 * bytes, or nullopt with @p why set.
 */
std::optional<std::string>
submitAndFetch(Connection &conn, const fault::CampaignConfig &spec,
               bool hit, std::string *why)
{
    JsonValue submit = request("submit");
    submit.set("config", fault::toJson(spec));
    submit.set("detach", false);
    const auto submitted = conn.roundTrip(submit);
    if (!submitted || member(*submitted, "type") != "submitted") {
        *why = "submit refused: " +
               (submitted ? submitted->dump() : std::string("no reply"));
        return std::nullopt;
    }
    const std::string id = member(*submitted, "id");
    const bool complete = member(*submitted, "state") == "complete";
    const JsonValue *cached = submitted->find("cached");
    const bool from_cache = cached && cached->isBool() && cached->boolean();
    if (hit && !(complete && from_cache)) {
        *why = "resubmission was not a cache hit: " + submitted->dump();
        return std::nullopt;
    }
    if (!complete) {
        if (!conn.send(request("watch", id))) {
            *why = "watch send failed";
            return std::nullopt;
        }
        for (;;) {
            const auto event = conn.read();
            if (!event) {
                *why = "connection lost while watching " + id;
                return std::nullopt;
            }
            const std::string type = member(*event, "type");
            if (type == "error") {
                *why = "watch error: " + event->dump();
                return std::nullopt;
            }
            if (type == "done") {
                if (member(*event, "state") != "complete") {
                    *why = "campaign " + id + " ended " +
                           member(*event, "state");
                    return std::nullopt;
                }
                break;
            }
        }
    }
    const auto result = conn.roundTrip(request("result", id));
    if (!result || member(*result, "type") != "result") {
        *why = "result refused: " +
               (result ? result->dump() : std::string("no reply"));
        return std::nullopt;
    }
    return member(*result, "artifact");
}

/** One daemon life over @p specs. */
Life
daemonLife(const std::string &binary, const std::string &dir,
           const std::vector<fault::CampaignConfig> &specs,
           std::size_t hits, bool doctor, Tally &tally)
{
    Life life;
    std::filesystem::remove_all(dir);
    std::filesystem::create_directories(dir);
    const std::string socket = dir + "/serve.sock";

    const Clock::time_point launch = Clock::now();
    Daemon daemon(binary, socket, dir + "/cache", dir + "/daemon.log");
    Connection conn;
    bool up = false;
    while (daemon.started() && seconds(launch, Clock::now()) < 30.0) {
        if (conn.connect(socket)) {
            const auto pong = conn.roundTrip(request("ping"));
            up = pong && member(*pong, "type") == "pong";
            break;
        }
        std::this_thread::sleep_for(std::chrono::microseconds(50));
    }
    life.setupSeconds = seconds(launch, Clock::now());
    const std::uint64_t planned = specs.size() * (1 + hits);
    tally.attempt(planned);
    if (!up) {
        tally.fail("daemon did not answer ping", planned);
        return life;
    }

    JsonValue counts;
    JsonValue artifacts{JsonValue::Array{}};
    for (const fault::CampaignConfig &spec : specs) {
        std::string why;
        const Clock::time_point start = Clock::now();
        auto artifact = submitAndFetch(conn, spec, false, &why);
        life.coldSeconds.push_back(seconds(start, Clock::now()));
        if (!artifact) {
            tally.fail(why, 1 + hits);
            life.coldArtifacts.emplace_back();
            continue;
        }
        std::string check;
        auto parsed = checkArtifact(*artifact, &check);
        if (!parsed)
            tally.fail("cold artifact: " + check);
        else
            artifacts.push(artifactCounts(*parsed, *artifact));
        life.coldArtifacts.push_back(std::move(*artifact));
    }
    for (std::size_t h = 0; h < hits; ++h) {
        for (std::size_t s = 0; s < specs.size(); ++s) {
            if (life.coldArtifacts[s].empty())
                continue;
            std::string why;
            const Clock::time_point start = Clock::now();
            auto artifact = submitAndFetch(conn, specs[s], true, &why);
            life.hitSeconds.push_back(seconds(start, Clock::now()));
            if (artifact && doctor && h == 0 && s == 0)
                (*artifact)[artifact->size() / 2] ^= 0x01;
            if (!artifact)
                tally.fail(why);
            else if (*artifact != life.coldArtifacts[s])
                tally.fail("cache hit differs from the cold artifact of "
                           "spec " + std::to_string(s));
        }
    }

    const auto stats = conn.roundTrip(request("stats"));
    if (!stats || member(*stats, "type") != "stats") {
        tally.fail("stats refused");
    } else {
        counts.set("runs_executed", counter(*stats, "runsExecuted"));
        counts.set("cache_hits", counter(*stats, "cacheHits"));
        counts.set("journal_appends", counter(*stats, "journalAppends"));
        counts.set("submissions", counter(*stats, "submissions"));
    }
    counts.set("artifacts", std::move(artifacts));
    life.counts = std::move(counts);

    const auto bye = conn.roundTrip(request("shutdown"));
    conn.close();
    if (!bye || member(*bye, "type") != "bye" || !daemon.reap(30.0))
        tally.fail("daemon did not shut down cleanly");
    life.peakRssMiB = daemon.peakRssMiB();
    return life;
}

JsonValue
array(const std::vector<double> &values)
{
    JsonValue json{JsonValue::Array{}};
    for (double v : values)
        json.push(v);
    return json;
}

/** Quantum spans of an in-process registry stepped by hand, with the
 *  daemon's defaults otherwise (jobs 1, quantum 16, journal on). */
JsonValue
registryQuanta(const std::string &dir,
               const std::vector<fault::CampaignConfig> &specs,
               const std::vector<std::string> &cold, Tally &tally)
{
    std::filesystem::remove_all(dir);
    std::filesystem::create_directories(dir);
    serve::RegistryConfig config;
    config.startScheduler = false;
    serve::ResultCache cache(dir);
    serve::SubmissionJournal journal(dir + "/journal.wal");
    serve::CampaignRegistry registry(config, cache, &journal);

    std::vector<std::string> ids;
    for (const fault::CampaignConfig &spec : specs)
        ids.push_back(registry.submit(spec, /*detach=*/true, 1).id);
    std::vector<double> quanta;
    for (;;) {
        const Clock::time_point start = Clock::now();
        if (!registry.stepOnce())
            break;
        quanta.push_back(seconds(start, Clock::now()));
    }
    for (std::size_t s = 0; s < ids.size(); ++s) {
        tally.attempt();
        const serve::ResultOutcome outcome = registry.result(ids[s]);
        if (!outcome.artifact || *outcome.artifact != cold[s])
            tally.fail("in-process registry artifact differs from the "
                       "daemon's for spec " + std::to_string(s));
    }
    registry.shutdown();
    return array(quanta);
}

} // namespace

int
runServe(const CommandLine &cli)
{
    const std::string out = cli.getString("out", "");
    const std::string dir = cli.getString("dir", ".");
    const std::string binary = cli.getString("daemon", "");
    const auto reps = static_cast<std::size_t>(cli.getInt("reps", 3));
    const auto hits = static_cast<std::size_t>(cli.getInt("hits", 200));
    const bool trace = cli.getBool("trace", false);
    const std::string doctor = cli.getString("doctor", "");
    if (out.empty() || binary.empty() || reps == 0)
        NOCALERT_FATAL("serve needs --out, --daemon and --reps >= 1");

    // Two exhaustive specs on consecutive traffic seeds, and one
    // fixed-budget sampled spec.
    const fault::CampaignConfig sampled = configFromFlags(cli);
    fault::CampaignConfig exhaustive = sampled;
    exhaustive.sampling = fault::SamplingSpec{};
    fault::CampaignConfig next_seed = exhaustive;
    next_seed.workload.setSeed(exhaustive.workload.seed() + 1);
    const std::vector<fault::CampaignConfig> specs = {exhaustive, next_seed,
                                                      sampled};

    Tally tally;
    JsonValue doc;
    JsonValue lives{JsonValue::Array{}};
    std::vector<std::string> first_cold;
    const std::size_t life_count = trace ? 1 : reps;
    for (std::size_t rep = 0; rep < life_count; ++rep) {
        Life life = daemonLife(binary, dir + "/life_" + std::to_string(rep),
                               specs, hits, doctor == "artifact", tally);
        JsonValue row;
        row.set("setup_s", life.setupSeconds);
        row.set("cold_s", array(life.coldSeconds));
        row.set("hit_s", array(life.hitSeconds));
        row.set("peak_rss_mib", life.peakRssMiB);
        if (doctor == "count" && rep == 1)
            life.counts.set("runs_executed",
                            counter(life.counts, "runs_executed") + 1);
        row.set("counts", std::move(life.counts));
        lives.push(std::move(row));
        if (rep == 0)
            first_cold = std::move(life.coldArtifacts);
    }
    doc.set("reps", std::move(lives));

    // Launch -> first pong is a few milliseconds, so extra empty daemon
    // lives give setup_s enough samples for a steady median.
    JsonValue setup_only{JsonValue::Array{}};
    for (std::size_t k = 0; k < kSetupOnlyLives; ++k) {
        setup_only.push(daemonLife(binary,
                                   dir + "/setup_" + std::to_string(k), {},
                                   0, false, tally)
                            .setupSeconds);
    }
    doc.set("setup_only_s", std::move(setup_only));

    // Dense oracle over a subset of each cold artifact, then (traced)
    // the replica over all of them.
    std::vector<fault::CampaignResult> parsed;
    for (const std::string &bytes : first_cold) {
        std::string why;
        if (auto result = checkArtifact(bytes, &why))
            parsed.push_back(std::move(*result));
    }
    for (const fault::CampaignResult &result : parsed)
        runOracle(result, tally);

    if (trace && parsed.size() == specs.size()) {
        JsonValue trace_doc;
        trace_doc.set("quantum_s",
                      registryQuanta(dir + "/registry", specs, first_cold,
                                     tally));
        JsonValue serialize{JsonValue::Array{}};
        for (const fault::CampaignResult &result : parsed)
            serialize.push(serializeTiming(result));
        trace_doc.set("artifacts", std::move(serialize));
        // The daemon's exec layer is not observable from outside; one
        // in-process campaign on the first spec at the daemon's jobs
        // stands in for its worker utilization.
        tally.attempt();
        try {
            FatalThrowScope scope;
            fault::CampaignConfig first = specs.front();
            first.jobs = 1;
            trace_doc.set("worker_utilization",
                          meanUtilization(timeCampaign(
                                              first, dir + "/exec.json")
                                              .last));
        } catch (const FatalError &error) {
            tally.fail(std::string("exec campaign failed: ") + error.what());
        }

        Tracer tracer;
        TraceReplay replay;
        for (const fault::CampaignResult &result : parsed)
            replayTraced(result, 1, tracer, tally, replay);
        trace_doc.set("replay", replay.toJson(tracer));
        doc.set("trace", std::move(trace_doc));
    }
    doc.set("tally", tally.toJson());
    if (!writeJson(out, doc))
        NOCALERT_FATAL("cannot write ", out);
    return 0;
}

} // namespace perfbench
