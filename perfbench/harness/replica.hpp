/**
 * @file
 * The traced replica: FaultCampaign::runSingle and the campaign's warm
 * snapshot + golden preparation, re-wired from public headers with a
 * span around every call into a layer.
 *
 * The replica mirrors the wiring of fault/campaign.cpp at commit
 * 004fc091b830ea89fba70d979a08bc2f35d57cb2 (kReplicaOf). The traced
 * run compares every replica record with runSingle's byte for byte,
 * so a later change to runSingle's wiring shows up as a failed trace
 * run instead of silently skewing the per-layer numbers.
 */

#ifndef PERFBENCH_REPLICA_HPP
#define PERFBENCH_REPLICA_HPP

#include <cstdint>
#include <string>
#include <vector>

#include "common.hpp"
#include "fault/campaign.hpp"
#include "fault/golden.hpp"
#include "noc/network.hpp"
#include "util/json.hpp"

namespace perfbench {

/** Commit whose runSingle / prepareReference wiring the replica copies. */
inline constexpr const char *kReplicaOf =
    "004fc091b830ea89fba70d979a08bc2f35d57cb2";

/** One closed span. Times are ns since the tracer's origin. */
struct Span
{
    std::string name;
    std::int64_t start = 0;
    std::int64_t end = 0;
    int parent = -1;         ///< Index of the enclosing span, -1 at top.
    std::int64_t runId = -1; ///< Fault run the span belongs to.
    /** Time covered by child spans and timed callbacks inside it. */
    std::int64_t childNs = 0;
    /** Timed callbacks charged to it directly (see calibrateTimer). */
    std::uint64_t callbacks = 0;
};

/**
 * In-memory span recorder. Spans nest through a stack; callbacks too
 * frequent to record one by one (checker and observer calls, several
 * per router per cycle) add their time to the innermost open span as
 * child time instead, so self time stays "duration minus children".
 */
class Tracer
{
  public:
    Tracer() : origin_(Clock::now()) {}

    std::int64_t now() const
    {
        return std::chrono::duration_cast<std::chrono::nanoseconds>(
                   Clock::now() - origin_)
            .count();
    }

    /** Open a span; returns its index for close(). */
    int open(const char *name, std::int64_t run_id);
    void close(int index);

    /** Charge one timed callback of @p ns to the innermost open span. */
    void addCallback(std::int64_t ns)
    {
        if (!stack_.empty()) {
            Span &span = spans_[static_cast<std::size_t>(stack_.back())];
            span.childNs += ns;
            ++span.callbacks;
        }
    }

    /** Spans as [name, start, end, parent, run, child, callbacks] rows. */
    nocalert::JsonValue toJson() const;

  private:
    Clock::time_point origin_;
    std::vector<Span> spans_;
    std::vector<int> stack_;
};

/** RAII span on an optional tracer (null = untraced). */
class ScopedSpan
{
  public:
    ScopedSpan(Tracer *tracer, const char *name, std::int64_t run_id = -1)
        : tracer_(tracer), index_(tracer ? tracer->open(name, run_id) : -1)
    {
    }
    ~ScopedSpan()
    {
        if (tracer_)
            tracer_->close(index_);
    }
    ScopedSpan(const ScopedSpan &) = delete;
    ScopedSpan &operator=(const ScopedSpan &) = delete;

  private:
    Tracer *tracer_;
    int index_;
};

/** A warm snapshot plus its fault-free golden reference. */
struct PreparedReference
{
    nocalert::noc::Network base;
    nocalert::fault::GoldenReference golden;
};

/**
 * The campaign's reference preparation for @p config (normalized
 * here, as FaultCampaign's constructor does) with @p traffic_seed,
 * on the kernel config.denseKernel selects. With a tracer, the warmup
 * and the golden run get spans fault.setup_warmup / fault.setup_golden.
 */
PreparedReference
prepareReference(const nocalert::fault::CampaignConfig &config,
                 std::uint64_t traffic_seed, Tracer *tracer);

/** Time and number of the timed callbacks into one layer. */
struct CallbackTime
{
    std::int64_t ns = 0;
    std::uint64_t calls = 0;
};

/** Per-run counts the replica records at the layer boundaries. */
struct RunCounters
{
    std::uint64_t simCycles = 0;
    std::uint64_t routerEvals = 0;
    std::uint64_t niEvals = 0;
    std::uint64_t branchyCalls = 0; ///< Router-observer (checker bank) calls.
    std::uint64_t packedCalls = 0;  ///< Packed-observer calls.
    CallbackTime checker;      ///< Router, NI and packed checker calls.
    CallbackTime forever;      ///< ForEVeR observer and cycle-end calls.
    CallbackTime orchestrator; ///< Recovery orchestrator cycle-end calls.
    std::uint64_t goldenFlits = 0;
};

/**
 * What one timed callback costs the harness, measured on an empty
 * callback. The clock reads around a callback are partly inside the
 * timed window (charged to the layer's callback time) and partly
 * outside it, together with the timer's own bookkeeping (left in the
 * enclosing span's self time). run.py subtracts calls x cost from both.
 */
struct TimerCost
{
    double insideNs = 0.0;
    double outsideNs = 0.0;
};

/** Median TimerCost over batches of empty timed callbacks. */
TimerCost calibrateTimer();

/**
 * FaultCampaign::runSingle, replicated with spans under a root span
 * "run" tagged @p run_id: noc.copy, observers.setup, noc.observe,
 * noc.drain, noc.epoch_tail, fault.collect, fault.compare, and
 * fault.classify. @p config must be normalized.
 */
nocalert::fault::FaultRunResult
tracedRunSingle(const nocalert::fault::CampaignConfig &config,
                const nocalert::noc::Network &base,
                const nocalert::fault::GoldenReference &golden,
                const nocalert::fault::FaultSite &site,
                nocalert::noc::Cycle inject_offset, Tracer &tracer,
                std::int64_t run_id, RunCounters &counters);

} // namespace perfbench

#endif // PERFBENCH_REPLICA_HPP
