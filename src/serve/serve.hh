/**
 * @file
 * Deterministic open-loop serving layer over the overload stack.
 *
 * sys::simulateOverload answers "what does the protection stack buy
 * under uniform overload?". This layer answers the production question
 * on top of it: can the fabric *hold its SLOs* under bursty,
 * partially-faulted, multi-tenant load? It drives the same
 * self-calibrated device bank through:
 *
 *  - arrival traces (serve/trace_gen.hh): seeded steady / diurnal /
 *    flash-crowd / heavy-tailed shapes over per-tenant streams with
 *    latency-sensitive vs. batch SLO classes;
 *  - hedged requests: after a class-configurable percentile of the
 *    observed class latency, a straggler is re-issued on the
 *    healthiest alternate device and the loser is cancelled on first
 *    successful settle (cancellation ignores the loser's outcome; it
 *    never double-counts the request);
 *  - retry budgets (serve/budget.hh): per-tenant token buckets gating
 *    every hedge *and* every runtime retry (via
 *    runtime::Platform::setRetryPolicy), bounding attempt
 *    amplification exactly;
 *  - brownout control (serve/brownout.hh): a sojourn-tracking ladder
 *    shedding batch first, then degrading latency-sensitive work,
 *    then failing fast, recovering in reverse.
 *
 * Everything is default-off and seeded. With `enabled == false` the
 * engine *is* sys::simulateOverload: that function returns this
 * engine's base block with serving disabled, and tests/test_serve.cc
 * pins its results to literal values. Equal configs are byte-identical
 * at any exec::ScenarioRunner --jobs level.
 */

#ifndef DMX_SERVE_SERVE_HH
#define DMX_SERVE_SERVE_HH

#include <cstdint>
#include <vector>

#include "common/percentile.hh"
#include "common/units.hh"
#include "serve/brownout.hh"
#include "serve/budget.hh"
#include "serve/trace_gen.hh"
#include "sys/overload.hh"

namespace dmx::serve
{

/** Hedged-request policy. */
struct HedgeConfig
{
    bool enabled = false;
    /// Hedge a latency-sensitive request once it has been in flight
    /// longer than this percentile of its class's observed latency.
    double ls_percentile = 0.95;
    /// Same for batch requests (hedged later: they can afford to wait).
    double batch_percentile = 0.99;
    /// Observed-latency samples required before the percentile is
    /// trusted; until then the hedge delay is initial_factor * the
    /// solo service time. The same value floors the adaptive delay
    /// afterwards (a request is never hedged before the work could
    /// plausibly have completed once).
    unsigned min_samples = 8;
    double initial_factor = 4.0;
};

/** One serving stress point. */
struct ServeConfig
{
    /// The underlying overload point: devices, request count, load,
    /// fault rate, seed, payload/ring bytes, protection stack.
    sys::OverloadConfig overload;

    /// Master switch. False = the plain overload stress point that
    /// sys::simulateOverload reports (every serving feature
    /// unreachable).
    bool enabled = false;

    TraceConfig trace;
    HedgeConfig hedge;
    RetryBudgetConfig budget;
    BrownoutConfig brownout;

    /// Per-class SLO targets as multiples of the solo service time.
    double slo_ls_factor = 8.0;
    double slo_batch_factor = 64.0;

    /// Fraction of faulted kernels that hang (the rest fail fast).
    /// Read only when serving is enabled; a disabled run always splits
    /// faults 80/20 fail/hang.
    double fault_hang_fraction = 0.2;
    /// Override for the fault plan's consecutive-failure threshold;
    /// 0 keeps the plan default. The amplification regression raises
    /// it so health-based fast-fail cannot hide attempts.
    unsigned unhealthy_threshold = 0;
};

/** Per-SLO-class results. */
struct ClassStats
{
    std::uint64_t offered = 0;
    std::uint64_t completed = 0;
    std::uint64_t shed = 0;
    std::uint64_t failed = 0;
    std::uint64_t timed_out = 0;
    std::uint64_t degraded = 0; ///< served with brownout-reduced payload

    common::LatencySummary latency; ///< completed requests only
    double slo_target_ms = 0;
    /// Completed within the SLO target, over *offered* (a shed request
    /// is an SLO miss, not a statistical no-show).
    double slo_attainment = 0;
};

/** Results of one serving stress point. */
struct ServeStats
{
    /// The overload result block (what sys::simulateOverload returns
    /// when serving is disabled).
    sys::OverloadStats base;

    ClassStats latency_sensitive;
    ClassStats batch;

    std::uint64_t hedges_issued = 0;    ///< hedge attempts launched
    std::uint64_t hedges_won = 0;       ///< hedge settled Ok first
    std::uint64_t hedges_cancelled = 0; ///< losers outstanding at the
                                        ///< winning settle
    std::uint64_t hedges_denied = 0;    ///< vetoed by the retry budget

    std::uint64_t budget_granted = 0;   ///< tokens consumed
    std::uint64_t budget_denied = 0;    ///< consumptions refused
    std::uint64_t retries_denied = 0;   ///< runtime retries vetoed

    std::uint64_t brownout_escalations = 0;
    std::uint64_t brownout_deescalations = 0;
    std::uint64_t brownout_shed_batch = 0; ///< arrivals shed at >= ShedBatch
    std::uint64_t brownout_shed_all = 0;   ///< arrivals shed at FailFast
    std::uint64_t brownout_degraded = 0;   ///< arrivals degraded
    BrownoutLevel brownout_final = BrownoutLevel::Normal;

    /// Total command attempts across the bank (first tries + retries +
    /// hedges): the amplification the retry budget bounds.
    std::uint64_t total_attempts = 0;
};

/** Run one serving stress point. */
ServeStats simulateServing(const ServeConfig &cfg);

/**
 * Every numeric field of @p st in a fixed order: the byte-identity
 * probe used by the determinism tests (compare with ==, not an
 * epsilon).
 */
std::vector<double> flatten(const ServeStats &st);

} // namespace dmx::serve

#endif // DMX_SERVE_SERVE_HH
