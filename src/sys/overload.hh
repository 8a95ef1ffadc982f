/**
 * @file
 * Open-loop overload stress point over the runtime::Platform.
 *
 * The figure harnesses and the multi-tenant mode are *closed* loops: a
 * stream never has more than one request in flight, so offered load can
 * never exceed capacity. Overload protection only shows its value under
 * an *open* loop - requests arrive on a clock, whether or not earlier
 * ones finished - so this engine drives a bank of identical accelerator
 * devices at a configurable multiple of their saturation rate while a
 * seeded fault plan fails/hangs a fraction of kernels, and measures what
 * the overload-protection stack (robust::RobustConfig: admission
 * control, per-device circuit breakers, credit-based submission
 * backpressure, deadline budgets) buys:
 *
 *  - goodput (successful requests per simulated second of makespan),
 *  - shed rate and p99 latency of the successful requests,
 *  - circuit-breaker open time and fast-fails,
 *  - submission-ring overruns (legacy) vs. bounded rings (protected).
 *
 * Saturation is self-calibrated: one request is first timed alone on an
 * idle, fault-free platform, and arrivals are spaced so that
 * `load = 1.0` offers exactly one request per device-service-time per
 * device. Everything is deterministic: equal configs give byte-equal
 * results at any exec::ScenarioRunner --jobs level.
 *
 * The engine is the serving layer's (src/serve) with every serving
 * feature off: simulateOverload is defined in src/serve/serving.cc and
 * returns serve::simulateServing(...).base.
 */

#ifndef DMX_SYS_OVERLOAD_HH
#define DMX_SYS_OVERLOAD_HH

#include <cstdint>

#include "common/percentile.hh"
#include "common/units.hh"
#include "robust/robust.hh"

namespace dmx::sys
{

/** One overload stress point. */
struct OverloadConfig
{
    unsigned devices = 4;            ///< identical accelerator devices
    unsigned requests = 160;         ///< total offered requests
    /// Offered load as a multiple of aggregate saturation: 1.0 arrives
    /// exactly as fast as the device bank can serve, 2.0 twice that.
    double load = 1.0;
    /// Fraction of kernels faulted (80% fail fast, 20% hang until the
    /// watchdog fires), drawn from a seeded per-site stream.
    double fault_rate = 0.0;
    std::uint64_t seed = 1;
    std::uint64_t request_bytes = 4096;  ///< payload per request
    /// Per-device submission-ring capacity in bytes. The legacy path
    /// overruns this ring under overload (counted, per queue); the
    /// protected path credit-gates producers so it never can.
    std::uint64_t ring_bytes = 8 * 4096;
    /// Overload protection; the default (all-off) is the legacy
    /// baseline the protected run is compared against.
    robust::RobustConfig robust;
    /// When > 0, overrides robust.deadline with this multiple of the
    /// self-calibrated solo service time, so deadline budgets track the
    /// workload instead of hard-coding ticks.
    double deadline_factor = 0;
    /// Batched submission window (runtime::submitBatch): each device
    /// packs up to `batch` pending requests into one submission with
    /// coalesced completion notifications. Admission, deadlines and
    /// retries stay per request (per batch member). A partial batch
    /// flushes after `batch` arrival intervals, so credit gates and
    /// bounded rings can never deadlock the accumulator. Default 1 is
    /// the legacy one-command-per-submission path, byte-identical to
    /// before.
    unsigned batch = 1;
};

/** Results of one overload stress point. */
struct OverloadStats
{
    std::uint64_t offered = 0;       ///< requests that arrived
    std::uint64_t completed = 0;     ///< settled Ok
    std::uint64_t shed = 0;          ///< settled Shed (admission/breaker)
    std::uint64_t failed = 0;        ///< settled Failed
    std::uint64_t timed_out = 0;     ///< settled TimedOut (watchdog or
                                     ///< deadline budget)

    double goodput_rps = 0;          ///< completed / makespan seconds
    double mean_latency_ms = 0;      ///< mean over completed requests
    double p99_latency_ms = 0;       ///< nearest-rank p99 over completed
    double makespan_ms = 0;          ///< arrival of first to last settle

    std::uint64_t queue_overflows = 0;      ///< ring pushes rejected
    std::uint64_t ring_credit_window = 0;   ///< bytes, per ring
    std::uint64_t max_ring_high_water = 0;  ///< worst ring fill seen
    std::uint64_t backpressure_stalls = 0;  ///< gated submissions blocked
    double backpressure_stall_ms = 0;       ///< total blocked time

    std::uint64_t breaker_opens = 0;        ///< Closed/HalfOpen -> Open
    std::uint64_t breaker_fast_fails = 0;   ///< rejected by open breakers
    double breaker_open_ms = 0;             ///< total quarantine time
    std::uint64_t retries = 0;              ///< retry attempts scheduled
    std::uint64_t watchdog_timeouts = 0;    ///< per-attempt expiries

    /// Completion-notification accounting (OverloadConfig::batch):
    /// notification events delivered - by interrupt or, when NAPI
    /// switched the controller to polled mode, by poll - and member
    /// completions whose own notification was absorbed into a batch's
    /// coalesced one. Both 0 without a fault plan (the fault-free
    /// settle path never paid notifications, batched or not).
    std::uint64_t irq_notifications = 0;
    std::uint64_t irq_suppressed = 0;

    /// Full latency distribution of the completed requests; mean/p99
    /// are bit-identical to the scalar fields above.
    common::LatencySummary completed_latency;
    /// Time-to-shed distribution: arrival to Shed settle. A protected
    /// config that sheds *slowly* (after queueing) can't hide behind a
    /// completed-only p99 anymore.
    common::LatencySummary shed_latency;
    /// Time-to-timeout distribution: arrival to TimedOut settle
    /// (watchdog expiry or deadline budget).
    common::LatencySummary timeout_latency;

    /** @return fraction of offered requests shed. */
    double
    shedRate() const
    {
        return offered ? static_cast<double>(shed) /
                             static_cast<double>(offered)
                       : 0;
    }
};

/** Run one overload stress point. */
OverloadStats simulateOverload(const OverloadConfig &cfg);

} // namespace dmx::sys

#endif // DMX_SYS_OVERLOAD_HH
