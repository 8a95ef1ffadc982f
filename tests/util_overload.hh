/**
 * @file
 * Exact checks of sys::OverloadStats for the serving and batching
 * suites: every field of two result blocks compared bit for bit, and
 * a pin helper that runs one overload point through both entry points
 * (sys::simulateOverload and serving-disabled serve::simulateServing)
 * against literal expected values.
 */

#ifndef DMX_TESTS_UTIL_OVERLOAD_HH
#define DMX_TESTS_UTIL_OVERLOAD_HH

#include <gtest/gtest.h>

#include "common/percentile.hh"
#include "serve/serve.hh"
#include "sys/overload.hh"

namespace dmx::testutil
{

inline void
expectLatencyEq(const common::LatencySummary &a,
                const common::LatencySummary &b)
{
    EXPECT_EQ(a.count, b.count);
    EXPECT_EQ(a.mean_ms, b.mean_ms);
    EXPECT_EQ(a.p50_ms, b.p50_ms);
    EXPECT_EQ(a.p99_ms, b.p99_ms);
    EXPECT_EQ(a.p999_ms, b.p999_ms);
}

/** Every field of two overload-stat blocks must match exactly. */
inline void
expectOverloadEq(const sys::OverloadStats &a, const sys::OverloadStats &b)
{
    EXPECT_EQ(a.offered, b.offered);
    EXPECT_EQ(a.completed, b.completed);
    EXPECT_EQ(a.shed, b.shed);
    EXPECT_EQ(a.failed, b.failed);
    EXPECT_EQ(a.timed_out, b.timed_out);
    EXPECT_EQ(a.goodput_rps, b.goodput_rps);
    EXPECT_EQ(a.mean_latency_ms, b.mean_latency_ms);
    EXPECT_EQ(a.p99_latency_ms, b.p99_latency_ms);
    EXPECT_EQ(a.makespan_ms, b.makespan_ms);
    EXPECT_EQ(a.queue_overflows, b.queue_overflows);
    EXPECT_EQ(a.ring_credit_window, b.ring_credit_window);
    EXPECT_EQ(a.max_ring_high_water, b.max_ring_high_water);
    EXPECT_EQ(a.backpressure_stalls, b.backpressure_stalls);
    EXPECT_EQ(a.backpressure_stall_ms, b.backpressure_stall_ms);
    EXPECT_EQ(a.breaker_opens, b.breaker_opens);
    EXPECT_EQ(a.breaker_fast_fails, b.breaker_fast_fails);
    EXPECT_EQ(a.breaker_open_ms, b.breaker_open_ms);
    EXPECT_EQ(a.retries, b.retries);
    EXPECT_EQ(a.watchdog_timeouts, b.watchdog_timeouts);
    EXPECT_EQ(a.irq_notifications, b.irq_notifications);
    EXPECT_EQ(a.irq_suppressed, b.irq_suppressed);
    expectLatencyEq(a.completed_latency, b.completed_latency);
    expectLatencyEq(a.shed_latency, b.shed_latency);
    expectLatencyEq(a.timeout_latency, b.timeout_latency);
}

/**
 * Run @p cfg through sys::simulateOverload and through
 * serve::simulateServing with serving disabled; both must equal
 * @p pin field for field. The pins are literals (doubles as hex
 * floats) taken from the overload engine's results; scalar fields a
 * pin leaves out are pinned to zero. @return the serving run, for
 * checks of the serving-only counters.
 */
inline serve::ServeStats
expectOverloadPinned(const sys::OverloadConfig &cfg,
                     const sys::OverloadStats &pin)
{
    {
        SCOPED_TRACE("sys::simulateOverload");
        expectOverloadEq(sys::simulateOverload(cfg), pin);
    }
    serve::ServeConfig sc;
    sc.overload = cfg;
    const serve::ServeStats st = serve::simulateServing(sc);
    {
        SCOPED_TRACE("serve::simulateServing, serving disabled");
        expectOverloadEq(st.base, pin);
    }
    return st;
}

} // namespace dmx::testutil

#endif // DMX_TESTS_UTIL_OVERLOAD_HH
