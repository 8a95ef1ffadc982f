/**
 * @file
 * Tests for the serving layer (src/serve): trace generation, retry
 * budgets, brownout control, hedged requests, the runtime retry-policy
 * hook, and the engine-level contracts — serving disabled reproduces
 * the pinned sys::simulateOverload results exactly, equal configs are
 * byte-identical at any --jobs level (including under randomized fault
 * plans), hedge cancellation never double-counts a request, retry
 * budgets bound attempt amplification exactly, brownout enters and
 * exits deterministically with pinned hysteresis, and the headline
 * tail-tolerance contract holds at 2x load with 10% faults.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "exec/scenario.hh"
#include "fault/fault.hh"
#include "runtime/batch.hh"
#include "runtime/chain.hh"
#include "runtime/runtime.hh"
#include "serve/brownout.hh"
#include "serve/budget.hh"
#include "serve/serve.hh"
#include "serve/trace_gen.hh"
#include "sys/overload.hh"
#include "trace/trace.hh"
#include "util_overload.hh"

using namespace dmx;
using namespace dmx::serve;

namespace
{

/** The protection stack stress_overload sweeps. */
robust::RobustConfig
protectedConfig()
{
    robust::RobustConfig rc;
    rc.backpressure.enabled = true;
    rc.admission.policy = robust::AdmissionPolicy::StaticCap;
    rc.admission.queue_depth_cap = 4;
    rc.breaker.enabled = true;
    return rc;
}

/** Per-class conservation: every offered request ends in one bucket. */
void
expectClassConservation(const ServeStats &st)
{
    for (const ClassStats *c :
         {&st.latency_sensitive, &st.batch}) {
        EXPECT_EQ(c->offered,
                  c->completed + c->shed + c->failed + c->timed_out);
        EXPECT_EQ(c->latency.count, c->completed);
    }
    EXPECT_EQ(st.latency_sensitive.offered + st.batch.offered,
              st.base.offered);
    EXPECT_EQ(st.latency_sensitive.completed + st.batch.completed,
              st.base.completed);
}

/** A kernel that increments every byte (runtime hook tests). */
runtime::Bytes
bump(const runtime::Bytes &in, kernels::OpCount &ops)
{
    runtime::Bytes out = in;
    for (auto &b : out)
        ++b;
    ops.int_ops += out.size();
    ops.bytes_read += in.size();
    ops.bytes_written += out.size();
    return out;
}

} // namespace

// ------------------------------------------------------------------
// Serving disabled is sys::simulateOverload. Both entry points are
// pinned to literal results of the open-loop engine (doubles as hex
// floats), so any drift in it shows here.

TEST(ServeDifferential, DisabledMatchesOverloadEngineFaultFree)
{
    sys::OverloadConfig oc;
    oc.load = 2.0;
    const ServeStats serve = testutil::expectOverloadPinned(
        oc, sys::OverloadStats{
                .offered = 160, .completed = 160,
                .goodput_rps = 0x1.cfcd7856d0ff3p+18,
                .mean_latency_ms = 0x1.6f672b884406ep-4,
                .p99_latency_ms = 0x1.5e5082cf52b91p-3,
                .makespan_ms = 0x1.58f96e158750cp-2,
                .queue_overflows = 64, .ring_credit_window = 32768,
                .max_ring_high_water = 32768,
                .completed_latency = {160, 0x1.6f672b884406ep-4,
                                      0x1.66dbd72bcb5fep-4,
                                      0x1.5e5082cf52b91p-3,
                                      0x1.5e5082cf52b91p-3},
                .shed_latency = {}, .timeout_latency = {},
            });
    EXPECT_EQ(serve.hedges_issued, 0u);
    EXPECT_EQ(serve.budget_granted, 0u);
    EXPECT_EQ(serve.brownout_escalations, 0u);
}

TEST(ServeDifferential, DisabledMatchesOverloadEngineUnderFaults)
{
    sys::OverloadConfig oc;
    oc.load = 2.0;
    oc.fault_rate = 0.1;
    testutil::expectOverloadPinned(
        oc, sys::OverloadStats{
                .offered = 160, .completed = 160,
                .goodput_rps = 0x1.8248148ff8b22p+11,
                .mean_latency_ms = 0x1.10fb572b65278p+0,
                .p99_latency_ms = 0x1.91ebdd7351f6p+5,
                .makespan_ms = 0x1.9e34a46d3ac99p+5,
                .queue_overflows = 71, .ring_credit_window = 32768,
                .max_ring_high_water = 32768, .retries = 20,
                .watchdog_timeouts = 3, .irq_notifications = 160,
                .completed_latency = {160, 0x1.10fb572b65278p+0,
                                      0x1.9c2c1b10fd7e4p-4,
                                      0x1.91ebdd7351f6p+5,
                                      0x1.9d523831a84c4p+5},
                .shed_latency = {}, .timeout_latency = {},
            });
}

TEST(ServeDifferential, DisabledMatchesOverloadEngineProtected)
{
    sys::OverloadConfig oc;
    oc.load = 3.0;
    oc.fault_rate = 0.1;
    oc.robust = protectedConfig();
    oc.deadline_factor = 16;
    // The protected point exercises the protection machinery: sheds,
    // bounded rings, deadline timeouts.
    testutil::expectOverloadPinned(
        oc, sys::OverloadStats{
                .offered = 160, .completed = 57, .shed = 97,
                .timed_out = 6, .goodput_rps = 0x1.2999058268e9ap+18,
                .mean_latency_ms = 0x1.b96b8fa9d7dd3p-6,
                .p99_latency_ms = 0x1.fd74b113191dap-6,
                .makespan_ms = 0x1.7f1142bfe5802p-3,
                .ring_credit_window = 32768,
                .max_ring_high_water = 20480, .watchdog_timeouts = 1,
                .irq_notifications = 57,
                .completed_latency = {57, 0x1.b96b8fa9d7dd3p-6,
                                      0x1.fd748eb7014d5p-6,
                                      0x1.fd74b113191dap-6,
                                      0x1.fd74b113191dap-6},
                .shed_latency = {97},
                .timeout_latency = {6, 0x1.872322fe15279p-5,
                                    0x1.f54378fb94607p-6,
                                    0x1.116a8b8f14db6p-3,
                                    0x1.116a8b8f14db6p-3},
            });
}

TEST(ServeDifferential, DisabledMatchesOverloadEngineAcrossSeeds)
{
    const std::pair<std::uint64_t, sys::OverloadStats> pins[] = {
        {2, {.offered = 160, .completed = 36, .failed = 124,
             .goodput_rps = 0x1.5c825d18ab867p+9,
             .mean_latency_ms = 0x1.74deec36e8f74p+2,
             .p99_latency_ms = 0x1.9d1c5068b45aap+5,
             .makespan_ms = 0x1.9d30402cebc66p+5, .queue_overflows = 5,
             .ring_credit_window = 32768, .max_ring_high_water = 32768,
             .retries = 34, .watchdog_timeouts = 4,
             .irq_notifications = 36,
             .completed_latency = {36, 0x1.74deec36e8f74p+2,
                                   0x1.dede4b4f5eb7fp-3,
                                   0x1.9d1c5068b45aap+5,
                                   0x1.9d1c5068b45aap+5},
             .shed_latency = {}, .timeout_latency = {}}},
        {3, {.offered = 160, .completed = 83, .failed = 76,
             .timed_out = 1, .goodput_rps = 0x1.9771442f7a017p+9,
             .mean_latency_ms = 0x1.e43fc988e7f8bp+2,
             .p99_latency_ms = 0x1.9d89c2cf3f654p+5,
             .makespan_ms = 0x1.976b64b069fbep+6, .queue_overflows = 42,
             .ring_credit_window = 32768, .max_ring_high_water = 32768,
             .retries = 76, .watchdog_timeouts = 15,
             .irq_notifications = 83,
             .completed_latency = {83, 0x1.e43fc988e7f8bp+2,
                                   0x1.8563504b35cd3p-4,
                                   0x1.9d89c2cf3f654p+5,
                                   0x1.9d89c2cf3f654p+5},
             .shed_latency = {},
             .timeout_latency = {1, 0x1.96cd531cb2934p+6,
                                 0x1.96cd531cb2934p+6,
                                 0x1.96cd531cb2934p+6,
                                 0x1.96cd531cb2934p+6}}},
        {17, {.offered = 160, .completed = 98, .failed = 61,
              .timed_out = 1, .goodput_rps = 0x1.e19c5ebfef06ep+9,
              .mean_latency_ms = 0x1.62c2c9e346208p+3,
              .p99_latency_ms = 0x1.96ba439476bc7p+6,
              .makespan_ms = 0x1.96f7b4a7088f7p+6, .queue_overflows = 68,
              .ring_credit_window = 32768, .max_ring_high_water = 32768,
              .retries = 101, .watchdog_timeouts = 25,
              .irq_notifications = 98,
              .completed_latency = {98, 0x1.62c2c9e346208p+3,
                                    0x1.0f4c68dbae089p-2,
                                    0x1.96ba439476bc7p+6,
                                    0x1.96ba439476bc7p+6},
              .shed_latency = {},
              .timeout_latency = {1, 0x1.9ce528b931ba6p+5,
                                  0x1.9ce528b931ba6p+5,
                                  0x1.9ce528b931ba6p+5,
                                  0x1.9ce528b931ba6p+5}}},
    };
    for (const auto &[seed, pin] : pins) {
        SCOPED_TRACE("seed " + std::to_string(seed));
        sys::OverloadConfig oc;
        oc.seed = seed;
        oc.load = 1.5;
        oc.fault_rate = 0.5;
        expectClassConservation(testutil::expectOverloadPinned(oc, pin));
    }
}

// ------------------------------------------------------------------
// Determinism: byte-identical at any --jobs level, including under
// randomized fault plans, and across repeat runs.

TEST(ServeDeterminism, JobsInvariantUnderRandomizedFaultPlans)
{
    constexpr std::size_t kScenarios = 6;
    const auto fn = std::function<std::vector<double>(
        exec::ScenarioContext &, std::size_t)>(
        [](exec::ScenarioContext &, std::size_t i) {
            ServeConfig cfg;
            cfg.enabled = true;
            cfg.overload.requests = 96;
            cfg.overload.seed = 100 + i; // randomized fault plan per
                                         // scenario (seeded streams)
            cfg.overload.load = 0.5 + 0.5 * static_cast<double>(i);
            cfg.overload.fault_rate = i % 2 ? 0.3 : 0.1;
            cfg.trace.shape = static_cast<TraceShape>(i % 4);
            cfg.hedge.enabled = true;
            cfg.budget.enabled = true;
            cfg.brownout.enabled = true;
            return flatten(simulateServing(cfg));
        });

    exec::ScenarioRunner serial(1), pooled(8);
    const auto a = serial.map<std::vector<double>>(kScenarios, fn);
    const auto b = pooled.map<std::vector<double>>(kScenarios, fn);
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t i = 0; i < a.size(); ++i) {
        ASSERT_EQ(a[i].size(), b[i].size()) << "scenario " << i;
        for (std::size_t k = 0; k < a[i].size(); ++k)
            EXPECT_EQ(a[i][k], b[i][k])
                << "scenario " << i << " field " << k;
    }
}

TEST(ServeDeterminism, RepeatRunsAreByteIdentical)
{
    ServeConfig cfg;
    cfg.enabled = true;
    cfg.overload.load = 2.0;
    cfg.overload.fault_rate = 0.1;
    cfg.hedge.enabled = true;
    cfg.budget.enabled = true;
    cfg.brownout.enabled = true;

    const std::vector<double> a = flatten(simulateServing(cfg));
    const std::vector<double> b = flatten(simulateServing(cfg));
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t k = 0; k < a.size(); ++k)
        EXPECT_EQ(a[k], b[k]) << "field " << k;
}

// ------------------------------------------------------------------
// Trace generation.

TEST(ServeTrace, SteadyReproducesTheUniformClock)
{
    TraceConfig tc;
    const auto arr = generateArrivals(tc, 32, 1000, 4096, 32768, 1);
    ASSERT_EQ(arr.size(), 32u);
    for (unsigned i = 0; i < arr.size(); ++i) {
        EXPECT_EQ(arr[i].at, static_cast<Tick>(i) * 1000);
        EXPECT_EQ(arr[i].bytes, 4096u);
        EXPECT_EQ(arr[i].tenant, i % tc.tenants);
    }
}

TEST(ServeTrace, ClassSplitFollowsBatchFraction)
{
    TraceConfig tc;
    tc.tenants = 4;
    tc.batch_fraction = 0.5;
    EXPECT_EQ(classOf(tc, 0), SloClass::LatencySensitive);
    EXPECT_EQ(classOf(tc, 1), SloClass::LatencySensitive);
    EXPECT_EQ(classOf(tc, 2), SloClass::Batch);
    EXPECT_EQ(classOf(tc, 3), SloClass::Batch);

    tc.batch_fraction = 0;
    for (unsigned t = 0; t < 4; ++t)
        EXPECT_EQ(classOf(tc, t), SloClass::LatencySensitive);

    tc.batch_fraction = 1.0;
    for (unsigned t = 0; t < 4; ++t)
        EXPECT_EQ(classOf(tc, t), SloClass::Batch);
}

TEST(ServeTrace, DiurnalTroughStretchesGaps)
{
    TraceConfig tc;
    tc.shape = TraceShape::Diurnal;
    tc.diurnal_depth = 0.5;
    tc.diurnal_cycles = 1;
    const auto arr = generateArrivals(tc, 100, 1000, 4096, 32768, 1);
    // Peak gap (trace start) is the baseline; the trough gap (middle
    // of the single cycle) is baseline / (1 - depth) = 2x.
    const Tick first_gap = arr[1].at - arr[0].at;
    const Tick mid_gap = arr[50].at - arr[49].at;
    EXPECT_EQ(first_gap, 1000u);
    EXPECT_GT(mid_gap, static_cast<Tick>(1.9 * 1000));
    // Arrival times are strictly monotone.
    for (std::size_t i = 1; i < arr.size(); ++i)
        EXPECT_GT(arr[i].at, arr[i - 1].at);
}

TEST(ServeTrace, FlashCrowdCompressesItsWindow)
{
    TraceConfig tc;
    tc.shape = TraceShape::FlashCrowd;
    tc.flash_start = 0.5;
    tc.flash_length = 0.25;
    tc.flash_multiplier = 4.0;
    const auto arr = generateArrivals(tc, 100, 1000, 4096, 32768, 1);
    EXPECT_EQ(arr[10].at - arr[9].at, 1000u);  // before the crowd
    EXPECT_EQ(arr[60].at - arr[59].at, 250u);  // inside: 4x faster
    EXPECT_EQ(arr[90].at - arr[89].at, 1000u); // after
}

TEST(ServeTrace, HeavyTailSizesBoundedAndSeeded)
{
    TraceConfig tc;
    tc.shape = TraceShape::HeavyTail;
    tc.tail_max_multiplier = 4.0;
    const auto a = generateArrivals(tc, 200, 1000, 4096, 32768, 7);
    const auto b = generateArrivals(tc, 200, 1000, 4096, 32768, 7);
    const auto c = generateArrivals(tc, 200, 1000, 4096, 32768, 8);
    bool any_elephant = false, differs = false;
    for (std::size_t i = 0; i < a.size(); ++i) {
        EXPECT_EQ(a[i].at, static_cast<Tick>(i) * 1000); // steady clock
        EXPECT_GE(a[i].bytes, 4096u);   // multiplier >= 1
        EXPECT_LE(a[i].bytes, 16384u);  // request_bytes * max_mult
        EXPECT_EQ(a[i].bytes, b[i].bytes); // same seed, same trace
        any_elephant |= a[i].bytes > 2 * 4096;
        differs |= a[i].bytes != c[i].bytes;
    }
    EXPECT_TRUE(any_elephant);
    EXPECT_TRUE(differs); // different seed, different sizes
}

// ------------------------------------------------------------------
// Retry budget token bucket.

TEST(ServeBudget, TokenBucketAccountingIsExact)
{
    RetryBudgetConfig bc;
    bc.per_request = 0.5;
    bc.burst = 100;
    RetryBudget budget(bc, 2);

    EXPECT_FALSE(budget.tryConsume(0)); // empty bucket fails fast
    budget.onOffered(0);
    budget.onOffered(0); // 1.0 token
    budget.onOffered(1); // tenant 1: 0.5 — tenants are independent
    EXPECT_TRUE(budget.tryConsume(0));
    EXPECT_FALSE(budget.tryConsume(0)); // spent
    EXPECT_FALSE(budget.tryConsume(1)); // half a token is not a token
    EXPECT_EQ(budget.tokens(0), 0.0);
    EXPECT_EQ(budget.tokens(1), 0.5);
    EXPECT_EQ(budget.granted(), 1u);
    EXPECT_EQ(budget.denied(), 3u);
}

TEST(ServeBudget, BurstCapsAccrual)
{
    RetryBudgetConfig bc;
    bc.per_request = 1.0;
    bc.burst = 2.0;
    RetryBudget budget(bc, 1);
    for (int i = 0; i < 10; ++i)
        budget.onOffered(0);
    EXPECT_EQ(budget.tokens(0), 2.0); // clamped at burst
    EXPECT_TRUE(budget.tryConsume(0));
    EXPECT_TRUE(budget.tryConsume(0));
    EXPECT_FALSE(budget.tryConsume(0));
}

// ------------------------------------------------------------------
// Runtime retry-policy hook.

TEST(ServeRuntimeHook, DenyingPolicyFailsFastAndCounts)
{
    runtime::Platform plat;
    const auto id =
        plat.addAccelerator("a0", accel::Domain::Crypto, bump);
    fault::FaultSpec spec;
    spec.seed = 7;
    spec.kernel_fail_prob = 1.0;
    spec.unhealthy_threshold = 1'000'000; // no health fast-fail
    fault::FaultPlan plan(spec);
    plat.setFaultPlan(&plan);

    std::uint64_t seen_tag = 0;
    plat.setRetryPolicy([&seen_tag](runtime::Context &ctx,
                                    runtime::DeviceId, unsigned) {
        seen_tag = ctx.tag();
        return false;
    });

    runtime::Context ctx = plat.createContext();
    ctx.setTag(42);
    const auto in = ctx.createBuffer(runtime::Bytes(64, 1));
    const auto out = ctx.createBuffer();
    const runtime::Event ev = ctx.queue(id).enqueueKernel(in, out);
    ctx.finish();

    EXPECT_EQ(ev.status(), runtime::Status::Failed);
    EXPECT_EQ(ev.retries(), 0u); // denied before the first retry
    EXPECT_EQ(seen_tag, 42u);    // the policy sees the tenant tag
    EXPECT_EQ(plat.faultStats(id).retries_denied, 1u);
    EXPECT_EQ(plat.faultStats(id).attempts, 1u);
    EXPECT_EQ(plat.faultStats(id).retries, 0u);
}

// The veto covers every retry the runtime schedules, including a
// chain descriptor's, standalone or as a batch member: one failing
// Kernel descriptor under a deny-all policy makes one attempt, exactly
// like the enqueueKernel command above.
namespace
{

void
expectChainRetryDenied(bool in_batch)
{
    runtime::Platform plat;
    const auto id = plat.addAccelerator("a0", accel::Domain::Crypto, bump);
    fault::FaultSpec spec;
    spec.seed = 7;
    spec.kernel_fail_prob = 1.0;
    spec.unhealthy_threshold = 1'000'000; // no health fast-fail
    fault::FaultPlan plan(spec);
    plat.setFaultPlan(&plan);

    unsigned asked = 0;
    std::uint64_t seen_tag = 0;
    plat.setRetryPolicy([&](runtime::Context &ctx, runtime::DeviceId,
                            unsigned next_attempt) {
        ++asked;
        seen_tag = ctx.tag();
        EXPECT_EQ(next_attempt, 1u);
        return false;
    });

    runtime::Context ctx = plat.createContext();
    ctx.setTag(42);
    runtime::ChainOp op;
    op.kind = runtime::ChainOp::Kind::Kernel;
    op.device = id;
    op.in = ctx.createBuffer(runtime::Bytes(64, 1));
    op.out = ctx.createBuffer();
    if (in_batch) {
        runtime::BatchOp member;
        member.kind = runtime::BatchOp::Kind::Chain;
        member.chain = {op};
        const runtime::BatchEvent bev = runtime::submitBatch(ctx, {member});
        ctx.finish();
        EXPECT_EQ(bev.status(), runtime::Status::Failed);
        EXPECT_EQ(bev.records()[0].retries, 0u);
        EXPECT_EQ(bev.records()[0].chain_failed_index, 0);
    } else {
        const runtime::ChainEvent ev = runtime::enqueueChain(ctx, {op});
        ctx.finish();
        EXPECT_EQ(ev.status(), runtime::Status::Failed);
        EXPECT_EQ(ev.retries(), 0u);
        EXPECT_EQ(ev.failedIndex(), 0);
        EXPECT_EQ(ev.records()[0].attempts, 1u);
    }
    EXPECT_EQ(asked, 1u);
    EXPECT_EQ(seen_tag, 42u);
    EXPECT_EQ(plat.faultStats(id).retries_denied, 1u);
    EXPECT_EQ(plat.faultStats(id).attempts, 1u);
    EXPECT_EQ(plat.faultStats(id).retries, 0u);
}

} // namespace

TEST(ServeRuntimeHook, DenyingPolicyFailsChainDescriptorsFast)
{
    expectChainRetryDenied(false);
}

TEST(ServeRuntimeHook, DenyingPolicyFailsBatchChainMembersFast)
{
    expectChainRetryDenied(true);
}

TEST(ServeRuntimeHook, GrantingPolicyIsLegacyExact)
{
    const auto run = [](bool install) {
        runtime::Platform plat;
        const auto id =
            plat.addAccelerator("a0", accel::Domain::Crypto, bump);
        fault::FaultSpec spec;
        spec.seed = 7;
        spec.kernel_fail_prob = 1.0;
        spec.unhealthy_threshold = 1'000'000;
        fault::FaultPlan plan(spec);
        plat.setFaultPlan(&plan);
        if (install)
            plat.setRetryPolicy([](runtime::Context &,
                                   runtime::DeviceId,
                                   unsigned) { return true; });
        runtime::Context ctx = plat.createContext();
        const auto in = ctx.createBuffer(runtime::Bytes(64, 1));
        const auto out = ctx.createBuffer();
        const runtime::Event ev = ctx.queue(id).enqueueKernel(in, out);
        ctx.finish();
        return std::make_tuple(ev.status(), ev.retries(),
                               plat.faultStats(id).attempts,
                               plat.now());
    };
    // An always-grant policy changes nothing: same status, same retry
    // count, same attempt count, same simulated end time.
    EXPECT_EQ(run(true), run(false));
}

// ------------------------------------------------------------------
// Hedged requests.

TEST(ServeHedge, RescuesHungRequestsAndCutsTheTail)
{
    ServeConfig plain;
    plain.enabled = true;
    plain.overload.load = 1.0;
    plain.overload.fault_rate = 0.1;
    ServeConfig hedged = plain;
    hedged.hedge.enabled = true;

    const ServeStats p = simulateServing(plain);
    const ServeStats h = simulateServing(hedged);
    EXPECT_GT(h.hedges_issued, 0u);
    EXPECT_GT(h.hedges_won, 0u);
    // Hang-stalled requests settle from the healthy duplicate long
    // before the watchdog: the completed-latency tail collapses.
    EXPECT_LT(h.latency_sensitive.latency.p999_ms,
              p.latency_sensitive.latency.p999_ms);
    EXPECT_GE(h.base.completed, p.base.completed);
}

TEST(ServeHedge, CancellationNeverDoubleCounts)
{
    for (const double load : {1.0, 2.0}) {
        for (const double fault : {0.1, 0.5}) {
            ServeConfig cfg;
            cfg.enabled = true;
            cfg.overload.load = load;
            cfg.overload.fault_rate = fault;
            cfg.hedge.enabled = true;
            const ServeStats st = simulateServing(cfg);
            // Conservation per class and overall: a request settles in
            // exactly one terminal bucket even when both arms run.
            expectClassConservation(st);
            EXPECT_EQ(st.base.offered,
                      static_cast<std::uint64_t>(
                          cfg.overload.requests));
            EXPECT_EQ(st.base.offered,
                      st.base.completed + st.base.shed +
                          st.base.failed + st.base.timed_out);
            // Wins and cancellations are hedges, not extra requests.
            EXPECT_LE(st.hedges_won, st.hedges_issued);
            EXPECT_LE(st.hedges_cancelled, st.hedges_issued);
        }
    }
}

TEST(ServeHedge, ZeroBudgetDeniesEveryHedge)
{
    ServeConfig cfg;
    cfg.enabled = true;
    cfg.overload.load = 1.0;
    cfg.overload.fault_rate = 0.1;
    cfg.hedge.enabled = true;
    cfg.budget.enabled = true;
    cfg.budget.per_request = 0; // nothing ever accrues

    const ServeStats st = simulateServing(cfg);
    EXPECT_EQ(st.hedges_issued, 0u);
    EXPECT_GT(st.hedges_denied, 0u); // triggers fired, budget refused
    EXPECT_EQ(st.budget_granted, 0u);
    EXPECT_GT(st.budget_denied, 0u);
    expectClassConservation(st);
}

// ------------------------------------------------------------------
// Retry-storm amplification and the exact budget bound.

TEST(ServeAmplification, UnbudgetedAttemptsGrowSuperlinearlyWithLoad)
{
    const auto attempts = [](double load) {
        ServeConfig cfg;
        cfg.enabled = true;
        cfg.overload.load = load;
        cfg.overload.fault_rate = 0.1;
        cfg.hedge.enabled = true; // unbudgeted hedging + retries
        return simulateServing(cfg).total_attempts;
    };
    const std::uint64_t a05 = attempts(0.5);
    const std::uint64_t a10 = attempts(1.0);
    const std::uint64_t a20 = attempts(2.0);
    // Offered work is constant; attempts still accelerate with load:
    // each doubling adds more attempts than the previous one.
    EXPECT_GT(a10, a05);
    EXPECT_GT(a20, a10);
    EXPECT_GT(a20 - a10, a10 - a05);
}

TEST(ServeAmplification, BudgetBoundsAttemptsExactly)
{
    // All-fail faults, no hangs, no health fast-fail: every command
    // retries until something says stop.
    ServeConfig cfg;
    cfg.enabled = true;
    cfg.overload.requests = 160;
    cfg.overload.load = 2.0;
    cfg.overload.fault_rate = 1.0;
    cfg.fault_hang_fraction = 0;
    cfg.unhealthy_threshold = 1'000'000;

    // Unbudgeted: the runtime retry budget is the only stop — every
    // command makes exactly 1 + max_retries attempts.
    const ServeStats unbudgeted = simulateServing(cfg);
    const std::uint64_t offered = unbudgeted.base.offered;
    EXPECT_EQ(offered, 160u);
    EXPECT_EQ(unbudgeted.total_attempts, offered * 4); // max_retries 3

    // Budgeted at one token per offered request: total attempts are
    // offered * (1 + budget), exactly — every accrued token is spent
    // by a still-hungry command, and nothing beyond them is granted.
    ServeConfig budgeted = cfg;
    budgeted.budget.enabled = true;
    budgeted.budget.per_request = 1.0;
    budgeted.budget.burst = 1e9;
    const ServeStats b = simulateServing(budgeted);
    EXPECT_EQ(b.base.offered, offered);
    EXPECT_EQ(b.total_attempts, offered * 2); // offered * (1 + 1.0)
    EXPECT_EQ(b.budget_granted, offered);
    EXPECT_GT(b.retries_denied, 0u);

    // Half a token per request, even per-tenant counts: still exact.
    ServeConfig half = cfg;
    half.budget.enabled = true;
    half.budget.per_request = 0.5;
    half.budget.burst = 1e9;
    const ServeStats h = simulateServing(half);
    EXPECT_EQ(h.total_attempts, offered + offered / 2);
}

// ------------------------------------------------------------------
// Brownout controller.

TEST(ServeBrownout, LadderEscalatesOneLevelPerStreak)
{
    BrownoutController c(800, 200, 3, 3);
    EXPECT_EQ(c.level(), BrownoutLevel::Normal);
    c.evaluate(900);
    c.evaluate(900);
    EXPECT_EQ(c.level(), BrownoutLevel::Normal); // streak of 2 < 3
    EXPECT_EQ(c.evaluate(900), BrownoutLevel::ShedBatch);
    c.evaluate(900);
    c.evaluate(900);
    EXPECT_EQ(c.evaluate(900), BrownoutLevel::Degraded);
    c.evaluate(900);
    c.evaluate(900);
    EXPECT_EQ(c.evaluate(900), BrownoutLevel::FailFast);
    // The ladder tops out; further pressure holds FailFast.
    c.evaluate(900);
    c.evaluate(900);
    EXPECT_EQ(c.evaluate(900), BrownoutLevel::FailFast);
    EXPECT_EQ(c.escalations(), 3u);
    EXPECT_EQ(c.deescalations(), 0u);
}

TEST(ServeBrownout, RecoversInReverseOrderWithHysteresis)
{
    BrownoutController c(800, 200, 1, 2);
    c.evaluate(900); // -> ShedBatch
    c.evaluate(900); // -> Degraded
    EXPECT_EQ(c.level(), BrownoutLevel::Degraded);
    c.evaluate(100);
    EXPECT_EQ(c.level(), BrownoutLevel::Degraded); // streak of 1 < 2
    EXPECT_EQ(c.evaluate(100), BrownoutLevel::ShedBatch);
    c.evaluate(100);
    EXPECT_EQ(c.evaluate(100), BrownoutLevel::Normal);
    EXPECT_EQ(c.escalations(), 2u);
    EXPECT_EQ(c.deescalations(), 2u);
}

TEST(ServeBrownout, DeadBandHoldsLevelAndResetsStreaks)
{
    BrownoutController c(800, 200, 2, 2);
    c.evaluate(900);
    c.evaluate(500); // dead band: resets the escalation streak
    c.evaluate(900);
    EXPECT_EQ(c.level(), BrownoutLevel::Normal); // never two in a row
    c.evaluate(900);
    EXPECT_EQ(c.level(), BrownoutLevel::ShedBatch);
    c.evaluate(100);
    c.evaluate(500); // dead band: resets the recovery streak too
    c.evaluate(100);
    EXPECT_EQ(c.level(), BrownoutLevel::ShedBatch);
    EXPECT_EQ(c.escalations(), 1u);
    EXPECT_EQ(c.deescalations(), 0u);
}

TEST(ServeBrownout, ShedsBatchClassFirstUnderSustainedOverload)
{
    ServeConfig cfg;
    cfg.enabled = true;
    cfg.overload.requests = 240;
    cfg.overload.load = 3.0;
    cfg.brownout.enabled = true;

    const ServeStats st = simulateServing(cfg);
    EXPECT_GT(st.brownout_escalations, 0u);
    EXPECT_GT(st.brownout_shed_batch, 0u);
    EXPECT_GT(st.batch.shed, 0u);
    // Batch degrades before latency-sensitive: LS is only shed once
    // the ladder reaches FailFast.
    if (st.brownout_shed_all == 0) {
        EXPECT_EQ(st.latency_sensitive.shed, 0u);
    }
    expectClassConservation(st);

    // Deterministic: the same config replays the same ladder.
    const ServeStats again = simulateServing(cfg);
    EXPECT_EQ(st.brownout_escalations, again.brownout_escalations);
    EXPECT_EQ(st.brownout_deescalations, again.brownout_deescalations);
    EXPECT_EQ(st.brownout_shed_batch, again.brownout_shed_batch);
}

// ------------------------------------------------------------------
// SLO accounting, the Serve trace category, and the headline contract.

TEST(ServeSlo, AttainmentIsBoundedAndPerfectWhenIdle)
{
    ServeConfig cfg;
    cfg.enabled = true;
    cfg.overload.load = 0.5;
    const ServeStats st = simulateServing(cfg);
    EXPECT_EQ(st.latency_sensitive.slo_attainment, 1.0);
    EXPECT_EQ(st.batch.slo_attainment, 1.0);
    EXPECT_GT(st.latency_sensitive.slo_target_ms, 0.0);
    // Batch tolerates more than latency-sensitive by construction.
    EXPECT_GT(st.batch.slo_target_ms,
              st.latency_sensitive.slo_target_ms);

    ServeConfig hot = cfg;
    hot.overload.load = 3.0;
    hot.overload.fault_rate = 0.3;
    const ServeStats hs = simulateServing(hot);
    for (const ClassStats *c : {&hs.latency_sensitive, &hs.batch}) {
        EXPECT_GE(c->slo_attainment, 0.0);
        EXPECT_LE(c->slo_attainment, 1.0);
    }
    EXPECT_LT(hs.latency_sensitive.slo_attainment, 1.0);
}

TEST(ServeTraceCategory, ServeCategoryIsNamed)
{
    EXPECT_STREQ(trace::toString(trace::Category::Serve), "serve");
}

TEST(ServeContract, HeadlineTailToleranceAtTwoXLoadTenPctFaults)
{
    const auto run = [](bool hedge, bool budget_and_brownout) {
        ServeConfig cfg;
        cfg.enabled = true;
        cfg.overload.requests = 240;
        cfg.overload.load = 2.0;
        cfg.overload.fault_rate = 0.1;
        cfg.hedge.enabled = hedge;
        if (budget_and_brownout) {
            cfg.budget.enabled = true;
            cfg.budget.per_request = 0.5;
            cfg.brownout.enabled = true;
        }
        return simulateServing(cfg);
    };
    const ServeStats plain = run(false, false);
    const ServeStats hedged = run(true, false);
    const ServeStats tail = run(true, true);

    // Hedging + budgets + brownout cut the latency-sensitive p999...
    EXPECT_LT(tail.latency_sensitive.latency.p999_ms,
              plain.latency_sensitive.latency.p999_ms);
    // ...while bounding total attempts below the unbudgeted baseline.
    EXPECT_LT(tail.total_attempts, hedged.total_attempts);
    // And the budget genuinely bit: denials happened.
    EXPECT_GT(tail.budget_denied, 0u);
}
