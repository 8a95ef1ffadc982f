/**
 * @file
 * The parallel scenario engine's contract, end to end:
 *
 *  - ThreadPool: inline 0-worker mode, completion draining, stealing
 *    bookkeeping;
 *  - jobs resolution: --jobs flag parsing and the DMX_JOBS fallback;
 *  - Rng splittable streams: stream 0 is the legacy generator,
 *    sibling streams of one seed are uncorrelated;
 *  - ScenarioRunner ordering: results commit in submission order for
 *    any (workers, scenarios, duration) combination, including the
 *    0-worker and 0-scenario edges, and exceptions surface at the
 *    right slot;
 *  - the differential harness: a matrix of random chain configs
 *    (half under an installed FaultPlan) must produce byte-identical
 *    RunStats ticks, JSON metric dumps and trace-category totals at
 *    --jobs 1 and --jobs 8.
 */

#include <gtest/gtest.h>

#include <array>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdlib>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <thread>

#include "common/random.hh"
#include "common/stats.hh"
#include "exec/scenario.hh"
#include "exec/thread_pool.hh"
#include "fault/fault.hh"
#include "sys/multi_tenant.hh"
#include "sys/system.hh"
#include "trace/trace.hh"
#include "util_random_chain.hh"

using namespace dmx;

// ------------------------------------------------------------------
// ThreadPool

TEST(ThreadPool, ZeroWorkersRunsInline)
{
    exec::ThreadPool pool(0);
    EXPECT_EQ(pool.workers(), 0u);
    int ran_on_caller = 0;
    const std::thread::id me = std::this_thread::get_id();
    pool.submit([&] {
        if (std::this_thread::get_id() == me)
            ++ran_on_caller;
    });
    // Inline mode: the task already ran, on this thread.
    EXPECT_EQ(ran_on_caller, 1);
    EXPECT_EQ(pool.executedCount(), 1u);
    EXPECT_EQ(pool.stolenCount(), 0u);
}

TEST(ThreadPool, WaitDrainsEverySubmittedTask)
{
    exec::ThreadPool pool(4);
    std::atomic<int> done{0};
    for (int i = 0; i < 200; ++i)
        pool.submit([&done] { done.fetch_add(1); });
    pool.wait();
    EXPECT_EQ(done.load(), 200);
    EXPECT_EQ(pool.executedCount(), 200u);
}

TEST(ThreadPool, WaitOnIdlePoolReturnsImmediately)
{
    exec::ThreadPool pool(2);
    pool.wait();
    EXPECT_EQ(pool.executedCount(), 0u);
}

TEST(ThreadPool, UnevenTasksAllComplete)
{
    // A few long tasks at the front of some deques must not strand the
    // short ones queued behind them (that is what stealing is for).
    exec::ThreadPool pool(4);
    std::atomic<int> done{0};
    for (int i = 0; i < 64; ++i) {
        pool.submit([&done, i] {
            if (i % 16 == 0)
                std::this_thread::sleep_for(std::chrono::milliseconds(20));
            done.fetch_add(1);
        });
    }
    pool.wait();
    EXPECT_EQ(done.load(), 64);
}

TEST(ThreadPool, SubmitThenWaitNeverLosesAWakeup)
{
    // ScenarioRunner's ordered commit: submit one task, wait until it
    // ran, repeat. The caller spins, so its next submit lands while
    // the worker is on its way back to sleep; a submit between the
    // worker's predicate check and its wait must still wake it, or the
    // caller waits forever. The rounds run on a helper thread; no
    // progress for 10 s is a lost wakeup, so the test fails - and
    // re-notifies the worker to unwedge the helper - instead of
    // hanging ctest.
    exec::ThreadPool pool(1);
    std::atomic<int> rounds{0};
    std::atomic<bool> stop{false};
    std::atomic<bool> finished{false};
    std::thread caller([&] {
        for (int r = 0; r < 200000 && !stop.load(); ++r) {
            std::atomic<bool> ran{false};
            pool.submit([&ran] { ran.store(true); });
            while (!ran.load()) {
            }
            rounds.store(r + 1, std::memory_order_relaxed);
        }
        finished.store(true);
    });
    bool hung = false;
    int seen = 0;
    auto last_progress = std::chrono::steady_clock::now();
    while (!finished.load()) {
        std::this_thread::sleep_for(std::chrono::milliseconds(10));
        const auto now = std::chrono::steady_clock::now();
        if (rounds.load() != seen) {
            seen = rounds.load();
            last_progress = now;
        } else if (now - last_progress > std::chrono::seconds(10)) {
            hung = true;
            stop.store(true);
            pool.submit([] {}); // a fresh notify wakes the lost worker
            last_progress = now;
        }
    }
    caller.join();
    EXPECT_FALSE(hung) << "a submitted task sat queued with its only "
                          "worker asleep (lost wakeup) after "
                       << seen << " rounds";
}

// ------------------------------------------------------------------
// Jobs resolution

TEST(ResolveJobs, ExplicitRequestWins)
{
    setenv("DMX_JOBS", "3", 1);
    EXPECT_EQ(exec::resolveJobs(5), 5u);
    unsetenv("DMX_JOBS");
}

TEST(ResolveJobs, EnvironmentFallback)
{
    setenv("DMX_JOBS", "3", 1);
    EXPECT_EQ(exec::resolveJobs(0), 3u);
    unsetenv("DMX_JOBS");
}

TEST(ResolveJobs, DefaultsToAtLeastOne)
{
    unsetenv("DMX_JOBS");
    EXPECT_GE(exec::resolveJobs(0), 1u);
}

TEST(ParseJobsFlag, FindsFlagAnywhere)
{
    const char *argv[] = {"prog", "--json", "out.json", "--jobs", "7"};
    EXPECT_EQ(exec::parseJobsFlag(5, const_cast<char **>(argv)), 7u);
}

TEST(ParseJobsFlag, AbsentMeansZero)
{
    const char *argv[] = {"prog", "--json", "out.json"};
    EXPECT_EQ(exec::parseJobsFlag(3, const_cast<char **>(argv)), 0u);
}

// dmx_fatal throws std::runtime_error, so a rejected count is observable
// in-process. None of these tests builds a runner from what it parses.

TEST(ParseJobsFlag, RejectsCountsThatDoNotFitAWorkerCount)
{
    // 2^32 + 1 and 2^32 must not wrap to 1 worker or to 0 ("auto"),
    // and counts above the 1024-worker ceiling are rejected.
    for (const char *bad : {"4294967297", "4294967296", "4294967295",
                            "40000", "1025", "0", "-1", "+4", " 4", "4x",
                            "0x4", ""}) {
        SCOPED_TRACE(bad);
        const char *argv[] = {"prog", "--jobs", bad};
        EXPECT_THROW(exec::parseJobsFlag(3, const_cast<char **>(argv)),
                     std::runtime_error);
    }
    const char *argv[] = {"prog", "--jobs", "1024"};
    EXPECT_EQ(exec::parseJobsFlag(3, const_cast<char **>(argv)), 1024u);
}

TEST(ResolveJobs, RejectsEnvironmentCountsThatDoNotFit)
{
    // DMX_JOBS=4294967296 must not wrap to 0 workers, and counts above
    // the 1024-worker ceiling are rejected.
    for (const char *bad : {"4294967296", "4294967297", "4294967295",
                            "40000", "1025", "0", "-2", "3 ", ""}) {
        SCOPED_TRACE(bad);
        setenv("DMX_JOBS", bad, 1);
        EXPECT_THROW(exec::resolveJobs(0), std::runtime_error);
    }
    setenv("DMX_JOBS", "1024", 1);
    EXPECT_EQ(exec::resolveJobs(0), 1024u);
    unsetenv("DMX_JOBS");

    // An explicit request above the ceiling is rejected the same way.
    EXPECT_THROW(exec::resolveJobs(1025), std::runtime_error);
    EXPECT_EQ(exec::resolveJobs(1024), 1024u);
}

// ------------------------------------------------------------------
// Splittable random streams

TEST(RngStreams, StreamZeroIsTheLegacyGenerator)
{
    Rng legacy(42);
    Rng stream0(42, 0);
    for (int i = 0; i < 64; ++i)
        EXPECT_EQ(legacy.below(1u << 30), stream0.below(1u << 30));
}

TEST(RngStreams, SameStreamIsReproducible)
{
    Rng a(7, 5), b(7, 5);
    for (int i = 0; i < 64; ++i)
        EXPECT_EQ(a.below(1u << 30), b.below(1u << 30));
}

TEST(RngStreams, SiblingStreamsNeverCorrelate)
{
    // Two scenarios sharing a seed but differing stream ids: their
    // draws must look independent, not shifted copies of each other.
    constexpr int N = 4096;
    Rng s1(1234, 1), s2(1234, 2);

    int matches = 0;
    double sum1 = 0, sum2 = 0, sum11 = 0, sum22 = 0, sum12 = 0;
    Rng u1(1234, 1), u2(1234, 2);
    for (int i = 0; i < N; ++i) {
        if (s1.below(16) == s2.below(16))
            ++matches;
        const double x = u1.uniform(0, 1);
        const double y = u2.uniform(0, 1);
        sum1 += x;
        sum2 += y;
        sum11 += x * x;
        sum22 += y * y;
        sum12 += x * y;
    }
    // Independent 4-bit draws match ~1/16 of the time; a duplicated or
    // lock-stepped stream would match always.
    EXPECT_LT(static_cast<double>(matches) / N, 0.25);
    EXPECT_GT(matches, 0);

    // Pearson correlation of the uniform draws stays near zero.
    const double cov = sum12 / N - (sum1 / N) * (sum2 / N);
    const double var1 = sum11 / N - (sum1 / N) * (sum1 / N);
    const double var2 = sum22 / N - (sum2 / N) * (sum2 / N);
    const double r = cov / std::sqrt(var1 * var2);
    EXPECT_LT(std::abs(r), 0.1);
}

TEST(RngStreams, DistinctStreamsDiffer)
{
    for (std::uint64_t s = 1; s < 16; ++s) {
        Rng a(99, s), b(99, s + 1);
        bool any_diff = false;
        for (int i = 0; i < 16 && !any_diff; ++i)
            any_diff = a.below(1u << 30) != b.below(1u << 30);
        EXPECT_TRUE(any_diff) << "streams " << s << " and " << s + 1;
    }
}

// ------------------------------------------------------------------
// ScenarioRunner ordering

TEST(ScenarioRunner, ResultOrderEqualsSubmissionOrderUnderRandomLoad)
{
    // Property: for randomized worker counts, scenario counts and
    // per-scenario durations, map()[i] belongs to scenario i and the
    // reducer sees indices strictly in submission order.
    Rng rng(2026);
    for (int round = 0; round < 24; ++round) {
        const unsigned workers = static_cast<unsigned>(rng.below(9));
        const std::size_t n = rng.below(41);
        const std::uint64_t jitter_us = 20 + rng.below(400);

        exec::ScenarioRunner runner(workers == 0 ? 1 : workers);
        std::vector<std::size_t> reduce_order;
        runner.mapReduce<std::size_t>(
            n,
            [jitter_us](exec::ScenarioContext &ctx, std::size_t i) {
                // Random per-scenario duration, drawn from the
                // scenario's own stream so the test itself is
                // jobs-invariant.
                std::this_thread::sleep_for(std::chrono::microseconds(
                    ctx.rng().below(jitter_us)));
                return i;
            },
            [&reduce_order](std::size_t i, std::size_t v) {
                EXPECT_EQ(i, v);
                reduce_order.push_back(i);
            });
        ASSERT_EQ(reduce_order.size(), n) << "round " << round;
        for (std::size_t i = 0; i < n; ++i)
            EXPECT_EQ(reduce_order[i], i);
    }
}

TEST(ScenarioRunner, ZeroScenariosIsANoOp)
{
    exec::ScenarioRunner serial(1), parallel(8);
    int reduced = 0;
    serial.mapReduce<int>(
        0, [](exec::ScenarioContext &, std::size_t) { return 0; },
        [&reduced](std::size_t, int) { ++reduced; });
    parallel.mapReduce<int>(
        0, [](exec::ScenarioContext &, std::size_t) { return 0; },
        [&reduced](std::size_t, int) { ++reduced; });
    EXPECT_EQ(reduced, 0);
    EXPECT_TRUE(serial.map<int>(0, [](exec::ScenarioContext &,
                                      std::size_t) { return 0; })
                    .empty());
}

TEST(ScenarioRunner, SerialModeRunsOnTheCaller)
{
    exec::ScenarioRunner runner(1);
    EXPECT_EQ(runner.jobs(), 1u);
    const std::thread::id me = std::this_thread::get_id();
    const auto ids = runner.map<bool>(
        4, [me](exec::ScenarioContext &, std::size_t) {
            return std::this_thread::get_id() == me;
        });
    for (bool on_caller : ids)
        EXPECT_TRUE(on_caller);
}

TEST(ScenarioRunner, ExceptionSurfacesAtItsSubmissionSlot)
{
    for (unsigned jobs : {1u, 8u}) {
        exec::ScenarioRunner runner(jobs);
        std::vector<std::size_t> reduced;
        try {
            runner.mapReduce<std::size_t>(
                8,
                [](exec::ScenarioContext &, std::size_t i) -> std::size_t {
                    if (i == 3)
                        throw std::runtime_error("scenario 3 failed");
                    return i;
                },
                [&reduced](std::size_t i, std::size_t) {
                    reduced.push_back(i);
                });
            FAIL() << "expected the scenario error to propagate";
        } catch (const std::runtime_error &e) {
            EXPECT_STREQ(e.what(), "scenario 3 failed");
        }
        // Every scenario before the failing slot committed; none after.
        ASSERT_EQ(reduced.size(), 3u) << "jobs=" << jobs;
        for (std::size_t i = 0; i < reduced.size(); ++i)
            EXPECT_EQ(reduced[i], i);
    }
}

TEST(ScenarioRunner, ScenarioContextsAreJobsInvariant)
{
    // The context's stream id is the submission index, so the draws a
    // scenario sees cannot depend on the worker count.
    auto draws = [](unsigned jobs) {
        exec::ScenarioRunner runner(jobs, 77);
        return runner.map<std::uint64_t>(
            16, [](exec::ScenarioContext &ctx, std::size_t) {
                std::uint64_t acc = 0;
                for (int i = 0; i < 8; ++i)
                    acc = acc * 31 + ctx.rng().below(1u << 20);
                return acc;
            });
    };
    EXPECT_EQ(draws(1), draws(8));
}

// ------------------------------------------------------------------
// Differential harness: serial vs parallel simulation sweeps

namespace
{

/** Everything a scenario's execution leaves behind, serialized. */
struct DiffResult
{
    sys::RunStats stats;
    std::string stats_json; ///< per-scenario StatGroup JSON dump
    std::string trace_json; ///< per-scenario Chrome trace export
    std::array<trace::CategoryTotal,
               static_cast<std::size_t>(trace::Category::NumCategories)>
        categories;
};

/**
 * One differential scenario: a random chain config drawn from the
 * scenario's own stream, odd indices running under a per-scenario
 * FaultPlan, recorded into the scenario's private trace and stat sinks.
 */
DiffResult
runDiffScenario(exec::ScenarioContext &ctx, std::size_t i)
{
    sys::SystemConfig cfg = testutil::randomSystemConfig(ctx.rng());

    std::optional<fault::FaultPlan> plan;
    if (i % 2 == 1) {
        fault::FaultSpec spec;
        spec.seed = ctx.seed() + i;
        spec.flow_stall_prob = 0.05;
        spec.flow_corrupt_prob = 0.03;
        spec.irq_drop_prob = 0.05;
        plan.emplace(spec);
        cfg.fault_plan = &*plan;
    }

    DiffResult r;
    r.stats = sys::simulateSystem(cfg, {testutil::randomChainApp(i)});

    stats::Scalar kernel(&ctx.stats(), "kernel_ticks",
                         "total kernel-phase ticks");
    stats::Scalar restructure(&ctx.stats(), "restructure_ticks",
                              "total restructure-phase ticks");
    stats::Scalar movement(&ctx.stats(), "movement_ticks",
                           "total movement-phase ticks");
    stats::Scalar makespan(&ctx.stats(), "makespan_ticks",
                           "simulated makespan");
    stats::Scalar retries(&ctx.stats(), "flow_retries",
                          "link-level retransmissions");
    kernel.set(static_cast<double>(r.stats.kernel_ticks));
    restructure.set(static_cast<double>(r.stats.restructure_ticks));
    movement.set(static_cast<double>(r.stats.movement_ticks));
    makespan.set(static_cast<double>(r.stats.makespan_ticks));
    retries.set(static_cast<double>(r.stats.flow_retries));
    std::ostringstream sj;
    ctx.stats().dumpAllJson(sj);
    r.stats_json = sj.str();

    std::ostringstream tj;
    ctx.trace().exportChromeJson(tj);
    r.trace_json = tj.str();
    r.categories = ctx.trace().breakdown();
    return r;
}

} // namespace

TEST(Differential, SerialAndParallelSweepsAreByteIdentical)
{
    constexpr std::size_t kScenarios = 12;

    exec::ScenarioRunner serial(1);
    exec::ScenarioRunner parallel(8);
    const auto a = serial.map<DiffResult>(kScenarios, runDiffScenario);
    const auto b = parallel.map<DiffResult>(kScenarios, runDiffScenario);
    ASSERT_EQ(a.size(), b.size());

    std::uint64_t faults_seen = 0;

    for (std::size_t i = 0; i < kScenarios; ++i) {
        SCOPED_TRACE("scenario " + std::to_string(i));
        // Integer-tick results are byte-identical.
        EXPECT_EQ(a[i].stats.kernel_ticks, b[i].stats.kernel_ticks);
        EXPECT_EQ(a[i].stats.restructure_ticks,
                  b[i].stats.restructure_ticks);
        EXPECT_EQ(a[i].stats.movement_ticks, b[i].stats.movement_ticks);
        EXPECT_EQ(a[i].stats.makespan_ticks, b[i].stats.makespan_ticks);
        EXPECT_EQ(a[i].stats.flow_retries, b[i].stats.flow_retries);
        EXPECT_EQ(a[i].stats.dropped_irqs, b[i].stats.dropped_irqs);
        EXPECT_EQ(a[i].stats.interrupts, b[i].stats.interrupts);
        EXPECT_EQ(a[i].stats.pcie_bytes, b[i].stats.pcie_bytes);
        // Floating-point aggregates come out of the same deterministic
        // arithmetic, so they are equal to the last bit too.
        EXPECT_EQ(a[i].stats.avg_latency_ms, b[i].stats.avg_latency_ms);
        EXPECT_EQ(a[i].stats.per_app_latency_ms,
                  b[i].stats.per_app_latency_ms);

        // JSON metric dumps are byte-identical strings.
        EXPECT_EQ(a[i].stats_json, b[i].stats_json);
        // Traces: record-for-record identical exports and category
        // totals.
        EXPECT_EQ(a[i].trace_json, b[i].trace_json);
        for (std::size_t c = 0; c < a[i].categories.size(); ++c) {
            EXPECT_EQ(a[i].categories[c].ticks, b[i].categories[c].ticks);
            EXPECT_EQ(a[i].categories[c].spans, b[i].categories[c].spans);
        }
        if (i % 2 == 1)
            faults_seen +=
                a[i].stats.flow_retries + a[i].stats.dropped_irqs;
    }
    // The fault-plan half of the matrix really exercised the recovery
    // path (individual scenarios may draw no faults at these
    // probabilities, but the set cannot).
    EXPECT_GT(faults_seen, 0u);
}

TEST(Differential, RepeatedParallelSweepsAreStable)
{
    exec::ScenarioRunner p1(8), p2(8);
    const auto a = p1.map<DiffResult>(6, runDiffScenario);
    const auto b = p2.map<DiffResult>(6, runDiffScenario);
    for (std::size_t i = 0; i < a.size(); ++i) {
        EXPECT_EQ(a[i].stats.makespan_ticks, b[i].stats.makespan_ticks);
        EXPECT_EQ(a[i].trace_json, b[i].trace_json);
        EXPECT_EQ(a[i].stats_json, b[i].stats_json);
    }
}

// ------------------------------------------------------------------
// Multi-tenant stress mode

TEST(MultiTenant, DeterministicAndShapedPerTenant)
{
    sys::MultiTenantConfig cfg;
    cfg.tenants = 6;
    std::vector<sys::AppModel> mix;
    for (std::uint64_t s = 0; s < 3; ++s)
        mix.push_back(testutil::randomChainApp(s));

    const sys::MultiTenantStats a = sys::simulateMultiTenant(cfg, mix);
    const sys::MultiTenantStats b = sys::simulateMultiTenant(cfg, mix);

    ASSERT_EQ(a.tenants.size(), cfg.tenants);
    EXPECT_EQ(a.aggregate.makespan_ticks, b.aggregate.makespan_ticks);
    EXPECT_EQ(a.fairness, b.fairness);
    EXPECT_GT(a.fairness, 0.0);
    EXPECT_LE(a.fairness, 1.0 + 1e-12);
    for (unsigned t = 0; t < cfg.tenants; ++t) {
        const sys::TenantStats &ts = a.tenants[t];
        EXPECT_EQ(ts.app_name, mix[t % mix.size()].name);
        EXPECT_GT(ts.latency_ms, 0.0);
        EXPECT_GT(ts.solo_latency_ms, 0.0);
        // Contention cannot materially help: the shared run is at
        // worst a sliver faster than running alone (batching effects
        // in the driver model can shave a fraction of a percent).
        EXPECT_GE(ts.slowdown(), 0.99);
        EXPECT_GT(ts.throughput_rps, 0.0);
    }
}

TEST(MultiTenant, SkipSoloBaselineZeroesSlowdowns)
{
    sys::MultiTenantConfig cfg;
    cfg.tenants = 3;
    cfg.skip_solo_baseline = true;
    const sys::MultiTenantStats mt =
        sys::simulateMultiTenant(cfg, {testutil::randomChainApp(1)});
    for (const sys::TenantStats &ts : mt.tenants) {
        EXPECT_EQ(ts.solo_latency_ms, 0.0);
        EXPECT_EQ(ts.slowdown(), 0.0);
    }
    EXPECT_EQ(mt.worstSlowdown(), 0.0);
}

TEST(MultiTenant, RejectsEmptyConfigurations)
{
    sys::MultiTenantConfig cfg;
    EXPECT_THROW(sys::simulateMultiTenant(cfg, {}), std::runtime_error);
    cfg.tenants = 0;
    EXPECT_THROW(
        sys::simulateMultiTenant(cfg, {testutil::randomChainApp(0)}),
        std::runtime_error);
}

TEST(MultiTenant, StressPointsAreJobsInvariantThroughTheRunner)
{
    auto sweep = [](unsigned jobs) {
        exec::ScenarioRunner runner(jobs);
        return runner.map<std::uint64_t>(
            4, [](exec::ScenarioContext &, std::size_t i) {
                sys::MultiTenantConfig cfg;
                cfg.tenants = 2 + static_cast<unsigned>(i) * 2;
                cfg.skip_solo_baseline = true;
                const sys::MultiTenantStats mt = sys::simulateMultiTenant(
                    cfg, {testutil::randomChainApp(i)});
                return static_cast<std::uint64_t>(
                    mt.aggregate.makespan_ticks);
            });
    };
    EXPECT_EQ(sweep(1), sweep(8));
}
