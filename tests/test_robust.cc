/**
 * @file
 * Tests for the overload-protection and failure-containment layer:
 * credit-gate backpressure semantics, circuit-breaker state machine,
 * admission-control policies, runtime integration (shed at enqueue,
 * breaker quarantine, deadline budgets), jobs-invariant determinism of
 * breaker transition traces, and end-to-end containment on the
 * open-loop overload engine.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/percentile.hh"
#include "exec/scenario.hh"
#include "fault/fault.hh"
#include "robust/admission.hh"
#include "robust/breaker.hh"
#include "robust/credit.hh"
#include "runtime/chain.hh"
#include "runtime/runtime.hh"
#include "sys/overload.hh"
#include "sys/system.hh"
#include "trace/trace.hh"

using namespace dmx;
using namespace dmx::robust;

namespace
{

/** A kernel that increments every byte. */
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

/** k1 (accel) -> restructure -> k2 (accel), small enough to run fast. */
sys::AppModel
tinyApp()
{
    sys::AppModel app;
    app.name = "tiny";
    app.input_bytes = 8 * mib;

    sys::KernelTiming k1;
    k1.name = "k1";
    k1.cpu_core_seconds = 0.010;
    k1.accel_cycles = 625'000;
    k1.accel_freq_hz = 250e6;
    k1.out_bytes = 16 * mib;
    app.kernels.push_back(k1);

    sys::KernelTiming k2 = k1;
    k2.name = "k2";
    k2.cpu_core_seconds = 0.008;
    k2.out_bytes = 1 * mib;
    app.kernels.push_back(k2);

    sys::MotionTiming m;
    m.name = "restructure";
    m.cpu_core_seconds = 0.030;
    m.drx_cycles = 1'000'000;
    m.in_bytes = 16 * mib;
    m.out_bytes = 16 * mib;
    app.motions.push_back(m);
    return app;
}

} // namespace

// ----------------------------------------------------------- CreditGate

TEST(CreditGate, GrantsInlineWithinWindow)
{
    CreditGate gate("q", 100);
    Tick granted_at = 0;
    int grants = 0;
    gate.acquire(60, 5, [&](Tick at) { granted_at = at; ++grants; });
    EXPECT_EQ(grants, 1);
    EXPECT_EQ(granted_at, 5u);
    EXPECT_EQ(gate.used(), 60u);
    EXPECT_EQ(gate.highWater(), 60u);
    EXPECT_EQ(gate.stalls(), 0u);
    EXPECT_TRUE(gate.wouldGrant(40));
    EXPECT_FALSE(gate.wouldGrant(41));
}

TEST(CreditGate, BlocksFifoAndAccountsStallTicks)
{
    CreditGate gate("q", 10);
    std::vector<int> order;
    gate.acquire(10, 0, [&](Tick) { order.push_back(0); });

    // Both block: the window is exhausted. FIFO even though the second
    // request is smaller and would fit first after a partial release.
    gate.acquire(8, 2, [&](Tick) { order.push_back(1); });
    gate.acquire(2, 3, [&](Tick) { order.push_back(2); });
    EXPECT_EQ(gate.waiting(), 2u);
    EXPECT_EQ(gate.stalls(), 2u);

    // Releasing 2 bytes frees too little for waiter 1; FIFO means
    // waiter 2 must keep waiting behind it.
    gate.release(2, 5);
    EXPECT_EQ(order, (std::vector<int>{0}));

    gate.release(8, 7);
    EXPECT_EQ(order, (std::vector<int>{0, 1, 2}));
    EXPECT_EQ(gate.waiting(), 0u);
    // Waiter 1 stalled ticks 2..7, waiter 2 stalled 3..7.
    EXPECT_EQ(gate.stallTicks(), Tick{(7 - 2) + (7 - 3)});
    EXPECT_EQ(gate.used(), 10u);
    EXPECT_EQ(gate.highWater(), 10u);
}

TEST(CreditGate, RejectsImpossibleAcquires)
{
    EXPECT_THROW(CreditGate("q", 0), std::runtime_error);
    CreditGate gate("q", 8);
    EXPECT_THROW(gate.acquire(0, 0, [](Tick) {}), std::runtime_error);
    EXPECT_THROW(gate.acquire(9, 0, [](Tick) {}), std::runtime_error);
}

// ------------------------------------------------------- CircuitBreaker

TEST(CircuitBreaker, OpensAfterConsecutiveFailuresAndFastFails)
{
    BreakerConfig cfg;
    cfg.enabled = true;
    cfg.failure_threshold = 3;
    cfg.cooldown = 1000;
    CircuitBreaker b("dev", cfg);

    EXPECT_EQ(b.state(), BreakerState::Closed);
    b.recordFailure(10);
    b.recordFailure(20);
    EXPECT_EQ(b.state(), BreakerState::Closed);
    EXPECT_TRUE(b.allow(25));
    b.recordFailure(30);
    EXPECT_EQ(b.state(), BreakerState::Open);
    EXPECT_EQ(b.opens(), 1u);

    // Inside the cool-down every request fast-fails.
    EXPECT_FALSE(b.allow(31));
    EXPECT_FALSE(b.allow(1029));
    EXPECT_EQ(b.fastFails(), 2u);

    // A success between failures resets the consecutive count.
    CircuitBreaker c("dev2", cfg);
    c.recordFailure(0);
    c.recordFailure(1);
    c.recordSuccess(2);
    c.recordFailure(3);
    c.recordFailure(4);
    EXPECT_EQ(c.state(), BreakerState::Closed);
}

TEST(CircuitBreaker, CooldownProbeCycleAndQuarantineAccounting)
{
    BreakerConfig cfg;
    cfg.enabled = true;
    cfg.failure_threshold = 1;
    cfg.cooldown = 1000;
    CircuitBreaker b("dev", cfg);

    b.recordFailure(100); // -> Open at 100
    EXPECT_EQ(b.state(), BreakerState::Open);

    // Cool-down elapsed: the next request is admitted as a probe.
    EXPECT_TRUE(b.allow(1100));
    EXPECT_EQ(b.state(), BreakerState::HalfOpen);

    // A failed probe re-arms the full cool-down.
    b.recordFailure(1100);
    EXPECT_EQ(b.state(), BreakerState::Open);
    EXPECT_EQ(b.opens(), 2u);
    EXPECT_FALSE(b.allow(2000));

    // Second probe succeeds: the breaker closes.
    EXPECT_TRUE(b.allow(2100));
    b.recordSuccess(2200);
    EXPECT_EQ(b.state(), BreakerState::Closed);
    EXPECT_EQ(b.closes(), 1u);
    // Quarantined 100..2200 (Open and HalfOpen both count).
    EXPECT_EQ(b.quarantineTicks(5000), Tick{2100});
}

TEST(CircuitBreaker, HalfOpenAdmitsOnlyTheProbeBudget)
{
    BreakerConfig cfg;
    cfg.enabled = true;
    cfg.failure_threshold = 1;
    cfg.cooldown = 100;
    cfg.half_open_probes = 2;
    CircuitBreaker b("dev", cfg);

    b.recordFailure(0);
    EXPECT_TRUE(b.allow(100));  // probe 1 (Open -> HalfOpen)
    EXPECT_TRUE(b.allow(101));  // probe 2
    EXPECT_FALSE(b.allow(102)); // probe budget exhausted
    EXPECT_EQ(b.state(), BreakerState::HalfOpen);

    // Both probes must succeed before the breaker closes.
    b.recordSuccess(110);
    EXPECT_EQ(b.state(), BreakerState::HalfOpen);
    b.recordSuccess(111);
    EXPECT_EQ(b.state(), BreakerState::Closed);
}

// -------------------------------------------------- AdmissionController

TEST(Admission, UnboundedAdmitsEverything)
{
    AdmissionController adm("gate");
    for (std::uint64_t d = 0; d < 100; ++d)
        EXPECT_TRUE(adm.admit(d, d, static_cast<unsigned>(d % 5)));
    EXPECT_EQ(adm.admitted(), 100u);
    EXPECT_EQ(adm.shed(), 0u);
}

TEST(Admission, StaticCapHalvesPerPriorityLevel)
{
    AdmissionConfig cfg;
    cfg.policy = AdmissionPolicy::StaticCap;
    cfg.queue_depth_cap = 4;
    AdmissionController adm("gate", cfg);

    // Priority 0 gets the full cap of 4...
    EXPECT_TRUE(adm.admit(0, 3, 0));
    EXPECT_FALSE(adm.admit(0, 4, 0));
    // ...priority 1 half of it...
    EXPECT_TRUE(adm.admit(0, 1, 1));
    EXPECT_FALSE(adm.admit(0, 2, 1));
    // ...and everyone keeps at least one slot.
    EXPECT_TRUE(adm.admit(0, 0, 60));
    EXPECT_FALSE(adm.admit(0, 1, 60));
    EXPECT_EQ(adm.shed(), 3u);
    EXPECT_EQ(adm.admitted(), 3u);
}

TEST(Admission, AdaptiveShedsAfterSojournStaysAboveTarget)
{
    AdmissionConfig cfg;
    cfg.policy = AdmissionPolicy::Adaptive;
    cfg.sojourn_target = 100;
    cfg.interval = 1000;
    AdmissionController adm("gate", cfg);

    // Below target: always admit.
    adm.recordSojourn(50, 0);
    EXPECT_TRUE(adm.admit(10, 99, 1));
    EXPECT_FALSE(adm.overloaded());

    // Above target at t=100: grace of one interval for priority 1,
    // two intervals for priority 0.
    adm.recordSojourn(500, 100);
    EXPECT_TRUE(adm.overloaded());
    EXPECT_TRUE(adm.admit(1099, 0, 1));
    EXPECT_FALSE(adm.admit(1100, 0, 1));
    EXPECT_TRUE(adm.admit(2099, 0, 0));
    EXPECT_FALSE(adm.admit(2100, 0, 0));

    // One below-target sample ends the episode.
    adm.recordSojourn(80, 3000);
    EXPECT_FALSE(adm.overloaded());
    EXPECT_TRUE(adm.admit(3001, 0, 1));
}

// -------------------------------------------- runtime integration

TEST(RobustRuntime, StaticCapShedsAtEnqueue)
{
    runtime::Platform plat;
    const runtime::DeviceId dev =
        plat.addAccelerator("a0", accel::Domain::FFT, bump);
    RobustConfig rc;
    rc.admission.policy = AdmissionPolicy::StaticCap;
    rc.admission.queue_depth_cap = 1;
    plat.setRobustConfig(rc);
    ASSERT_NE(plat.deviceAdmission(dev), nullptr);

    runtime::Context c1 = plat.createContext();
    runtime::Context c2 = plat.createContext();
    const auto in1 = c1.createBuffer(runtime::Bytes(256, 1));
    const auto out1 = c1.createBuffer();
    const auto in2 = c2.createBuffer(runtime::Bytes(256, 2));
    const auto out2 = c2.createBuffer();

    runtime::Event e1 = c1.queue(dev).enqueueKernel(in1, out1);
    EXPECT_EQ(plat.outstandingCommands(dev), 1u);

    // The second command arrives while the first is outstanding: it is
    // shed up front, settling immediately without touching the device.
    runtime::Event e2 = c2.queue(dev).enqueueKernel(in2, out2);
    EXPECT_TRUE(e2.complete());
    EXPECT_EQ(e2.status(), runtime::Status::Shed);
    EXPECT_FALSE(e2.ok());

    plat.drain();
    EXPECT_TRUE(e1.ok());
    EXPECT_EQ(plat.faultStats(dev).shed, 1u);
    EXPECT_EQ(plat.outstandingCommands(dev), 0u);

    // With the first settled, a fresh command is admitted again.
    runtime::Event e3 = c2.queue(dev).enqueueKernel(in2, out2);
    plat.drain();
    EXPECT_TRUE(e3.ok());
    EXPECT_EQ(plat.deviceAdmission(dev)->shed(), 1u);
}

TEST(RobustRuntime, BreakerQuarantinesDeviceThenProbeRecovers)
{
    runtime::Platform plat;
    const runtime::DeviceId dev =
        plat.addAccelerator("a0", accel::Domain::FFT, bump);
    fault::FaultPlan plan;
    plan.scriptKernel(0, fault::KernelAction::Fail);
    plan.scriptKernel(1, fault::KernelAction::Fail);
    plat.setFaultPlan(&plan);

    RobustConfig rc;
    rc.breaker.enabled = true;
    rc.breaker.failure_threshold = 2;
    rc.breaker.cooldown = 2 * tick_per_ms;
    plat.setRobustConfig(rc);
    const CircuitBreaker *b = plat.deviceBreaker(dev);
    ASSERT_NE(b, nullptr);

    // Each command gets its own context: commands behind a settled
    // non-Ok predecessor on the same in-order queue cascade Failed
    // (their input was never produced), which would mask the breaker
    // path this test exercises.
    runtime::Context c1 = plat.createContext();
    const auto in1 = c1.createBuffer(runtime::Bytes(256, 7));
    const auto out1 = c1.createBuffer();

    // Two scripted failures trip the breaker mid-command; the retry
    // that follows fast-fails against the open breaker (kernels have
    // no CPU fallback, so it sheds) instead of dispatching.
    runtime::Event e1 = c1.queue(dev).enqueueKernel(in1, out1);
    plat.drain();
    EXPECT_EQ(e1.status(), runtime::Status::Shed);
    EXPECT_EQ(b->state(), BreakerState::Open);
    EXPECT_EQ(b->opens(), 1u);
    EXPECT_EQ(plat.faultStats(dev).breaker_fast_fails, 1u);

    // Fresh work inside the cool-down is fast-failed up front.
    runtime::Context c2 = plat.createContext();
    const auto in2 = c2.createBuffer(runtime::Bytes(256, 7));
    const auto out2 = c2.createBuffer();
    runtime::Event e2 = c2.queue(dev).enqueueKernel(in2, out2);
    plat.drain();
    EXPECT_EQ(e2.status(), runtime::Status::Shed);
    EXPECT_EQ(plat.faultStats(dev).breaker_fast_fails, 2u);
    EXPECT_EQ(plat.faultStats(dev).shed, 2u);

    // Let the cool-down elapse in simulated time; the next command is
    // admitted as the HalfOpen probe, succeeds, and closes the breaker.
    plat.eventQueue().scheduleIn(3 * tick_per_ms, [] {});
    plat.drain();
    runtime::Context c3 = plat.createContext();
    const auto in3 = c3.createBuffer(runtime::Bytes(256, 7));
    const auto out3 = c3.createBuffer();
    runtime::Event e3 = c3.queue(dev).enqueueKernel(in3, out3);
    plat.drain();
    EXPECT_TRUE(e3.ok());
    EXPECT_EQ(b->state(), BreakerState::Closed);
    EXPECT_EQ(b->closes(), 1u);
    EXPECT_GT(b->quarantineTicks(plat.now()), Tick{0});
}

TEST(RobustRuntime, DeadlineBudgetBoundsRetriesAndWatchdogs)
{
    runtime::Platform plat;
    const runtime::DeviceId dev =
        plat.addAccelerator("a0", accel::Domain::FFT, bump);
    fault::FaultPlan plan;
    for (std::uint64_t n = 0; n < 8; ++n)
        plan.scriptKernel(n, fault::KernelAction::Hang);
    plat.setFaultPlan(&plan);

    RobustConfig rc;
    rc.deadline = 3 * tick_per_ms;
    plat.setRobustConfig(rc);
    // The per-attempt watchdog alone would burn far more than the
    // whole deadline budget.
    ASSERT_GT(plat.commandPolicy().timeout, rc.deadline);

    runtime::Context ctx = plat.createContext();
    const auto in = ctx.createBuffer(runtime::Bytes(256, 7));
    const auto out = ctx.createBuffer();
    runtime::Event ev = ctx.queue(dev).enqueueKernel(in, out);
    plat.drain();

    // The hung command settles TimedOut at the deadline - the watchdog
    // is clipped to the remaining budget - instead of after the full
    // per-attempt timeout times the retry budget.
    EXPECT_EQ(ev.status(), runtime::Status::TimedOut);
    EXPECT_LE(ev.completeTime(), rc.deadline);
    EXPECT_GE(plat.faultStats(dev).deadline_exhausted, 1u);
    EXPECT_LT(ev.retries(), plat.commandPolicy().max_retries);
}

TEST(RobustRuntime, ZeroDeadlineDisablesTheBudget)
{
    // CommandPolicy::deadline == 0 means "no deadline", never "instant
    // timeout": the launch path must not arm a deadline, and the
    // watchdog clip must not underflow.
    runtime::Platform plat;
    const runtime::DeviceId dev =
        plat.addAccelerator("a0", accel::Domain::FFT, bump);
    fault::FaultPlan plan; // benign: probabilities all zero
    plat.setFaultPlan(&plan);
    runtime::CommandPolicy pol = plat.commandPolicy();
    pol.deadline = 0;
    plat.setCommandPolicy(pol);

    runtime::Context ctx = plat.createContext();
    const auto in = ctx.createBuffer(runtime::Bytes(128, 5));
    const auto out = ctx.createBuffer();
    runtime::Event ev = ctx.queue(dev).enqueueKernel(in, out);
    plat.drain();

    EXPECT_EQ(ev.status(), runtime::Status::Ok);
    EXPECT_EQ(plat.faultStats(dev).deadline_exhausted, 0u);
}

TEST(RobustRuntime, ZeroRemainingDeadlineSettlesTimedOutAtDispatch)
{
    // A command whose entire deadline budget is already spent when it
    // dispatches (here: eaten by its queue predecessor) settles
    // TimedOut at the dispatch tick - the guard fires before any
    // watchdog arithmetic could underflow a zero remaining budget.
    const auto settleTime = [](Tick deadline) {
        runtime::Platform plat;
        const runtime::DeviceId dev =
            plat.addAccelerator("a0", accel::Domain::FFT, bump);
        fault::FaultPlan plan;
        plat.setFaultPlan(&plan);
        runtime::CommandPolicy pol = plat.commandPolicy();
        pol.deadline = deadline;
        plat.setCommandPolicy(pol);

        runtime::Context ctx = plat.createContext();
        const auto in = ctx.createBuffer(runtime::Bytes(128, 5));
        const auto mid = ctx.createBuffer();
        const auto out = ctx.createBuffer();
        runtime::Event first = ctx.queue(dev).enqueueKernel(in, mid);
        runtime::Event second = ctx.queue(dev).enqueueKernel(mid, out);
        plat.drain();
        EXPECT_TRUE(first.ok());
        struct R
        {
            Tick first_done;
            runtime::Status second_status;
            Tick second_done;
            std::uint64_t exhausted;
        };
        return R{first.completeTime(), second.status(),
                 second.completeTime(),
                 plat.faultStats(dev).deadline_exhausted};
    };

    // Measure when the predecessor settles, then re-run with exactly
    // that as the deadline: the second command dispatches with zero
    // budget remaining.
    const auto probe = settleTime(0);
    ASSERT_EQ(probe.second_status, runtime::Status::Ok);

    const auto r = settleTime(probe.first_done);
    EXPECT_EQ(r.first_done, probe.first_done);
    EXPECT_EQ(r.second_status, runtime::Status::TimedOut);
    EXPECT_EQ(r.second_done, probe.first_done); // settles at dispatch
    EXPECT_EQ(r.exhausted, 1u);
}

namespace
{

/** A platform with one accelerator whose every kernel launch hangs. */
struct HangingChainFixture
{
    runtime::Platform plat;
    runtime::DeviceId dev = 0;
    fault::FaultPlan plan;

    HangingChainFixture()
    {
        dev = plat.addAccelerator("a0", accel::Domain::FFT, bump);
        for (std::uint64_t n = 0; n < 32; ++n)
            plan.scriptKernel(n, fault::KernelAction::Hang);
        plat.setFaultPlan(&plan);
    }

    /** @p n_ops hanging Kernel descriptors as one chain submission. */
    runtime::ChainEvent
    submit(std::size_t n_ops)
    {
        ctx = plat.createContextPtr();
        std::vector<runtime::BufferId> bufs;
        bufs.push_back(ctx->createBuffer(runtime::Bytes(256, 7)));
        for (std::size_t i = 0; i < n_ops; ++i)
            bufs.push_back(ctx->createBuffer());
        std::vector<runtime::ChainOp> ops(n_ops);
        for (std::size_t i = 0; i < n_ops; ++i) {
            ops[i].kind = runtime::ChainOp::Kind::Kernel;
            ops[i].device = dev;
            ops[i].in = bufs[i];
            ops[i].out = bufs[i + 1];
        }
        return runtime::enqueueChain(*ctx, ops);
    }

    std::unique_ptr<runtime::Context> ctx;
};

} // namespace

TEST(RobustChain, DeadlineClipsOnceForTheWholeChain)
{
    // Counterpart of the per-command saturating-clip tests above: a
    // descriptor chain owns ONE watchdog budget (ops x timeout) and
    // CommandPolicy::deadline clips it once for the whole chain. A
    // per-hop clip would multiply the deadline by the descriptor
    // count; the hung chain must settle at submit + deadline exactly.
    HangingChainFixture f;
    runtime::CommandPolicy pol = f.plat.commandPolicy();
    pol.deadline = 3 * tick_per_ms;
    f.plat.setCommandPolicy(pol);
    ASSERT_GT(f.plat.commandPolicy().timeout, pol.deadline);

    const Tick submit_at = f.plat.now();
    runtime::ChainEvent ev = f.submit(3);
    f.plat.drain();

    EXPECT_EQ(ev.status(), runtime::Status::TimedOut);
    EXPECT_TRUE(ev.deadlineClipped());
    EXPECT_EQ(ev.completeTime(), submit_at + pol.deadline);
    EXPECT_EQ(ev.failedIndex(), 0); // descriptor 0 never completed
    EXPECT_EQ(ev.records()[0].status, runtime::Status::TimedOut);
    // Later descriptors were never attempted.
    EXPECT_EQ(ev.records()[1].status, runtime::Status::Pending);
    EXPECT_EQ(ev.records()[1].attempts, 0u);
}

TEST(RobustChain, WatchdogBudgetScalesWithDescriptorCount)
{
    // Without a deadline the chain watchdog is the per-command timeout
    // times the descriptor count - not a fresh watchdog per hop, and
    // not a single-command timeout for the whole chain.
    HangingChainFixture f;
    const runtime::CommandPolicy pol = f.plat.commandPolicy();
    ASSERT_EQ(pol.deadline, Tick{0});
    ASSERT_GT(pol.timeout, Tick{0});

    const Tick submit_at = f.plat.now();
    runtime::ChainEvent ev = f.submit(2);
    f.plat.drain();

    EXPECT_EQ(ev.status(), runtime::Status::TimedOut);
    EXPECT_FALSE(ev.deadlineClipped());
    EXPECT_EQ(ev.completeTime(), submit_at + 2 * pol.timeout);
}

TEST(RobustChain, ZeroDeadlineDisablesTheChainBudget)
{
    // deadline == 0 means "no deadline" for chains exactly as for
    // single commands: nothing clips, nothing underflows.
    runtime::Platform plat;
    const runtime::DeviceId dev =
        plat.addAccelerator("a0", accel::Domain::FFT, bump);
    fault::FaultPlan plan; // benign: probabilities all zero
    plat.setFaultPlan(&plan);
    ASSERT_EQ(plat.commandPolicy().deadline, Tick{0});

    runtime::Context ctx = plat.createContext();
    const auto b0 = ctx.createBuffer(runtime::Bytes(128, 5));
    const auto b1 = ctx.createBuffer();
    const auto b2 = ctx.createBuffer();
    std::vector<runtime::ChainOp> ops(2);
    ops[0] = {runtime::ChainOp::Kind::Kernel, dev, 0, b0, b1, {}};
    ops[1] = {runtime::ChainOp::Kind::Kernel, dev, 0, b1, b2, {}};
    runtime::ChainEvent ev = runtime::enqueueChain(ctx, ops);
    plat.drain();

    EXPECT_EQ(ev.status(), runtime::Status::Ok);
    EXPECT_FALSE(ev.deadlineClipped());
    EXPECT_EQ(plat.faultStats(dev).deadline_exhausted, 0u);
    EXPECT_EQ(ev.records()[1].status, runtime::Status::Ok);
}

TEST(RobustRuntime, HalfOpenProbeFailureConsumesOneProbeAndReopens)
{
    runtime::Platform plat;
    const runtime::DeviceId dev =
        plat.addAccelerator("a0", accel::Domain::FFT, bump);
    fault::FaultPlan plan;
    for (std::uint64_t n = 0; n < 8; ++n)
        plan.scriptKernel(n, fault::KernelAction::Fail);
    plat.setFaultPlan(&plan);

    RobustConfig rc;
    rc.breaker.enabled = true;
    rc.breaker.failure_threshold = 2;
    rc.breaker.cooldown = tick_per_ms;
    rc.breaker.half_open_probes = 1;
    plat.setRobustConfig(rc);

    // Fresh context per command: a settled error poisons its in-order
    // queue, and cascaded successors would muddy the probe accounting.
    const auto runCommand = [&] {
        auto c = plat.createContextPtr();
        const auto in = c->createBuffer(runtime::Bytes(64, 9));
        const auto out = c->createBuffer();
        runtime::Event e = c->queue(dev).enqueueKernel(in, out);
        plat.drain();
        return e.status();
    };

    // Command 1 fails its first attempts against scripted failures;
    // the breaker trips Open mid-retry (threshold 2), so the remaining
    // retry sheds at the breaker.
    EXPECT_EQ(runCommand(), runtime::Status::Shed);
    const robust::CircuitBreaker *br = plat.deviceBreaker(dev);
    ASSERT_NE(br, nullptr);
    EXPECT_EQ(br->state(), BreakerState::Open);
    EXPECT_EQ(br->opens(), 1u);
    const std::uint64_t kernels_before = plan.stats().kernels_seen;

    // Past the cool-down, the next command becomes the single HalfOpen
    // probe; its scripted failure re-opens the breaker, and the retry
    // finds the breaker Open again (probe budget spent), so it sheds
    // without touching the device.
    plat.eventQueue().scheduleIn(2 * rc.breaker.cooldown, [] {});
    plat.drain();
    EXPECT_EQ(runCommand(), runtime::Status::Shed);
    EXPECT_EQ(br->state(), BreakerState::Open);
    EXPECT_EQ(br->opens(), 2u); // Closed->Open, HalfOpen->Open
    // Exactly one probe reached the device.
    EXPECT_EQ(plan.stats().kernels_seen, kernels_before + 1);

    // While re-opened, fresh commands fast-fail without a device query.
    EXPECT_EQ(runCommand(), runtime::Status::Shed);
    EXPECT_EQ(plan.stats().kernels_seen, kernels_before + 1);
}

TEST(RobustRuntime, ShedIsObservableLikeOtherTerminalStates)
{
    EXPECT_EQ(runtime::toString(runtime::Status::Shed), "shed");

    runtime::Platform plat;
    const runtime::DeviceId dev =
        plat.addAccelerator("a0", accel::Domain::FFT, bump);
    RobustConfig rc;
    rc.admission.policy = AdmissionPolicy::StaticCap;
    rc.admission.queue_depth_cap = 1;
    plat.setRobustConfig(rc);

    runtime::Context c1 = plat.createContext();
    runtime::Context c2 = plat.createContext();
    const auto in1 = c1.createBuffer(runtime::Bytes(64, 1));
    const auto out1 = c1.createBuffer();
    const auto in2 = c2.createBuffer(runtime::Bytes(64, 2));
    const auto out2 = c2.createBuffer();

    runtime::Event e1 = c1.queue(dev).enqueueKernel(in1, out1);
    runtime::Event e2 = c2.queue(dev).enqueueKernel(in2, out2);

    // onSettled on an already-shed event fires immediately, exactly
    // like it does for any complete event.
    bool fired = false;
    runtime::onSettled(e2, [&] { fired = true; });
    EXPECT_TRUE(fired);
    // A shed event is terminal, so completeTime() answers (with the
    // shed tick) instead of refusing like a pending one would.
    EXPECT_EQ(e2.completeTime(), plat.now());
    plat.drain();
    EXPECT_TRUE(e1.ok());
}

// ------------------------------------- determinism (jobs-invariance)

namespace
{

/**
 * One randomized breaker scenario: a platform with two flaky devices
 * under a seeded fault plan and the full protection stack, driven by a
 * batch of kernels. @return the serialized Robust-category trace.
 */
std::string
breakerScenario(exec::ScenarioContext &ctx)
{
    // Derive the fault seed from the scenario's split random stream:
    // the same index always sees the same seed, on any worker.
    const std::uint64_t seed = ctx.rng().next();

    runtime::Platform plat;
    std::vector<runtime::DeviceId> devs{
        plat.addAccelerator("a0", accel::Domain::FFT, bump),
        plat.addAccelerator("a1", accel::Domain::SVM, bump),
    };
    fault::FaultSpec spec;
    spec.seed = seed;
    spec.kernel_fail_prob = 0.35;
    spec.kernel_hang_prob = 0.05;
    fault::FaultPlan plan(spec);
    plat.setFaultPlan(&plan);

    RobustConfig rc;
    rc.breaker.enabled = true;
    rc.breaker.failure_threshold = 2;
    rc.breaker.cooldown = tick_per_ms;
    rc.admission.policy = AdmissionPolicy::StaticCap;
    rc.admission.queue_depth_cap = 4;
    rc.deadline = 200 * tick_per_ms;
    plat.setRobustConfig(rc);

    std::vector<std::unique_ptr<runtime::Context>> ctxs;
    std::vector<runtime::Event> evs;
    for (unsigned i = 0; i < 24; ++i) {
        ctxs.push_back(plat.createContextPtr());
        const auto in = ctxs.back()->createBuffer(
            runtime::Bytes(256, static_cast<std::uint8_t>(i)));
        const auto out = ctxs.back()->createBuffer();
        evs.push_back(
            ctxs.back()->queue(devs[i % devs.size()]).enqueueKernel(in, out));
        // Space arrivals out so breakers see both load and idle gaps.
        if (i % 4 == 3)
            plat.drain();
    }
    plat.drain();

    // Serialize every Robust-category span (breaker transitions, sheds,
    // fast-fails) with its ticks: any scheduling nondeterminism across
    // worker counts would show up here.
    const trace::TraceBuffer &tb = ctx.trace();
    std::string out;
    for (const trace::Span &s : tb.spans()) {
        if (s.cat != trace::Category::Robust)
            continue;
        out += tb.stringAt(s.name) + "|" + tb.stringAt(s.track) + "|" +
               std::to_string(s.begin) + "|" + std::to_string(s.end) + "\n";
    }
    out += "shed=" + std::to_string(tb.counterTotal("runtime.shed"));
    out += " ff=" +
           std::to_string(tb.counterTotal("runtime.breaker_fast_fails"));
    return out;
}

} // namespace

TEST(RobustDeterminism, BreakerTransitionTracesAreJobsInvariant)
{
    constexpr std::size_t kScenarios = 6;
    const auto fn = std::function<std::string(exec::ScenarioContext &,
                                              std::size_t)>(
        [](exec::ScenarioContext &ctx, std::size_t) {
            return breakerScenario(ctx);
        });

    exec::ScenarioRunner serial(1), pooled(8);
    const std::vector<std::string> a = serial.map<std::string>(kScenarios, fn);
    const std::vector<std::string> b = pooled.map<std::string>(kScenarios, fn);

    ASSERT_EQ(a.size(), b.size());
    for (std::size_t i = 0; i < a.size(); ++i)
        EXPECT_EQ(a[i], b[i]) << "scenario " << i;

    // The sweep must actually exercise the breaker machinery: at 35%
    // kernel-fail some scenario trips at least one transition.
    bool any_robust = false;
    for (const std::string &s : a)
        if (s.find("breaker_open") != std::string::npos)
            any_robust = true;
    EXPECT_TRUE(any_robust);
}

namespace
{

/**
 * The scripted HalfOpen-probe sequence of
 * RobustRuntime.HalfOpenProbeFailureConsumesOneProbeAndReopens, as a
 * scenario: trip the breaker, wait out the cool-down, fail the single
 * probe. @return serialized Robust spans plus the breaker accounting.
 */
std::string
halfOpenScenario(exec::ScenarioContext &ctx)
{
    const std::uint64_t seed = ctx.rng().next();

    runtime::Platform plat;
    const runtime::DeviceId dev =
        plat.addAccelerator("a0", accel::Domain::FFT, bump);
    fault::FaultSpec spec;
    spec.seed = seed; // varies backoff jitter across scenarios
    fault::FaultPlan plan(spec);
    for (std::uint64_t n = 0; n < 8; ++n)
        plan.scriptKernel(n, fault::KernelAction::Fail);
    plat.setFaultPlan(&plan);

    RobustConfig rc;
    rc.breaker.enabled = true;
    rc.breaker.failure_threshold = 2;
    rc.breaker.cooldown = tick_per_ms;
    plat.setRobustConfig(rc);

    // Fresh context per command (a settled error poisons its queue).
    const auto runCommand = [&] {
        auto c = plat.createContextPtr();
        const auto in = c->createBuffer(runtime::Bytes(64, 9));
        const auto out = c->createBuffer();
        c->queue(dev).enqueueKernel(in, out);
        plat.drain();
    };
    runCommand();
    plat.eventQueue().scheduleIn(2 * rc.breaker.cooldown, [] {});
    plat.drain();
    runCommand();

    const trace::TraceBuffer &tb = ctx.trace();
    std::string out;
    for (const trace::Span &s : tb.spans()) {
        if (s.cat != trace::Category::Robust)
            continue;
        out += tb.stringAt(s.name) + "|" + tb.stringAt(s.track) + "|" +
               std::to_string(s.begin) + "|" + std::to_string(s.end) +
               "\n";
    }
    const robust::CircuitBreaker *br = plat.deviceBreaker(dev);
    out += "opens=" + std::to_string(br->opens());
    out += " ff=" + std::to_string(br->fastFails());
    out += " kernels=" + std::to_string(plan.stats().kernels_seen);
    return out;
}

} // namespace

TEST(RobustDeterminism, HalfOpenProbeTracesAreJobsInvariant)
{
    constexpr std::size_t kScenarios = 6;
    const auto fn = std::function<std::string(exec::ScenarioContext &,
                                              std::size_t)>(
        [](exec::ScenarioContext &ctx, std::size_t) {
            return halfOpenScenario(ctx);
        });

    exec::ScenarioRunner serial(1), pooled(8);
    const std::vector<std::string> a = serial.map<std::string>(kScenarios, fn);
    const std::vector<std::string> b = pooled.map<std::string>(kScenarios, fn);

    ASSERT_EQ(a.size(), b.size());
    for (std::size_t i = 0; i < a.size(); ++i) {
        EXPECT_EQ(a[i], b[i]) << "scenario " << i;
        // Every scenario walks the same scripted state machine:
        // Closed->Open, cool-down, HalfOpen, probe fails, Open again.
        EXPECT_NE(a[i].find("breaker_half-open"), std::string::npos);
        EXPECT_NE(a[i].find("opens=2"), std::string::npos);
    }
}

// --------------------------------------------- sys closed-loop wiring

TEST(RobustSys, BackpressureIsNoOpWhenUncontended)
{
    sys::SystemConfig cfg;
    cfg.placement = sys::Placement::BumpInTheWire;
    cfg.n_apps = 2;
    cfg.requests_per_app = 2;
    const std::vector<sys::AppModel> apps = {tinyApp()};

    const sys::RunStats legacy = sys::simulateSystem(cfg, apps);

    cfg.robust.backpressure.enabled = true;
    const sys::RunStats gated = sys::simulateSystem(cfg, apps);

    // A closed loop keeps at most one motion in flight per app, so the
    // credit gates never block and the run is bit-identical.
    EXPECT_EQ(gated.backpressure_stalls, 0u);
    EXPECT_EQ(gated.backpressure_stall_ticks, Tick{0});
    EXPECT_EQ(gated.queue_overflows, 0u);
    EXPECT_EQ(gated.makespan_ticks, legacy.makespan_ticks);
    EXPECT_EQ(gated.kernel_ticks, legacy.kernel_ticks);
    EXPECT_EQ(gated.avg_latency_ms, legacy.avg_latency_ms);
}

TEST(RobustSys, AdmissionShedsAndClosedLoopStillCompletes)
{
    sys::SystemConfig cfg;
    cfg.placement = sys::Placement::BumpInTheWire;
    cfg.n_apps = 3;
    cfg.requests_per_app = 2;
    cfg.robust.admission.policy = AdmissionPolicy::StaticCap;
    cfg.robust.admission.queue_depth_cap = 1; // system-wide depth 1
    cfg.priorities = {0, 1, 2};
    const std::vector<sys::AppModel> apps = {tinyApp()};

    const sys::RunStats st = sys::simulateSystem(cfg, apps);

    // With a depth cap of one, concurrent apps must shed and re-issue;
    // the closed loop still drives every request to completion.
    EXPECT_GT(st.shed_requests, 0u);
    ASSERT_EQ(st.per_app_shed.size(), 3u);
    std::uint64_t total = 0;
    for (std::uint64_t s : st.per_app_shed)
        total += s;
    EXPECT_EQ(total, st.shed_requests);
    EXPECT_GT(st.makespan_ms, 0.0);
}

TEST(RobustSys, DeadlineMissesAreCountedPerApp)
{
    sys::SystemConfig cfg;
    cfg.placement = sys::Placement::BumpInTheWire;
    cfg.n_apps = 2;
    cfg.requests_per_app = 2;
    cfg.robust.deadline = 1; // one picosecond: every request misses
    const std::vector<sys::AppModel> apps = {tinyApp()};

    const sys::RunStats st = sys::simulateSystem(cfg, apps);
    EXPECT_EQ(st.deadline_misses,
              std::uint64_t{cfg.n_apps} * cfg.requests_per_app);
    ASSERT_EQ(st.per_app_deadline_misses.size(), 2u);
    EXPECT_EQ(st.per_app_deadline_misses[0], 2u);
    EXPECT_EQ(st.per_app_deadline_misses[1], 2u);
}

TEST(RobustSys, PercentileNearestRank)
{
    EXPECT_EQ(common::percentileNearestRank(std::vector<double>{}, 0.99),
              0.0);
    EXPECT_EQ(common::percentileNearestRank(std::vector<double>{5.0}, 0.99),
              5.0);
    std::vector<double> v;
    for (int i = 100; i >= 1; --i)
        v.push_back(i);
    EXPECT_EQ(common::percentileNearestRank(v, 0.99), 99.0);
    EXPECT_EQ(common::percentileNearestRank(v, 0.50), 50.0);
    EXPECT_EQ(common::percentileNearestRank(v, 1.00), 100.0);
}

// ------------------------------------------- overload engine (e2e)

TEST(OverloadEngine, ContainmentAtTwoXLoadWithFaults)
{
    sys::OverloadConfig base;
    base.devices = 4;
    base.requests = 96;
    base.load = 2.0;
    base.fault_rate = 0.1;
    base.seed = 1;

    const sys::OverloadStats legacy = sys::simulateOverload(base);

    sys::OverloadConfig prot = base;
    prot.robust.backpressure.enabled = true;
    prot.robust.admission.policy = AdmissionPolicy::StaticCap;
    prot.robust.admission.queue_depth_cap = 4;
    prot.robust.breaker.enabled = true;
    prot.deadline_factor = 16;
    const sys::OverloadStats guarded = sys::simulateOverload(prot);

    // The unprotected run overruns its submission rings and lets hung
    // kernels pin the tail; protection sheds the excess instead.
    EXPECT_GT(legacy.queue_overflows, 0u);
    EXPECT_EQ(guarded.queue_overflows, 0u);
    EXPECT_LE(guarded.max_ring_high_water, guarded.ring_credit_window);
    EXPECT_GT(guarded.shed, 0u);
    EXPECT_GT(guarded.goodput_rps, legacy.goodput_rps);
    EXPECT_LT(guarded.p99_latency_ms, legacy.p99_latency_ms);
    // Accounting closes: every offered request settles exactly once.
    EXPECT_EQ(guarded.offered, guarded.completed + guarded.shed +
                                   guarded.failed + guarded.timed_out);
    EXPECT_EQ(legacy.offered, legacy.completed + legacy.shed +
                                  legacy.failed + legacy.timed_out);
}

TEST(OverloadEngine, EqualConfigsGiveEqualStats)
{
    sys::OverloadConfig cfg;
    cfg.devices = 2;
    cfg.requests = 48;
    cfg.load = 2.0;
    cfg.fault_rate = 0.2;
    cfg.seed = 7;
    cfg.robust.backpressure.enabled = true;
    cfg.robust.admission.policy = AdmissionPolicy::StaticCap;
    cfg.robust.breaker.enabled = true;
    cfg.deadline_factor = 8;

    const sys::OverloadStats a = sys::simulateOverload(cfg);
    const sys::OverloadStats b = sys::simulateOverload(cfg);
    EXPECT_EQ(a.offered, b.offered);
    EXPECT_EQ(a.completed, b.completed);
    EXPECT_EQ(a.shed, b.shed);
    EXPECT_EQ(a.failed, b.failed);
    EXPECT_EQ(a.timed_out, b.timed_out);
    EXPECT_EQ(a.goodput_rps, b.goodput_rps);
    EXPECT_EQ(a.p99_latency_ms, b.p99_latency_ms);
    EXPECT_EQ(a.backpressure_stalls, b.backpressure_stalls);
    EXPECT_EQ(a.breaker_opens, b.breaker_opens);
    EXPECT_EQ(a.breaker_open_ms, b.breaker_open_ms);
}
