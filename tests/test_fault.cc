/**
 * @file
 * Tests for the fault-injection and recovery layer: deterministic
 * FaultPlan decisions, per-device health tracking, runtime watchdogs
 * and retries, error cascades, graceful degradation to the CPU, p2p
 * re-routing, and the sys-level closed-loop recovery paths.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <tuple>
#include <vector>

#include "fault/fault.hh"
#include "fault/health.hh"
#include "restructure/catalog.hh"
#include "restructure/cpu_exec.hh"
#include "runtime/runtime.hh"
#include "sys/system.hh"
#include "trace/trace.hh"

using namespace dmx;
using namespace dmx::runtime;

namespace
{

/** A kernel that doubles every float. */
Bytes
doubler(const Bytes &in, kernels::OpCount &ops)
{
    Bytes out = in;
    for (std::size_t i = 0; i + 4 <= out.size(); i += 4) {
        float v;
        std::memcpy(&v, &out[i], 4);
        v *= 2.0f;
        std::memcpy(&out[i], &v, 4);
    }
    ops.flops += out.size() / 4;
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

/** Finite-float input bytes for a restructuring kernel. */
restructure::Bytes
kernelInput(const restructure::Kernel &kernel)
{
    std::vector<float> vals(kernel.input.elems());
    for (std::size_t i = 0; i < vals.size(); ++i)
        vals[i] = std::sin(static_cast<float>(i) * 0.13f);
    restructure::Bytes input(kernel.input.bytes());
    std::memcpy(input.data(), vals.data(), input.size());
    return input;
}

} // namespace

// ----------------------------------------------------------- FaultPlan

TEST(FaultPlan, EqualSeedsGiveEqualDecisionStreams)
{
    fault::FaultSpec spec;
    spec.seed = 99;
    spec.flow_corrupt_prob = 0.3;
    spec.kernel_fail_prob = 0.25;
    spec.kernel_hang_prob = 0.1;
    spec.drx_fault_prob = 0.4;
    spec.irq_drop_prob = 0.2;

    fault::FaultPlan a(spec), b(spec);
    for (int i = 0; i < 200; ++i) {
        EXPECT_EQ(a.onFlow(1, 2, 4096), b.onFlow(1, 2, 4096));
        EXPECT_EQ(a.onKernel(), b.onKernel());
        EXPECT_EQ(a.onMachine(), b.onMachine());
        EXPECT_EQ(a.onIrq(), b.onIrq());
    }
    EXPECT_EQ(a.stats().injected(), b.stats().injected());
    EXPECT_GT(a.stats().injected(), 0u);
}

TEST(FaultPlan, SitesDrawFromIndependentStreams)
{
    // Interleaving queries at other sites must not change a site's
    // decision sequence.
    fault::FaultSpec spec;
    spec.seed = 5;
    spec.kernel_fail_prob = 0.5;

    fault::FaultPlan alone(spec), interleaved(spec);
    std::vector<fault::KernelAction> seq_a, seq_b;
    for (int i = 0; i < 50; ++i)
        seq_a.push_back(alone.onKernel());
    for (int i = 0; i < 50; ++i) {
        interleaved.onFlow(0, 1, 64);
        interleaved.onIrq();
        seq_b.push_back(interleaved.onKernel());
    }
    EXPECT_EQ(seq_a, seq_b);
}

TEST(FaultPlan, ScriptOverridesWithoutShiftingLaterDraws)
{
    fault::FaultSpec spec;
    spec.seed = 11;
    spec.kernel_fail_prob = 0.5;

    fault::FaultPlan plain(spec), scripted(spec);
    scripted.scriptKernel(0, fault::KernelAction::Hang);

    EXPECT_EQ(scripted.onKernel(), fault::KernelAction::Hang);
    // The scripted query still consumed one draw, so the tail of the
    // sequence matches the unscripted plan's.
    plain.onKernel();
    for (int i = 1; i < 50; ++i)
        EXPECT_EQ(plain.onKernel(), scripted.onKernel());
}

TEST(FaultPlan, RejectsInvalidSpecs)
{
    fault::FaultSpec bad_prob;
    bad_prob.kernel_fail_prob = 1.5;
    EXPECT_THROW(fault::FaultPlan{bad_prob}, std::runtime_error);

    fault::FaultSpec bad_sum;
    bad_sum.kernel_fail_prob = 0.7;
    bad_sum.kernel_hang_prob = 0.7;
    EXPECT_THROW(fault::FaultPlan{bad_sum}, std::runtime_error);

    fault::FaultSpec bad_threshold;
    bad_threshold.unhealthy_threshold = 0;
    EXPECT_THROW(fault::FaultPlan{bad_threshold}, std::runtime_error);
}

// ------------------------------------------------------- HealthTracker

TEST(HealthTracker, TripsOnConsecutiveFailuresOnly)
{
    fault::HealthTracker h(3);
    h.recordFailure();
    h.recordFailure();
    EXPECT_TRUE(h.healthy());
    h.recordSuccess(); // resets the streak
    h.recordFailure();
    h.recordFailure();
    EXPECT_TRUE(h.healthy());
    h.recordFailure();
    EXPECT_FALSE(h.healthy());
    // Sticky: an unhealthy device does not organically recover.
    h.recordSuccess();
    EXPECT_FALSE(h.healthy());
    h.reset();
    EXPECT_TRUE(h.healthy());
    EXPECT_EQ(h.totalFailures(), 5u);
}

// ----------------------------------------------------- runtime: events

TEST(FaultRuntime, DefaultEventIsInvalidAndRefusesCompleteTime)
{
    Event ev;
    EXPECT_FALSE(ev.valid());
    EXPECT_FALSE(ev.complete());
    EXPECT_EQ(ev.status(), Status::Pending);
    EXPECT_EQ(ev.retries(), 0u);
    EXPECT_THROW(ev.completeTime(), std::runtime_error);
}

TEST(FaultRuntime, PendingEventRefusesCompleteTime)
{
    Platform plat;
    const DeviceId dev =
        plat.addAccelerator("a0", accel::Domain::FFT, doubler);
    Context ctx = plat.createContext();
    const BufferId in = ctx.createBuffer(Bytes(64, 1));
    const BufferId out = ctx.createBuffer();
    Event ev = ctx.queue(dev).enqueueKernel(in, out);
    EXPECT_TRUE(ev.valid());
    EXPECT_THROW(ev.completeTime(), std::runtime_error);
    ctx.finish();
    EXPECT_NO_THROW(ev.completeTime());
    EXPECT_TRUE(ev.ok());
}

// ---------------------------------------------- runtime: fault recovery

TEST(FaultRuntime, StalledFlowTimesOutAndRetrySucceeds)
{
    // Baseline: the same copy on a fault-free platform.
    Tick baseline;
    {
        Platform plat;
        const DeviceId a =
            plat.addAccelerator("a0", accel::Domain::FFT, doubler);
        const DeviceId b =
            plat.addAccelerator("a1", accel::Domain::SVM, doubler);
        Context ctx = plat.createContext();
        const BufferId src = ctx.createBuffer(Bytes(4 * mib, 0x5a));
        const BufferId dst = ctx.createBuffer();
        Event ev = ctx.queue(a).enqueueCopy(src, dst, b);
        ctx.finish();
        baseline = ev.completeTime();
    }

    Platform plat;
    const DeviceId a =
        plat.addAccelerator("a0", accel::Domain::FFT, doubler);
    const DeviceId b =
        plat.addAccelerator("a1", accel::Domain::SVM, doubler);
    fault::FaultPlan plan;
    plan.scriptFlow(0, fault::FlowAction::Stall);
    plat.setFaultPlan(&plan);

    Context ctx = plat.createContext();
    const Bytes payload(4 * mib, 0x5a);
    const BufferId src = ctx.createBuffer(payload);
    const BufferId dst = ctx.createBuffer();
    Event ev = ctx.queue(a).enqueueCopy(src, dst, b);
    ctx.finish();

    EXPECT_TRUE(ev.ok());
    EXPECT_EQ(ev.retries(), 1u);
    EXPECT_EQ(ctx.read(dst), payload);
    EXPECT_EQ(plat.faultStats(a).timeouts, 1u);
    EXPECT_EQ(plat.faultStats(a).retries, 1u);
    // The recovery path pays the watchdog plus backoff: strictly
    // slower than the fault-free copy.
    EXPECT_GT(ev.completeTime(),
              baseline + plat.commandPolicy().timeout);
}

TEST(FaultRuntime, KernelFailureRetriesAndSucceeds)
{
    Platform plat;
    const DeviceId dev =
        plat.addAccelerator("a0", accel::Domain::FFT, doubler);
    fault::FaultPlan plan;
    plan.scriptKernel(0, fault::KernelAction::Fail);
    plat.setFaultPlan(&plan);

    Context ctx = plat.createContext();
    const BufferId in = ctx.createBuffer(Bytes(1024, 3));
    const BufferId out = ctx.createBuffer();
    Event ev = ctx.queue(dev).enqueueKernel(in, out);
    ctx.finish();

    EXPECT_TRUE(ev.ok());
    EXPECT_EQ(ev.retries(), 1u);
    EXPECT_EQ(plat.faultStats(dev).failures, 1u);
    EXPECT_EQ(plat.faultStats(dev).timeouts, 0u);
    EXPECT_EQ(ctx.read(out).size(), 1024u);
}

TEST(FaultRuntime, HungKernelCaughtByWatchdog)
{
    Platform plat;
    const DeviceId dev =
        plat.addAccelerator("a0", accel::Domain::FFT, doubler);
    fault::FaultPlan plan;
    plan.scriptKernel(0, fault::KernelAction::Hang);
    plat.setFaultPlan(&plan);

    Context ctx = plat.createContext();
    const BufferId in = ctx.createBuffer(Bytes(256, 1));
    const BufferId out = ctx.createBuffer();
    Event ev = ctx.queue(dev).enqueueKernel(in, out);
    ctx.finish();

    EXPECT_TRUE(ev.ok());
    EXPECT_EQ(ev.retries(), 1u);
    EXPECT_EQ(plat.faultStats(dev).timeouts, 1u);
    // The hang is visible on the device model too.
    EXPECT_GT(ev.completeTime(), plat.commandPolicy().timeout);
}

TEST(FaultRuntime, TimedOutAttemptDropsItsLateCompletion)
{
    // The watchdog fires long before the kernel finishes. Its late
    // completion is dropped before it touches a buffer, exactly as a
    // chain drops completions after its watchdog: a command that
    // settled TimedOut never has its output written afterwards.
    Platform plat;
    const DeviceId dev =
        plat.addAccelerator("a0", accel::Domain::FFT, doubler);
    CommandPolicy pol;
    pol.timeout = 10;
    pol.max_retries = 0;
    plat.setCommandPolicy(pol);

    Context ctx = plat.createContext();
    const BufferId in = ctx.createBuffer(Bytes(4096, 1));
    const BufferId out = ctx.createBuffer();
    Event ev = ctx.queue(dev).enqueueKernel(in, out);
    ctx.finish();

    EXPECT_EQ(ev.status(), Status::TimedOut);
    EXPECT_EQ(ev.completeTime(), 10u);
    EXPECT_GT(plat.now(), ev.completeTime()); // the device did finish
    EXPECT_TRUE(ctx.read(out).empty());
}

TEST(FaultRuntime, RetryBudgetExhaustionSettlesFailed)
{
    Platform plat;
    const DeviceId dev =
        plat.addAccelerator("a0", accel::Domain::FFT, doubler);
    fault::FaultPlan plan;
    for (std::uint64_t n = 0; n < 8; ++n)
        plan.scriptKernel(n, fault::KernelAction::Fail);
    plat.setFaultPlan(&plan);

    Context ctx = plat.createContext();
    const BufferId in = ctx.createBuffer(Bytes(128, 9));
    const BufferId out = ctx.createBuffer();
    Event ev = ctx.queue(dev).enqueueKernel(in, out);
    ctx.finish(); // must terminate despite the permanent failure

    EXPECT_TRUE(ev.complete());
    EXPECT_EQ(ev.status(), Status::Failed);
    EXPECT_FALSE(ev.ok());
    EXPECT_EQ(ev.retries(), plat.commandPolicy().max_retries);
    EXPECT_EQ(plat.faultStats(dev).commands_failed, 1u);
    // The output was never produced.
    EXPECT_TRUE(ctx.read(out).empty());
}

TEST(FaultRuntime, FreshCommandOnFailedDeviceFastFails)
{
    Platform plat;
    const DeviceId dev =
        plat.addAccelerator("a0", accel::Domain::FFT, doubler);
    fault::FaultPlan plan;
    for (std::uint64_t n = 0; n < 8; ++n)
        plan.scriptKernel(n, fault::KernelAction::Fail);
    plat.setFaultPlan(&plan);

    // Burn the retry budget once so the device trips its unhealthy
    // threshold and stays down.
    Context c1 = plat.createContext();
    const BufferId in1 = c1.createBuffer(Bytes(128, 9));
    const BufferId out1 = c1.createBuffer();
    Event e1 = c1.queue(dev).enqueueKernel(in1, out1);
    c1.finish();
    ASSERT_EQ(e1.status(), Status::Failed);
    ASSERT_FALSE(plat.deviceHealthy(dev));
    const Tick down_at = plat.now();
    const auto timeouts_before = plat.faultStats(dev).timeouts;
    const auto attempts_before = plat.faultStats(dev).attempts;

    // A fresh command against the dead device must settle Failed
    // immediately - at its own enqueue tick - instead of consuming a
    // full watchdog timeout (the pre-fix behaviour) against hardware
    // already known to be down.
    Context c2 = plat.createContext();
    const BufferId in2 = c2.createBuffer(Bytes(128, 5));
    const BufferId out2 = c2.createBuffer();
    Event e2 = c2.queue(dev).enqueueKernel(in2, out2);
    c2.finish();

    EXPECT_EQ(e2.status(), Status::Failed);
    EXPECT_EQ(e2.completeTime(), down_at);
    EXPECT_EQ(e2.retries(), 0u);
    EXPECT_EQ(plat.faultStats(dev).fast_fails, 1u);
    // No device attempt and no watchdog were spent on it.
    EXPECT_EQ(plat.faultStats(dev).attempts, attempts_before);
    EXPECT_EQ(plat.faultStats(dev).timeouts, timeouts_before);
}

TEST(FaultRuntime, ErrorCascadesDownInOrderQueue)
{
    Platform plat;
    const DeviceId dev =
        plat.addAccelerator("a0", accel::Domain::FFT, doubler);
    fault::FaultPlan plan;
    for (std::uint64_t n = 0; n < 8; ++n)
        plan.scriptKernel(n, fault::KernelAction::Fail);
    plat.setFaultPlan(&plan);

    Context ctx = plat.createContext();
    const BufferId in = ctx.createBuffer(Bytes(128, 9));
    const BufferId mid = ctx.createBuffer();
    const BufferId out = ctx.createBuffer();
    Event e1 = ctx.queue(dev).enqueueKernel(in, mid);
    Event e2 = ctx.queue(dev).enqueueKernel(mid, out);
    ctx.finish();

    EXPECT_EQ(e1.status(), Status::Failed);
    EXPECT_EQ(e2.status(), Status::Failed);
    // The cascaded command consumed no device attempts.
    EXPECT_EQ(plat.faultStats(dev).cascaded, 1u);
    EXPECT_EQ(plat.faultStats(dev).attempts,
              1u + plat.commandPolicy().max_retries);
}

TEST(FaultRuntime, UnhealthyDrxDegradesToCpuByteIdentical)
{
    const auto kernel = restructure::melSpectrogram(8, 64, 16);
    const restructure::Bytes input = kernelInput(kernel);

    // Baseline: fault-free DRX execution time.
    Tick baseline;
    {
        Platform plat;
        const DeviceId drx = plat.addDrx("drx0", {});
        Context ctx = plat.createContext();
        const BufferId in = ctx.createBuffer(input);
        const BufferId out = ctx.createBuffer();
        Event ev = ctx.queue(drx).enqueueRestructure(kernel, in, out);
        ctx.finish();
        baseline = ev.completeTime();
    }

    Platform plat;
    const DeviceId drx = plat.addDrx("drx0", {});
    fault::FaultPlan plan;
    // Fault the first three attempts: the health streak reaches the
    // threshold (3) and the final retry degrades to the host CPU.
    for (std::uint64_t n = 0; n < 3; ++n)
        plan.scriptMachine(n, fault::MachineAction::Fault);
    plat.setFaultPlan(&plan);

    Context ctx = plat.createContext();
    const BufferId in = ctx.createBuffer(input);
    const BufferId out = ctx.createBuffer();
    Event ev = ctx.queue(drx).enqueueRestructure(kernel, in, out);
    ctx.finish();

    EXPECT_TRUE(ev.ok());
    EXPECT_TRUE(ev.degraded());
    EXPECT_EQ(ev.retries(), 3u);
    EXPECT_FALSE(plat.deviceHealthy(drx));
    EXPECT_EQ(plat.faultStats(drx).fallbacks, 1u);
    // Byte-identical to the CPU oracle...
    EXPECT_EQ(ctx.read(out), restructure::executeOnCpu(kernel, input));
    // ...at an honestly worse simulated cost.
    EXPECT_GT(ev.completeTime(), baseline);
    EXPECT_GT(plat.hostPool().completedJobs(), 0u);

    // Subsequent restructures skip the dead device entirely.
    const BufferId out2 = ctx.createBuffer();
    Event ev2 = ctx.queue(drx).enqueueRestructure(kernel, in, out2);
    ctx.finish();
    EXPECT_TRUE(ev2.ok());
    EXPECT_TRUE(ev2.degraded());
    EXPECT_EQ(ev2.retries(), 0u);
    EXPECT_EQ(plat.faultStats(drx).fallbacks, 2u);
    EXPECT_EQ(ctx.read(out2), restructure::executeOnCpu(kernel, input));
}

TEST(FaultRuntime, FaultedSwitchReroutesP2pThroughRootComplex)
{
    const Bytes payload(8 * mib, 0xc3);

    Tick p2p_time;
    {
        Platform plat;
        const DeviceId a =
            plat.addAccelerator("a0", accel::Domain::FFT, doubler);
        const DeviceId b =
            plat.addAccelerator("a1", accel::Domain::SVM, doubler);
        Context ctx = plat.createContext();
        const BufferId src = ctx.createBuffer(payload);
        const BufferId dst = ctx.createBuffer();
        Event ev = ctx.queue(a).enqueueCopy(src, dst, b);
        ctx.finish();
        p2p_time = ev.completeTime();
    }

    Platform plat;
    const DeviceId a =
        plat.addAccelerator("a0", accel::Domain::FFT, doubler);
    const DeviceId b =
        plat.addAccelerator("a1", accel::Domain::SVM, doubler);
    fault::FaultSpec spec;
    spec.p2p_switch_faulted = true;
    fault::FaultPlan plan(spec);
    plat.setFaultPlan(&plan);

    Context ctx = plat.createContext();
    const BufferId src = ctx.createBuffer(payload);
    const BufferId dst = ctx.createBuffer();
    Event ev = ctx.queue(a).enqueueCopy(src, dst, b);
    ctx.finish();

    EXPECT_TRUE(ev.ok());
    EXPECT_EQ(ctx.read(dst), payload);
    EXPECT_EQ(plat.faultStats(a).rerouted_copies, 1u);
    // Two serial hops over the constrained x8 uplink beat one p2p hop
    // by a wide margin.
    EXPECT_GT(ev.completeTime(), p2p_time);
}

TEST(FaultRuntime, DroppedCompletionIrqRecoveredByPoll)
{
    auto run = [](fault::FaultPlan &plan) {
        Platform plat;
        const DeviceId dev =
            plat.addAccelerator("a0", accel::Domain::FFT, doubler);
        plat.setFaultPlan(&plan);
        Context ctx = plat.createContext();
        const BufferId in = ctx.createBuffer(Bytes(512, 2));
        const BufferId out = ctx.createBuffer();
        Event ev = ctx.queue(dev).enqueueKernel(in, out);
        ctx.finish();
        return std::make_tuple(ev.completeTime(), ev.ok(),
                               plat.droppedInterrupts());
    };

    fault::FaultPlan clean;
    const auto [t_clean, ok_clean, drops_clean] = run(clean);
    fault::FaultPlan dropping;
    dropping.scriptIrq(0, fault::IrqAction::Drop);
    const auto [t_drop, ok_drop, drops] = run(dropping);

    EXPECT_TRUE(ok_clean);
    EXPECT_TRUE(ok_drop);
    EXPECT_EQ(drops_clean, 0u);
    EXPECT_EQ(drops, 1u);
    // The lost notification costs the driver's recovery-poll latency,
    // not a full command timeout.
    EXPECT_GT(t_drop, t_clean);
    EXPECT_LT(t_drop, t_clean + 2 * driver::InterruptParams{}.lost_irq_recovery);
}

TEST(FaultRuntime, FaultFreePlatformSeesNoReliabilityMachinery)
{
    Platform plat;
    const DeviceId dev =
        plat.addAccelerator("a0", accel::Domain::FFT, doubler);
    Context ctx = plat.createContext();
    const BufferId in = ctx.createBuffer(Bytes(256, 7));
    const BufferId out = ctx.createBuffer();
    Event ev = ctx.queue(dev).enqueueKernel(in, out);
    ctx.finish();

    EXPECT_TRUE(ev.ok());
    EXPECT_EQ(ev.retries(), 0u);
    EXPECT_FALSE(ev.degraded());
    EXPECT_EQ(plat.faultStats(dev).failures, 0u);
    EXPECT_EQ(plat.droppedInterrupts(), 0u);
    EXPECT_EQ(plat.commandPolicy().timeout, 0u); // no watchdogs armed
}

// -------------------------------------------------- fault trace events

TEST(FaultTrace, DegradationToCpuSurfacesAsCounterAndSpan)
{
    const auto kernel = restructure::melSpectrogram(8, 64, 16);
    const restructure::Bytes input = kernelInput(kernel);

    trace::TraceBuffer tb;
    trace::TraceSession session(tb);

    Platform plat;
    const DeviceId drx = plat.addDrx("drx0", {});
    fault::FaultPlan plan;
    for (std::uint64_t n = 0; n < 3; ++n)
        plan.scriptMachine(n, fault::MachineAction::Fault);
    plat.setFaultPlan(&plan);

    Context ctx = plat.createContext();
    const BufferId in = ctx.createBuffer(input);
    const BufferId out = ctx.createBuffer();
    Event ev = ctx.queue(drx).enqueueRestructure(kernel, in, out);
    ctx.finish();
    ASSERT_TRUE(ev.ok());
    ASSERT_TRUE(ev.degraded());

    // The degradation is a trace counter...
    EXPECT_DOUBLE_EQ(tb.counterTotal("runtime.degraded"), 1.0);
    // ...and the CPU fallback work is a Degrade-category span with
    // real duration on the device's track.
    std::uint64_t degrade_spans = 0;
    for (const trace::Span &s : tb.spans()) {
        if (s.cat != trace::Category::Degrade)
            continue;
        ++degrade_spans;
        EXPECT_EQ(tb.stringAt(s.name), "cpu_fallback");
        EXPECT_EQ(tb.stringAt(s.track), "drx0");
        EXPECT_GT(s.duration(), 0u);
    }
    EXPECT_EQ(degrade_spans, 1u);
    // The three faulted attempts left retry evidence too.
    EXPECT_DOUBLE_EQ(tb.counterTotal("runtime.retries"), 3.0);
}

TEST(FaultTrace, P2pRerouteSurfacesAsCounter)
{
    trace::TraceBuffer tb;
    trace::TraceSession session(tb);

    Platform plat;
    const DeviceId a =
        plat.addAccelerator("a0", accel::Domain::FFT, doubler);
    const DeviceId b =
        plat.addAccelerator("a1", accel::Domain::SVM, doubler);
    fault::FaultSpec spec;
    spec.p2p_switch_faulted = true;
    fault::FaultPlan plan(spec);
    plat.setFaultPlan(&plan);

    Context ctx = plat.createContext();
    const Bytes payload(4 * mib, 0xc3);
    const BufferId src = ctx.createBuffer(payload);
    const BufferId dst = ctx.createBuffer();
    Event ev = ctx.queue(a).enqueueCopy(src, dst, b);
    ctx.finish();
    ASSERT_TRUE(ev.ok());

    EXPECT_DOUBLE_EQ(tb.counterTotal("runtime.rerouted_copies"), 1.0);
    // Nothing degraded and nothing retried on this path.
    EXPECT_DOUBLE_EQ(tb.counterTotal("runtime.degraded"), 0.0);
    EXPECT_DOUBLE_EQ(tb.counterTotal("runtime.retries"), 0.0);
}

// --------------------------------------------------------- determinism

TEST(FaultRuntime, SameSeedSameTrace)
{
    // A mixed pipeline under probabilistic faults: two runs with equal
    // seeds must produce identical statuses, retry counts and times.
    auto run = [](std::uint64_t seed) {
        fault::FaultSpec spec;
        spec.seed = seed;
        spec.kernel_fail_prob = 0.25;
        spec.flow_corrupt_prob = 0.25;
        spec.drx_fault_prob = 0.2;
        spec.irq_drop_prob = 0.2;
        fault::FaultPlan plan(spec);

        Platform plat;
        const DeviceId acc =
            plat.addAccelerator("a0", accel::Domain::FFT, doubler);
        const DeviceId drx = plat.addDrx("drx0", {});
        plat.setFaultPlan(&plan);

        Context ctx = plat.createContext();
        const auto kernel = restructure::melSpectrogram(8, 64, 16);
        const restructure::Bytes input = kernelInput(kernel);

        std::vector<std::tuple<int, unsigned, Tick>> trace;
        for (int round = 0; round < 6; ++round) {
            const BufferId a = ctx.createBuffer(Bytes(64 * 1024, 1));
            const BufferId b = ctx.createBuffer();
            const BufferId c = ctx.createBuffer();
            const BufferId r_in = ctx.createBuffer(input);
            const BufferId r_out = ctx.createBuffer();
            Event e1 = ctx.queue(acc).enqueueKernel(a, b);
            Event e2 = ctx.queue(acc).enqueueCopy(b, c, drx);
            Event e3 =
                ctx.queue(drx).enqueueRestructure(kernel, r_in, r_out);
            ctx.finish();
            for (const Event &e : {e1, e2, e3})
                trace.emplace_back(static_cast<int>(e.status()),
                                   e.retries(),
                                   e.complete() ? e.completeTime() : 0);
        }
        trace.emplace_back(-1, plan.stats().injected() > 0 ? 1u : 0u,
                           plat.now());
        return trace;
    };

    const auto t1 = run(1234);
    const auto t2 = run(1234);
    EXPECT_EQ(t1, t2);
}

// ------------------------------------------------------------ sys level

TEST(FaultSys, ClosedLoopRecoversFromFlowAndIrqFaults)
{
    sys::SystemConfig cfg;
    cfg.placement = sys::Placement::BumpInTheWire;
    cfg.n_apps = 2;
    cfg.requests_per_app = 3;
    const std::vector<sys::AppModel> apps = {tinyApp()};

    const sys::RunStats clean = sys::simulateSystem(cfg, apps);

    fault::FaultSpec spec;
    spec.seed = 21;
    spec.flow_corrupt_prob = 0.2;
    spec.irq_drop_prob = 0.2;
    fault::FaultPlan plan(spec);
    cfg.fault_plan = &plan;
    const sys::RunStats faulty = sys::simulateSystem(cfg, apps);

    EXPECT_GT(plan.stats().injected(), 0u);
    // Every corrupted flow is retransmitted exactly once per
    // corruption, and every dropped irq is recovered by the poll.
    EXPECT_EQ(faulty.flow_retries, plan.stats().flows_corrupted +
                                       plan.stats().flows_stalled);
    EXPECT_EQ(faulty.dropped_irqs, plan.stats().irqs_dropped);
    EXPECT_EQ(clean.flow_retries, 0u);
    // Recovery costs simulated time: the faulty run cannot be faster.
    EXPECT_GE(faulty.makespan_ms, clean.makespan_ms);
}
