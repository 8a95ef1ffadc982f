/**
 * @file
 * Tests for batched descriptor submission & coalesced completions
 * (DESIGN.md 7j, src/runtime/batch.*).
 *
 * The contract under test: submitBatch() delivers payload bytes
 * identical to the per-command enqueue path while paying one doorbell
 * per batch (the rest are descriptor fetches) and one driver
 * notification per coalescing window (or pure completion-record
 * polls); member reliability - admission, watchdog, retries, deadline,
 * fallback - stays per member, so one failing member never poisons its
 * siblings; and all of it is deterministic, jobs-invariant, and
 * composes with the sys closed loop (SystemConfig::batch), descriptor
 * chaining, and the overload/serving engines.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <functional>
#include <sstream>
#include <string>
#include <vector>

#include "driver/interrupts.hh"
#include "exec/scenario.hh"
#include "fault/fault.hh"
#include "integrity/integrity.hh"
#include "restructure/ir.hh"
#include "runtime/batch.hh"
#include "runtime/runtime.hh"
#include "serve/serve.hh"
#include "sim/eventq.hh"
#include "sys/overload.hh"
#include "sys/system.hh"
#include "util_overload.hh"

using namespace dmx;
using namespace dmx::runtime;

namespace
{

/** Identity accelerator kernel with honest op counts. */
Bytes
passKernel(const Bytes &in, kernels::OpCount &ops)
{
    ops.int_ops += in.size();
    ops.bytes_read += in.size();
    ops.bytes_written += in.size();
    return in;
}

/** Deterministic payload for member @p i. */
Bytes
payloadFor(unsigned i, std::size_t bytes)
{
    Bytes b(bytes);
    for (std::size_t j = 0; j < b.size(); ++j)
        b[j] = static_cast<std::uint8_t>((i * 131u + j * 7u + 3u) & 0xffu);
    return b;
}

/** Total notification events, whatever mode NAPI picked. */
std::uint64_t
notifies(const Platform &plat)
{
    return plat.irq().interruptsDelivered() + plat.irq().pollsDelivered();
}

/** A small platform with two same-domain accelerators + benign plan. */
struct CopyRig
{
    Platform plat;
    fault::FaultPlan benign;
    DeviceId a0, a1;

    CopyRig()
    {
        plat.setFaultPlan(&benign);
        a0 = plat.addAccelerator("a0", accel::Domain::Crypto, passKernel);
        a1 = plat.addAccelerator("a1", accel::Domain::Crypto, passKernel);
    }
};

/** Stable digest of a settled batch for differential comparison. */
std::string
digest(Context &ctx, const BatchEvent &bev,
       const std::vector<BufferId> &outs)
{
    std::ostringstream os;
    os << static_cast<int>(bev.status()) << ':' << bev.notifications();
    for (const BatchRecord &r : bev.records())
        os << '|' << static_cast<int>(r.status) << ':' << r.at << ':'
           << r.retries << ':' << r.degraded;
    for (std::size_t i = 0; i < outs.size(); ++i) {
        os << '#';
        if (bev.records()[i].status == Status::Ok)
            for (const std::uint8_t c : ctx.read(outs[i]))
                os << static_cast<unsigned>(c) << ',';
    }
    return os.str();
}

restructure::Kernel
tileKernel(std::size_t side)
{
    restructure::Kernel k;
    k.name = "bt_scale" + std::to_string(side);
    k.input.dtype = DType::F32;
    k.input.shape = {side, side};
    k.stages.push_back(restructure::mapStage(
        {{restructure::MapFn::Scale, 1.0009765625f}}));
    return k;
}

/** Two-kernel / one-motion closed-loop app. */
sys::AppModel
motionApp(std::uint64_t bytes)
{
    sys::AppModel app;
    app.name = "bt" + std::to_string(bytes);
    app.input_bytes = bytes;
    for (int k = 0; k < 2; ++k) {
        sys::KernelTiming kt;
        kt.name = "k" + std::to_string(k);
        kt.cpu_core_seconds = 0.002;
        kt.accel_cycles = 50'000;
        kt.accel_freq_hz = 250e6;
        kt.out_bytes = bytes;
        app.kernels.push_back(kt);
    }
    sys::MotionTiming mt;
    mt.name = "m0";
    mt.cpu_core_seconds = 0.003;
    mt.drx_cycles = 50'000;
    mt.in_bytes = bytes;
    mt.out_bytes = bytes;
    app.motions.push_back(mt);
    return app;
}

} // namespace

// ------------------------------------------------- driver-layer units

TEST(BatchIrq, NotifyBatchSuppressesAllButOne)
{
    sim::EventQueue eq;
    driver::InterruptController irq(eq, "irq");
    const auto n = irq.notifyBatch(5);
    EXPECT_TRUE(n.delivered);
    EXPECT_GT(n.latency, 0u);
    EXPECT_EQ(irq.suppressedNotifications(), 4u);
    EXPECT_EQ(irq.interruptsDelivered() + irq.pollsDelivered(), 1u);

    // A zero-completion window is a no-op, not a notification.
    const auto z = irq.notifyBatch(0);
    EXPECT_TRUE(z.delivered);
    EXPECT_EQ(z.latency, 0u);
    EXPECT_EQ(irq.suppressedNotifications(), 4u);
    EXPECT_EQ(irq.interruptsDelivered() + irq.pollsDelivered(), 1u);
}

TEST(BatchIrq, PollRecordBypassesTheInterruptPath)
{
    sim::EventQueue eq;
    driver::InterruptController irq(eq, "irq");
    const auto n = irq.pollRecord();
    EXPECT_TRUE(n.delivered);
    EXPECT_EQ(n.latency, irq.params().polling_latency);
    EXPECT_EQ(irq.interruptsDelivered(), 0u);
    EXPECT_EQ(irq.pollsDelivered(), 1u);
    // Record polls are host-initiated: they never touch the NAPI rate
    // estimate or the drop counter.
    EXPECT_EQ(irq.droppedInterrupts(), 0u);
    EXPECT_FALSE(irq.polling());
}

// ------------------------------------------------ runtime batch engine

TEST(BatchCopies, SingleMemberBatchMatchesEnqueueCopyExactly)
{
    const Bytes payload = payloadFor(1, 2048);

    CopyRig legacy;
    Context lctx = legacy.plat.createContext();
    const BufferId lin = lctx.createBuffer(payload);
    const BufferId lout = lctx.createBuffer();
    const Event lev = lctx.queue(legacy.a0).enqueueCopy(lin, lout,
                                                        legacy.a1);
    lctx.finish();
    ASSERT_TRUE(lev.ok());

    CopyRig rig;
    Context ctx = rig.plat.createContext();
    const BufferId in = ctx.createBuffer(payload);
    const BufferId out = ctx.createBuffer();
    BatchOp op;
    op.kind = BatchOp::Kind::Copy;
    op.device = rig.a0;
    op.dst_device = rig.a1;
    op.in = in;
    op.out = out;
    const BatchEvent bev = submitBatch(ctx, {op});
    ctx.finish();
    ASSERT_TRUE(bev.ok());

    // A batch of one is the degenerate case: same bytes, same doorbell
    // count, same notification count, same settle tick.
    EXPECT_EQ(ctx.read(out), lctx.read(lout));
    EXPECT_EQ(rig.plat.fabric().doorbells(),
              legacy.plat.fabric().doorbells());
    EXPECT_EQ(notifies(rig.plat), notifies(legacy.plat));
    EXPECT_EQ(bev.completeTime(), lev.completeTime());
}

TEST(BatchCopies, EightCopiesOneDoorbellOneNotification)
{
    constexpr unsigned kN = 8;
    std::vector<Bytes> payloads;
    for (unsigned i = 0; i < kN; ++i)
        payloads.push_back(payloadFor(i, 1024));

    CopyRig legacy;
    Context lctx = legacy.plat.createContext();
    std::vector<BufferId> louts(kN);
    Tick legacy_mk = 0;
    {
        std::vector<Event> evs;
        for (unsigned i = 0; i < kN; ++i) {
            const BufferId in = lctx.createBuffer(payloads[i]);
            louts[i] = lctx.createBuffer();
            evs.push_back(
                lctx.queue(legacy.a0).enqueueCopy(in, louts[i],
                                                  legacy.a1));
        }
        lctx.finish();
        for (const Event &ev : evs) {
            ASSERT_TRUE(ev.ok());
            legacy_mk = std::max(legacy_mk, ev.completeTime());
        }
    }

    CopyRig rig;
    Context ctx = rig.plat.createContext();
    std::vector<BufferId> outs(kN);
    std::vector<BatchOp> ops;
    for (unsigned i = 0; i < kN; ++i) {
        BatchOp op;
        op.kind = BatchOp::Kind::Copy;
        op.device = rig.a0;
        op.dst_device = rig.a1;
        op.in = ctx.createBuffer(payloads[i]);
        outs[i] = op.out = ctx.createBuffer();
        ops.push_back(op);
    }
    const BatchEvent bev = submitBatch(ctx, ops);
    ctx.finish();
    ASSERT_TRUE(bev.ok());

    // Byte-identical payloads...
    for (unsigned i = 0; i < kN; ++i)
        EXPECT_EQ(ctx.read(outs[i]), lctx.read(louts[i])) << i;

    // ...at one doorbell and one notification instead of one per copy.
    EXPECT_EQ(legacy.plat.fabric().doorbells(), kN);
    EXPECT_EQ(rig.plat.fabric().doorbells(), 1u);
    EXPECT_EQ(notifies(legacy.plat), kN);
    EXPECT_EQ(notifies(rig.plat), 1u);
    EXPECT_EQ(bev.notifications(), 1u);
    EXPECT_EQ(rig.plat.irq().suppressedNotifications(), kN - 1);

    // The saved setups and notifications land in the makespan.
    EXPECT_LT(bev.completeTime(), legacy_mk);
}

TEST(BatchCopies, CoalesceThresholdSplitsTheWindow)
{
    CopyRig rig;
    Context ctx = rig.plat.createContext();
    std::vector<BatchOp> ops;
    for (unsigned i = 0; i < 8; ++i) {
        BatchOp op;
        op.kind = BatchOp::Kind::Copy;
        op.device = rig.a0;
        op.dst_device = rig.a1;
        op.in = ctx.createBuffer(payloadFor(i, 512));
        op.out = ctx.createBuffer();
        ops.push_back(op);
    }
    BatchOptions opts;
    opts.coalesce_threshold = 4;
    const BatchEvent bev = submitBatch(ctx, ops, opts);
    ctx.finish();
    ASSERT_TRUE(bev.ok());
    EXPECT_EQ(bev.notifications(), 2u);
    EXPECT_EQ(rig.plat.irq().suppressedNotifications(), 6u);
}

TEST(BatchCopies, PollModeDeliversWithoutInterrupts)
{
    CopyRig rig;
    Context ctx = rig.plat.createContext();
    std::vector<BufferId> outs(4);
    std::vector<BatchOp> ops;
    for (unsigned i = 0; i < 4; ++i) {
        BatchOp op;
        op.kind = BatchOp::Kind::Copy;
        op.device = rig.a0;
        op.dst_device = rig.a1;
        op.in = ctx.createBuffer(payloadFor(i, 512));
        outs[i] = op.out = ctx.createBuffer();
        ops.push_back(op);
    }
    BatchOptions opts;
    opts.completion = BatchOptions::CompletionMode::Poll;
    const BatchEvent bev = submitBatch(ctx, ops, opts);
    ctx.finish();
    ASSERT_TRUE(bev.ok());
    // Pure completion-record polling: zero interrupts, one poll per
    // member, payload still delivered.
    EXPECT_EQ(rig.plat.irq().interruptsDelivered(), 0u);
    EXPECT_EQ(rig.plat.irq().pollsDelivered(), 4u);
    for (unsigned i = 0; i < 4; ++i)
        EXPECT_EQ(ctx.read(outs[i]), payloadFor(i, 512)) << i;
}

TEST(BatchKernels, KernelAndRestructureMembersMatchLegacyBytes)
{
    const restructure::Kernel rk = tileKernel(16);

    const auto run = [&](bool batched) {
        Platform plat;
        fault::FaultPlan benign;
        plat.setFaultPlan(&benign);
        const auto acc =
            plat.addAccelerator("acc", accel::Domain::Crypto, passKernel);
        const auto drx = plat.addDrx("drx0", {});
        Context ctx = plat.createContext();
        const BufferId kin = ctx.createBuffer(payloadFor(0, 1024));
        const BufferId kout = ctx.createBuffer();
        const BufferId rin = ctx.createBuffer(payloadFor(1, rk.input.bytes()));
        const BufferId rout = ctx.createBuffer();
        if (batched) {
            BatchOp k;
            k.kind = BatchOp::Kind::Kernel;
            k.device = acc;
            k.in = kin;
            k.out = kout;
            BatchOp r;
            r.kind = BatchOp::Kind::Restructure;
            r.device = drx;
            r.in = rin;
            r.out = rout;
            r.kernels = {rk};
            const BatchEvent bev = submitBatch(ctx, {k, r});
            ctx.finish();
            EXPECT_TRUE(bev.ok());
            EXPECT_EQ(bev.notifications(), 1u);
        } else {
            const Event ke = ctx.queue(acc).enqueueKernel(kin, kout);
            const Event re =
                ctx.queue(drx).enqueueRestructure(rk, rin, rout);
            ctx.finish();
            EXPECT_TRUE(ke.ok());
            EXPECT_TRUE(re.ok());
        }
        return std::make_pair(ctx.read(kout), ctx.read(rout));
    };

    const auto legacy = run(false);
    const auto batched = run(true);
    EXPECT_EQ(batched.first, legacy.first);
    EXPECT_EQ(batched.second, legacy.second);
}

TEST(BatchChains, ChainMembersShareTheBatchDoorbell)
{
    CopyRig rig;
    Context ctx = rig.plat.createContext();
    std::vector<BufferId> finals(2);
    std::vector<BatchOp> ops;
    for (unsigned c = 0; c < 2; ++c) {
        const BufferId in = ctx.createBuffer(payloadFor(c, 1024));
        const BufferId mid = ctx.createBuffer();
        finals[c] = ctx.createBuffer();
        ChainOp h0;
        h0.kind = ChainOp::Kind::Copy;
        h0.device = rig.a0;
        h0.dst_device = rig.a1;
        h0.in = in;
        h0.out = mid;
        ChainOp h1;
        h1.kind = ChainOp::Kind::Copy;
        h1.device = rig.a1;
        h1.dst_device = rig.a0;
        h1.in = mid;
        h1.out = finals[c];
        BatchOp op;
        op.kind = BatchOp::Kind::Chain;
        op.chain = {h0, h1};
        ops.push_back(op);
    }
    const BatchEvent bev = submitBatch(ctx, ops);
    ctx.finish();
    ASSERT_TRUE(bev.ok());
    // Four copies across two chain members: ONE full doorbell; every
    // other hop is an engine descriptor fetch.
    EXPECT_EQ(rig.plat.fabric().doorbells(), 1u);
    for (unsigned c = 0; c < 2; ++c)
        EXPECT_EQ(ctx.read(finals[c]), payloadFor(c, 1024)) << c;
}

// ------------------------------------- per-member reliability contract

TEST(BatchReliability, OneFailingMemberNeverPoisonsSiblings)
{
    Platform plat;
    fault::FaultPlan plan;
    plan.scriptKernel(1, fault::KernelAction::Fail); // second kernel
    plat.setFaultPlan(&plan);
    CommandPolicy pol = plat.commandPolicy();
    pol.max_retries = 0; // make the scripted failure terminal
    plat.setCommandPolicy(pol);
    const auto acc =
        plat.addAccelerator("acc", accel::Domain::Crypto, passKernel);
    Context ctx = plat.createContext();

    std::vector<BufferId> outs(4);
    std::vector<BatchOp> ops;
    for (unsigned i = 0; i < 4; ++i) {
        BatchOp op;
        op.kind = BatchOp::Kind::Kernel;
        op.device = acc;
        op.in = ctx.createBuffer(payloadFor(i, 256));
        outs[i] = op.out = ctx.createBuffer();
        ops.push_back(op);
    }
    const BatchEvent bev = submitBatch(ctx, ops);
    ctx.finish();

    EXPECT_EQ(bev.status(), Status::Failed);
    unsigned ok = 0, failed = 0;
    for (unsigned i = 0; i < 4; ++i) {
        const BatchRecord &r = bev.records()[i];
        if (r.status == Status::Ok) {
            ++ok;
            EXPECT_EQ(ctx.read(outs[i]), payloadFor(i, 256)) << i;
            EXPECT_TRUE(bev.member(i).ok()) << i;
        } else {
            ++failed;
            EXPECT_EQ(r.status, Status::Failed) << i;
        }
    }
    EXPECT_EQ(failed, 1u);
    EXPECT_EQ(ok, 3u);
}

TEST(BatchReliability, DeadlineTimesOutOnlyTheHungMember)
{
    Platform plat;
    fault::FaultPlan plan;
    plan.scriptKernel(0, fault::KernelAction::Hang); // first kernel
    plat.setFaultPlan(&plan);
    CommandPolicy pol = plat.commandPolicy();
    pol.max_retries = 0;
    pol.deadline = 50 * tick_per_ms; // generous for healthy members
    plat.setCommandPolicy(pol);
    const auto acc =
        plat.addAccelerator("acc", accel::Domain::Crypto, passKernel);
    Context ctx = plat.createContext();

    std::vector<BufferId> outs(3);
    std::vector<BatchOp> ops;
    for (unsigned i = 0; i < 3; ++i) {
        BatchOp op;
        op.kind = BatchOp::Kind::Kernel;
        op.device = acc;
        op.in = ctx.createBuffer(payloadFor(i, 256));
        outs[i] = op.out = ctx.createBuffer();
        ops.push_back(op);
    }
    const BatchEvent bev = submitBatch(ctx, ops);
    ctx.finish();

    EXPECT_EQ(bev.status(), Status::TimedOut);
    EXPECT_EQ(bev.records()[0].status, Status::TimedOut);
    for (unsigned i = 1; i < 3; ++i) {
        EXPECT_EQ(bev.records()[i].status, Status::Ok) << i;
        EXPECT_EQ(ctx.read(outs[i]), payloadFor(i, 256)) << i;
        // Healthy members must not inherit the hung member's stall:
        // they settle long before the deadline budget runs out.
        EXPECT_LT(bev.records()[i].at, pol.deadline) << i;
    }
}

TEST(BatchReliability, AdmissionShedsPerMemberUnderStaticCap)
{
    Platform plat;
    fault::FaultPlan benign;
    plat.setFaultPlan(&benign);
    robust::RobustConfig rc;
    rc.admission.policy = robust::AdmissionPolicy::StaticCap;
    rc.admission.queue_depth_cap = 2;
    plat.setRobustConfig(rc);
    const auto acc =
        plat.addAccelerator("acc", accel::Domain::Crypto, passKernel);
    Context ctx = plat.createContext();

    std::vector<BufferId> outs(6);
    std::vector<BatchOp> ops;
    for (unsigned i = 0; i < 6; ++i) {
        BatchOp op;
        op.kind = BatchOp::Kind::Kernel;
        op.device = acc;
        op.in = ctx.createBuffer(payloadFor(i, 256));
        outs[i] = op.out = ctx.createBuffer();
        ops.push_back(op);
    }
    const BatchEvent bev = submitBatch(ctx, ops);
    ctx.finish();

    // Admission control applies per member, exactly as if each command
    // had been enqueued alone: with 6 concurrent members against a
    // depth cap of 2, some members shed and the rest complete.
    unsigned ok = 0, shed = 0;
    for (unsigned i = 0; i < 6; ++i) {
        const BatchRecord &r = bev.records()[i];
        if (r.status == Status::Ok) {
            ++ok;
            EXPECT_EQ(ctx.read(outs[i]), payloadFor(i, 256)) << i;
        } else if (r.status == Status::Shed) {
            ++shed;
        }
    }
    EXPECT_EQ(ok + shed, 6u);
    EXPECT_GE(ok, 1u);
    EXPECT_GE(shed, 1u);
    EXPECT_EQ(bev.status(), Status::Shed);
}

// -------------------------------------------- randomized differentials

TEST(BatchDifferential, RandomFaultPlansAreDeterministicAndNeverWrong)
{
    unsigned ok_members = 0;
    for (std::uint64_t seed = 0; seed < 30; ++seed) {
        Rng rng(seed * 9176 + 5);
        fault::FaultSpec fs;
        fs.seed = seed + 1;
        fs.flow_corrupt_prob = rng.uniform(0.0, 0.10);
        fs.kernel_fail_prob = rng.uniform(0.0, 0.10);
        fs.irq_drop_prob = rng.uniform(0.0, 0.05);

        const auto run = [&] {
            Platform plat;
            fault::FaultPlan plan(fs);
            plat.setFaultPlan(&plan);
            const auto a0 = plat.addAccelerator("a0",
                                                accel::Domain::Crypto,
                                                passKernel);
            const auto a1 = plat.addAccelerator("a1",
                                                accel::Domain::Crypto,
                                                passKernel);
            Context ctx = plat.createContext();
            std::vector<BufferId> outs;
            std::vector<BatchOp> ops;
            for (unsigned i = 0; i < 6; ++i) {
                BatchOp op;
                op.kind = i % 2 ? BatchOp::Kind::Kernel
                                : BatchOp::Kind::Copy;
                op.device = a0;
                op.dst_device = a1;
                op.in = ctx.createBuffer(payloadFor(i, 512));
                op.out = ctx.createBuffer();
                outs.push_back(op.out);
                ops.push_back(op);
            }
            const BatchEvent bev = submitBatch(ctx, ops);
            ctx.finish();
            // An Ok member under any fault plan delivered the right
            // bytes: retries replay the command, never corrupt it.
            for (unsigned i = 0; i < 6; ++i)
                if (bev.records()[i].status == Status::Ok) {
                    ++ok_members;
                    EXPECT_EQ(ctx.read(outs[i]), payloadFor(i, 512))
                        << "seed " << seed << " member " << i;
                }
            return digest(ctx, bev, outs);
        };

        const std::string once = run();
        ok_members = 0; // count only the second run
        const std::string twice = run();
        ASSERT_EQ(once, twice) << "seed " << seed;
    }
    EXPECT_GT(ok_members, 0u);
}

TEST(BatchDifferential, RandomIntegrityPlansAreDeterministic)
{
    for (std::uint64_t seed = 0; seed < 20; ++seed) {
        Rng rng(seed * 7741 + 11);
        integrity::IntegritySpec is;
        is.seed = seed + 3;
        is.payload_flip_prob = rng.uniform(0.02, 0.12);

        const auto run = [&] {
            Platform plat;
            fault::FaultPlan benign;
            plat.setFaultPlan(&benign);
            integrity::IntegrityPlan plan(is);
            plat.setIntegrityPlan(&plan);
            const auto a0 = plat.addAccelerator("a0",
                                                accel::Domain::Crypto,
                                                passKernel);
            const auto a1 = plat.addAccelerator("a1",
                                                accel::Domain::Crypto,
                                                passKernel);
            Context ctx = plat.createContext();
            std::vector<BufferId> outs;
            std::vector<BatchOp> ops;
            for (unsigned i = 0; i < 6; ++i) {
                BatchOp op;
                op.kind = BatchOp::Kind::Copy;
                op.device = a0;
                op.dst_device = a1;
                op.in = ctx.createBuffer(payloadFor(i, 512));
                op.out = ctx.createBuffer();
                outs.push_back(op.out);
                ops.push_back(op);
            }
            const BatchEvent bev = submitBatch(ctx, ops);
            ctx.finish();
            return digest(ctx, bev, outs);
        };

        ASSERT_EQ(run(), run()) << "seed " << seed;
    }
}

TEST(BatchDifferential, ResultsAreJobsInvariant)
{
    const auto sweep = [](unsigned jobs) {
        std::vector<std::function<std::string()>> thunks;
        for (std::uint64_t seed = 0; seed < 24; ++seed) {
            thunks.push_back([seed] {
                fault::FaultSpec fs;
                fs.seed = seed + 1;
                fs.kernel_fail_prob = 0.05;
                fs.irq_drop_prob = 0.02;
                Platform plat;
                fault::FaultPlan plan(fs);
                plat.setFaultPlan(&plan);
                const auto a0 = plat.addAccelerator(
                    "a0", accel::Domain::Crypto, passKernel);
                const auto a1 = plat.addAccelerator(
                    "a1", accel::Domain::Crypto, passKernel);
                Context ctx = plat.createContext();
                std::vector<BufferId> outs;
                std::vector<BatchOp> ops;
                for (unsigned i = 0; i < 5; ++i) {
                    BatchOp op;
                    op.kind = i % 2 ? BatchOp::Kind::Kernel
                                    : BatchOp::Kind::Copy;
                    op.device = a0;
                    op.dst_device = a1;
                    op.in = ctx.createBuffer(
                        payloadFor(i, 256 << (seed % 3)));
                    op.out = ctx.createBuffer();
                    outs.push_back(op.out);
                    ops.push_back(op);
                }
                BatchOptions opts;
                opts.coalesce_threshold =
                    static_cast<unsigned>(seed % 4);
                const BatchEvent bev = submitBatch(ctx, ops, opts);
                ctx.finish();
                return digest(ctx, bev, outs);
            });
        }
        exec::ScenarioRunner runner(jobs);
        return runner.run<std::string>(std::move(thunks));
    };

    const auto serial = sweep(1);
    const auto parallel = sweep(8);
    ASSERT_EQ(serial.size(), parallel.size());
    for (std::size_t i = 0; i < serial.size(); ++i)
        EXPECT_EQ(serial[i], parallel[i]) << "seed " << i;
}

// ------------------------------------------------- sys closed loop

TEST(SysBatch, BatchedLoopPaysFewerDoorbellsForTheSameWork)
{
    sys::SystemConfig base;
    base.placement = sys::Placement::BumpInTheWire;
    base.n_apps = 4;
    const std::vector<sys::AppModel> apps{motionApp(4096)};

    sys::SystemConfig batched = base;
    batched.batch = 4;

    const sys::RunStats legacy = sys::simulateSystem(base, apps);
    const sys::RunStats fast = sys::simulateSystem(batched, apps);

    // Same logical work, byte for byte...
    EXPECT_EQ(fast.pcie_bytes, legacy.pcie_bytes);
    EXPECT_EQ(fast.kernel_ticks, legacy.kernel_ticks);
    EXPECT_EQ(fast.restructure_ticks, legacy.restructure_ticks);

    // ...at strictly fewer doorbells and notifications. Suppressed
    // completions show up as polls, not driver round trips.
    EXPECT_GT(legacy.doorbells, 0u);
    EXPECT_LT(fast.doorbells, legacy.doorbells);
    EXPECT_LT(fast.driver_round_trips, legacy.driver_round_trips);
    EXPECT_GT(fast.notifications_suppressed, 0u);
    EXPECT_EQ(legacy.notifications_suppressed, 0u);
    EXPECT_GT(fast.polls, legacy.polls);
}

TEST(SysBatch, BatchOneIsInertAndDeterministic)
{
    sys::SystemConfig cfg;
    cfg.placement = sys::Placement::StandaloneDrx;
    cfg.n_apps = 3;
    const std::vector<sys::AppModel> apps{motionApp(2048)};

    const sys::RunStats a = sys::simulateSystem(cfg, apps);
    cfg.batch = 1; // explicit 1 takes the identical legacy path
    const sys::RunStats b = sys::simulateSystem(cfg, apps);
    EXPECT_EQ(a.makespan_ticks, b.makespan_ticks);
    EXPECT_EQ(a.interrupts, b.interrupts);
    EXPECT_EQ(a.polls, b.polls);
    EXPECT_EQ(a.doorbells, b.doorbells);
    EXPECT_EQ(a.driver_round_trips, b.driver_round_trips);
    EXPECT_EQ(a.notifications_suppressed, 0u);
    EXPECT_EQ(b.notifications_suppressed, 0u);
}

TEST(SysBatch, ComposesWithDescriptorChains)
{
    sys::SystemConfig chained;
    chained.placement = sys::Placement::BumpInTheWire;
    chained.n_apps = 4;
    chained.chain = sys::ChainSubmission::Descriptor;
    const std::vector<sys::AppModel> apps{motionApp(4096)};

    sys::SystemConfig both = chained;
    both.batch = 4;

    const sys::RunStats c = sys::simulateSystem(chained, apps);
    const sys::RunStats cb = sys::simulateSystem(both, apps);
    EXPECT_EQ(cb.pcie_bytes, c.pcie_bytes);
    EXPECT_LT(cb.doorbells, c.doorbells);
    EXPECT_LE(cb.driver_round_trips, c.driver_round_trips);
    EXPECT_GT(cb.notifications_suppressed, 0u);
}

// ------------------------------------------- overload / serving layers

TEST(BatchServe, OverloadBatchingConservesEveryRequest)
{
    sys::OverloadConfig cfg;
    cfg.requests = 64;
    cfg.devices = 2;
    cfg.load = 2.0;
    cfg.batch = 4;
    const sys::OverloadStats st = sys::simulateOverload(cfg);
    EXPECT_EQ(st.offered,
              st.completed + st.shed + st.failed + st.timed_out);
    EXPECT_GT(st.completed, 0u);
    EXPECT_GT(st.goodput_rps, 0.0);
}

TEST(BatchServe, OverloadBatchingSuppressesNotificationsUnderFaults)
{
    sys::OverloadConfig legacy;
    legacy.requests = 64;
    legacy.devices = 2;
    legacy.load = 1.0;
    legacy.fault_rate = 0.1;
    sys::OverloadConfig batched = legacy;
    batched.batch = 4;

    const sys::OverloadStats l = sys::simulateOverload(legacy);
    const sys::OverloadStats b = sys::simulateOverload(batched);
    EXPECT_EQ(l.irq_suppressed, 0u);
    EXPECT_GT(b.irq_suppressed, 0u);
    EXPECT_GT(l.irq_notifications, b.irq_notifications);
    EXPECT_EQ(b.offered,
              b.completed + b.shed + b.failed + b.timed_out);
}

TEST(BatchServe, ServingDisabledMatchesOverloadWithBatching)
{
    sys::OverloadConfig oc;
    oc.requests = 64;
    oc.devices = 2;
    oc.load = 2.0;
    oc.batch = 4;
    testutil::expectOverloadPinned(
        oc, sys::OverloadStats{
                .offered = 64, .completed = 64,
                .goodput_rps = 0x1.c28d15d0adc4ap+17,
                .mean_latency_ms = 0x1.4d39da16616b6p-4,
                .p99_latency_ms = 0x1.2b0c88a47ecffp-3,
                .makespan_ms = 0x1.1c18b502ababfp-2,
                .queue_overflows = 22, .ring_credit_window = 32768,
                .max_ring_high_water = 32768,
                .completed_latency = {64, 0x1.4d39da16616b6p-4,
                                      0x1.44ae85b9e8c48p-4,
                                      0x1.2b0c88a47ecffp-3,
                                      0x1.2b0c88a47ecffp-3},
                .shed_latency = {}, .timeout_latency = {},
            });
}
