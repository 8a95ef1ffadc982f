/**
 * @file
 * Tests for the data-integrity layer: CRC32 checksums, the seeded
 * corruption plan (determinism, scripting, stats taxonomy), the three
 * hardware injection sites (DMA payload flips, DRX scratchpad SEC-DED
 * ECC, PCIe link-CRC replays), end-to-end protected chains with
 * checkpointed recovery, and jobs-invariant determinism of the
 * Integrity trace category.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstring>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "drx/machine.hh"
#include "drx/program.hh"
#include "exec/scenario.hh"
#include "fault/fault.hh"
#include "integrity/chain.hh"
#include "integrity/checksum.hh"
#include "integrity/integrity.hh"
#include "restructure/catalog.hh"
#include "restructure/cpu_exec.hh"
#include "runtime/runtime.hh"
#include "sys/system.hh"
#include "trace/trace.hh"

using namespace dmx;
using namespace dmx::integrity;

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

runtime::Bytes
patternBytes(std::size_t n)
{
    runtime::Bytes b(n);
    for (std::size_t i = 0; i < n; ++i)
        b[i] = static_cast<std::uint8_t>(i * 7 + 3);
    return b;
}

} // namespace

// ------------------------------------------------------------- crc32

TEST(Crc32, KnownAnswerVector)
{
    // The canonical CRC-32/ISO-HDLC check value.
    const std::uint8_t msg[] = {'1', '2', '3', '4', '5',
                                '6', '7', '8', '9'};
    EXPECT_EQ(crc32(msg, sizeof(msg)), 0xCBF43926u);
    EXPECT_EQ(crc32(nullptr, 0), 0u);
}

TEST(Crc32, SingleBitFlipChangesChecksum)
{
    runtime::Bytes data = patternBytes(4096);
    const std::uint32_t ref = crc32(data);
    for (std::size_t bit : {std::size_t{0}, std::size_t{13},
                            std::size_t{4096 * 8 - 1}}) {
        runtime::Bytes flipped = data;
        flipped[bit / 8] ^= static_cast<std::uint8_t>(1u << (bit % 8));
        EXPECT_NE(crc32(flipped), ref) << "bit " << bit;
    }
}

// ---------------------------------------------------- IntegrityPlan

TEST(IntegrityPlan, EqualSeedsMakeEqualDecisions)
{
    IntegritySpec spec;
    spec.seed = 42;
    spec.payload_flip_prob = 0.5;
    spec.scratch_sec_prob = 0.3;
    spec.scratch_ded_prob = 0.1;
    spec.link_crc_prob = 0.5;

    IntegrityPlan a(spec), b(spec);
    for (int i = 0; i < 200; ++i) {
        const auto pa = a.onPayload(512);
        const auto pb = b.onPayload(512);
        EXPECT_EQ(pa.flip, pb.flip);
        EXPECT_EQ(pa.bit, pb.bit);
        EXPECT_EQ(a.onScratch(), b.onScratch());
        EXPECT_EQ(a.onLink(0, 1, 4096), b.onLink(0, 1, 4096));
    }
    EXPECT_GT(a.stats().payload_flips, 0u);
    EXPECT_GT(a.stats().link_crc_replays, 0u);
}

TEST(IntegrityPlan, SitesDrawFromIndependentStreams)
{
    // Interleaving queries at other sites must not perturb a site's
    // decision sequence.
    IntegritySpec spec;
    spec.seed = 7;
    spec.payload_flip_prob = 0.4;
    spec.link_crc_prob = 0.4;

    IntegrityPlan pure(spec), mixed(spec);
    for (int i = 0; i < 100; ++i) {
        const auto a = pure.onPayload(256);
        mixed.onLink(0, 1, 64);
        mixed.onScratch();
        const auto b = mixed.onPayload(256);
        EXPECT_EQ(a.flip, b.flip);
        EXPECT_EQ(a.bit, b.bit);
    }
}

TEST(IntegrityPlan, ScriptsOverrideWithoutPerturbingLaterDraws)
{
    IntegritySpec spec;
    spec.seed = 9;
    spec.payload_flip_prob = 0.5;

    IntegrityPlan plain(spec), scripted(spec);
    scripted.scriptPayload(0, 99);

    const auto s0 = scripted.onPayload(64);
    EXPECT_TRUE(s0.flip);
    EXPECT_EQ(s0.bit, 99u);
    plain.onPayload(64);

    // Every later decision is unchanged by the script.
    for (int i = 0; i < 100; ++i) {
        const auto a = plain.onPayload(64);
        const auto b = scripted.onPayload(64);
        EXPECT_EQ(a.flip, b.flip);
        EXPECT_EQ(a.bit, b.bit);
    }
}

TEST(IntegrityPlan, StatsFollowTheTaxonomy)
{
    IntegrityPlan plan; // all probabilities zero
    plan.scriptPayload(0, 5);
    plan.scriptScratch(0, fault::EccAction::CorrectSingle);
    plan.scriptScratch(1, fault::EccAction::DetectDouble);
    plan.scriptLink(0, 2);

    EXPECT_TRUE(plan.onPayload(16).flip);
    EXPECT_FALSE(plan.onPayload(16).flip);
    EXPECT_EQ(plan.onScratch(), fault::EccAction::CorrectSingle);
    EXPECT_EQ(plan.onScratch(), fault::EccAction::DetectDouble);
    EXPECT_EQ(plan.onScratch(), fault::EccAction::None);
    EXPECT_EQ(plan.onLink(0, 1, 64), 2u);
    EXPECT_EQ(plan.onLink(0, 1, 64), 0u);

    const IntegrityStats &s = plan.stats();
    EXPECT_EQ(s.payloads_seen, 2u);
    EXPECT_EQ(s.payload_flips, 1u);
    EXPECT_EQ(s.scratch_seen, 3u);
    EXPECT_EQ(s.scratch_corrected, 1u);
    EXPECT_EQ(s.scratch_uncorrectable, 1u);
    EXPECT_EQ(s.links_seen, 2u);
    EXPECT_EQ(s.link_crc_replays, 2u);
    // Taxonomy rollups: payload flips are injected but *not* detected
    // (only an end-to-end checksum can see them).
    EXPECT_EQ(s.injected(), 5u);
    EXPECT_EQ(s.detected(), 4u);
    EXPECT_EQ(s.corrected(), 3u);
    EXPECT_EQ(s.uncorrected(), 1u);
}

// ----------------------------------------------- payload flips (DMA)

TEST(PayloadFlip, FlipsExactlyOneBitOfDeliveredCopy)
{
    runtime::Platform plat;
    const auto a = plat.addAccelerator("a0", accel::Domain::FFT, bump);
    const auto b = plat.addAccelerator("a1", accel::Domain::SVM, bump);
    (void)a;

    IntegrityPlan plan;
    plan.scriptPayload(0, 13); // bit 13 = byte 1, bit 5
    plat.setIntegrityPlan(&plan);

    runtime::Context ctx = plat.createContext();
    const runtime::Bytes src_data = patternBytes(64);
    const auto src = ctx.createBuffer(src_data);
    const auto dst = ctx.createBuffer();
    ASSERT_TRUE(ctx.queue(a).enqueueCopy(src, dst, b).valid());
    ctx.finish();

    const runtime::Bytes &got = ctx.read(dst);
    ASSERT_EQ(got.size(), src_data.size());
    runtime::Bytes expect = src_data;
    expect[1] ^= static_cast<std::uint8_t>(1u << 5);
    EXPECT_EQ(got, expect);
    EXPECT_EQ(plan.stats().payload_flips, 1u);
    // The source stays intact: retransmission can always recover.
    EXPECT_EQ(ctx.read(src), src_data);
}

// ------------------------------------------------ link CRC (fabric)

TEST(LinkCrc, ReplaysDelayCopiesByTheModeledLatency)
{
    const auto copyTime = [](IntegrityPlan *plan) {
        runtime::Platform plat;
        const auto a =
            plat.addAccelerator("a0", accel::Domain::FFT, bump);
        const auto b =
            plat.addAccelerator("a1", accel::Domain::SVM, bump);
        if (plan)
            plat.setIntegrityPlan(plan);
        runtime::Context ctx = plat.createContext();
        const auto src = ctx.createBuffer(patternBytes(4096));
        const auto dst = ctx.createBuffer();
        runtime::Event e = ctx.queue(a).enqueueCopy(src, dst, b);
        ctx.finish();
        EXPECT_TRUE(e.ok());
        return e.completeTime();
    };

    const Tick base = copyTime(nullptr);

    IntegrityPlan plan;
    plan.scriptLink(0, 2);
    const Tick delayed = copyTime(&plan);

    // Each replay costs exactly FabricParams::crc_replay_latency
    // (default 600 ns); the payload itself is never corrupted.
    EXPECT_EQ(delayed, base + 2 * 600 * tick_per_ns);
    EXPECT_EQ(plan.stats().link_crc_replays, 2u);
}

// -------------------------------------------- DRX scratchpad SEC-DED

namespace
{

/** A small scale-by-2 program over 16 floats. */
drx::Program
scaleProgram(std::uint64_t in, std::uint64_t out)
{
    using namespace dmx::drx;
    return ProgramBuilder("scale2")
        .loop(0, 4)
        .streamCfg(0, in, DType::F32, 4, 0, 0, 4)
        .streamCfg(1, out, DType::F32, 4, 0, 0, 4)
        .sync()
        .load(0, 0)
        .compute1(VFunc::MulS, 1, 0, 2.0f)
        .store(1, 1)
        .build();
}

} // namespace

TEST(DrxEcc, SingleBitCorrectsInPlaceAtScrubPenalty)
{
    drx::DrxMachine clean, upset;
    const auto in_c = clean.alloc(64), out_c = clean.alloc(64);
    const auto in_u = upset.alloc(64), out_u = upset.alloc(64);
    const runtime::Bytes data = patternBytes(64);
    clean.write(in_c, data.data(), data.size());
    upset.write(in_u, data.data(), data.size());

    IntegrityPlan plan;
    plan.scriptScratch(0, fault::EccAction::CorrectSingle);
    upset.setEccHook([&plan] { return plan.onScratch(); });

    const drx::RunResult base = clean.run(scaleProgram(in_c, out_c));
    const drx::RunResult hit = upset.run(scaleProgram(in_u, out_u));

    // Corrected in place: output identical, one scrub penalty charged.
    EXPECT_EQ(upset.read(out_u, 64), clean.read(out_c, 64));
    EXPECT_FALSE(hit.faulted);
    EXPECT_EQ(hit.ecc_corrected, 1u);
    EXPECT_GT(hit.total_cycles, base.total_cycles);
    EXPECT_EQ(upset.eccCorrected(), 1u);
    EXPECT_EQ(upset.eccUncorrectable(), 0u);
}

TEST(DrxEcc, DoubleBitAbortsTheRun)
{
    drx::DrxMachine m;
    const auto in = m.alloc(64), out = m.alloc(64);
    const runtime::Bytes data = patternBytes(64);
    m.write(in, data.data(), data.size());

    IntegrityPlan plan;
    plan.scriptScratch(0, fault::EccAction::DetectDouble);
    m.setEccHook([&plan] { return plan.onScratch(); });

    const drx::RunResult res = m.run(scaleProgram(in, out));
    EXPECT_TRUE(res.faulted);
    EXPECT_TRUE(res.ecc_uncorrectable);
    EXPECT_EQ(res.bytes_written, 0u);
    EXPECT_EQ(m.eccUncorrectable(), 1u);
}

// ------------------------------------------------------------ chains

namespace
{

/** Three bump stages across three accelerators, with alternates. */
std::vector<ChainStage>
bumpChain(const std::vector<runtime::DeviceId> &devs,
          const std::vector<runtime::DeviceId> &alternates = {})
{
    std::vector<ChainStage> stages;
    for (runtime::DeviceId d : devs) {
        ChainStage st;
        st.device = d;
        st.alternates = alternates;
        stages.push_back(st);
    }
    return stages;
}

runtime::Bytes
bumped(runtime::Bytes b, unsigned times)
{
    for (unsigned t = 0; t < times; ++t)
        for (auto &x : b)
            ++x;
    return b;
}

} // namespace

TEST(Chain, UnprotectedRunMatchesManualPipeline)
{
    runtime::Platform plat;
    const std::vector<runtime::DeviceId> devs{
        plat.addAccelerator("a0", accel::Domain::FFT, bump),
        plat.addAccelerator("a1", accel::Domain::SVM, bump),
        plat.addAccelerator("a2", accel::Domain::Crypto, bump),
    };
    const runtime::Bytes input = patternBytes(256);

    const ChainReport rep = runChain(plat, bumpChain(devs), input);
    ASSERT_TRUE(rep.ok);
    EXPECT_EQ(rep.status, runtime::Status::Ok);
    EXPECT_EQ(rep.output, bumped(input, 3));
    EXPECT_EQ(rep.stages_run, 3u);
    EXPECT_EQ(rep.hops_run, 2u);
    EXPECT_EQ(rep.mismatches_detected, 0u);
    EXPECT_EQ(rep.recoveries(), 0u);
    EXPECT_GT(rep.makespan, 0u);
}

TEST(Chain, SameDeviceStagesSkipTheHop)
{
    runtime::Platform plat;
    const auto a = plat.addAccelerator("a0", accel::Domain::FFT, bump);
    const runtime::Bytes input = patternBytes(64);
    const ChainReport rep = runChain(plat, bumpChain({a, a, a}), input);
    ASSERT_TRUE(rep.ok);
    EXPECT_EQ(rep.output, bumped(input, 3));
    EXPECT_EQ(rep.hops_run, 0u);
}

TEST(Chain, DrxStageRestructuresLikeTheCpuReference)
{
    const restructure::Kernel kernel =
        restructure::melSpectrogram(8, 64, 16);
    // Finite float input (raw byte noise would decode to NaNs, for
    // which banded and dense summation legitimately differ).
    std::vector<float> vals(kernel.input.elems());
    for (std::size_t i = 0; i < vals.size(); ++i)
        vals[i] = std::sin(static_cast<float>(i) * 0.13f);
    runtime::Bytes input(kernel.input.bytes());
    std::memcpy(input.data(), vals.data(), input.size());

    runtime::Platform plat;
    ChainStage st;
    st.device = plat.addDrx("drx0", {});
    st.kernel = kernel;

    const ChainReport rep = runChain(plat, {st}, input);
    ASSERT_TRUE(rep.ok);
    EXPECT_EQ(rep.output, restructure::executeOnCpu(kernel, input));
}

TEST(Chain, SilentCorruptionEscapesWithoutProtection)
{
    runtime::Platform plat;
    const std::vector<runtime::DeviceId> devs{
        plat.addAccelerator("a0", accel::Domain::FFT, bump),
        plat.addAccelerator("a1", accel::Domain::SVM, bump),
        plat.addAccelerator("a2", accel::Domain::Crypto, bump),
    };
    IntegrityPlan plan;
    plan.scriptPayload(0, 21);
    plat.setIntegrityPlan(&plan);

    const runtime::Bytes input = patternBytes(256);
    const ChainReport rep = runChain(plat, bumpChain(devs), input);

    // The chain reports success - and delivers corrupt bytes. This is
    // the SDC escape the end-to-end checksum mode exists to kill.
    ASSERT_TRUE(rep.ok);
    EXPECT_NE(rep.output, bumped(input, 3));
    EXPECT_EQ(rep.mismatches_detected, 0u);
}

TEST(Chain, ChecksumDetectsAndRetransmitsTheHop)
{
    runtime::Platform plat;
    const std::vector<runtime::DeviceId> devs{
        plat.addAccelerator("a0", accel::Domain::FFT, bump),
        plat.addAccelerator("a1", accel::Domain::SVM, bump),
        plat.addAccelerator("a2", accel::Domain::Crypto, bump),
    };
    IntegrityPlan plan;
    plan.scriptPayload(0, 21);
    plat.setIntegrityPlan(&plan);

    ChainConfig cfg;
    cfg.protection = ProtectionMode::E2eChecksum;
    cfg.policy = MismatchPolicy::HopRetransmit;

    const runtime::Bytes input = patternBytes(256);
    const ChainReport rep = runChain(plat, bumpChain(devs), input, cfg);

    ASSERT_TRUE(rep.ok);
    EXPECT_EQ(rep.output, bumped(input, 3));
    EXPECT_EQ(rep.mismatches_detected, 1u);
    EXPECT_EQ(rep.hop_retransmits, 1u);
    EXPECT_EQ(rep.rollbacks, 0u);
    EXPECT_EQ(rep.hops_run, 3u); // 2 clean + 1 retransmit
    EXPECT_EQ(rep.stages_run, 3u);
}

TEST(Chain, RollbackReplayRecoversFromTheCheckpoint)
{
    runtime::Platform plat;
    const std::vector<runtime::DeviceId> devs{
        plat.addAccelerator("a0", accel::Domain::FFT, bump),
        plat.addAccelerator("a1", accel::Domain::SVM, bump),
        plat.addAccelerator("a2", accel::Domain::Crypto, bump),
    };
    IntegrityPlan plan;
    plan.scriptPayload(1, 9); // corrupt the hop into stage 2
    plat.setIntegrityPlan(&plan);

    ChainConfig cfg;
    cfg.protection = ProtectionMode::E2eChecksum;
    cfg.policy = MismatchPolicy::RollbackReplay;
    cfg.checkpoints = false; // rollback target = the chain input

    const runtime::Bytes input = patternBytes(256);
    const ChainReport rep = runChain(plat, bumpChain(devs), input, cfg);

    ASSERT_TRUE(rep.ok);
    EXPECT_EQ(rep.output, bumped(input, 3));
    EXPECT_EQ(rep.mismatches_detected, 1u);
    EXPECT_EQ(rep.rollbacks, 1u);
    EXPECT_EQ(rep.hop_retransmits, 0u);
    // Full-chain replay: stages 0,1 ran twice, stage 2 once.
    EXPECT_EQ(rep.stages_run, 5u);
    EXPECT_EQ(rep.hops_run, 4u);
}

TEST(Chain, ProbabilisticCorruptionNeverEscapesUnderChecksums)
{
    for (const MismatchPolicy policy :
         {MismatchPolicy::HopRetransmit, MismatchPolicy::RollbackReplay}) {
        runtime::Platform plat;
        const std::vector<runtime::DeviceId> devs{
            plat.addAccelerator("a0", accel::Domain::FFT, bump),
            plat.addAccelerator("a1", accel::Domain::SVM, bump),
            plat.addAccelerator("a2", accel::Domain::Crypto, bump),
        };
        IntegritySpec spec;
        spec.seed = 1234;
        spec.payload_flip_prob = 0.35; // brutal per-hop corruption rate
        IntegrityPlan plan(spec);
        plat.setIntegrityPlan(&plan);

        ChainConfig cfg;
        cfg.protection = ProtectionMode::E2eChecksum;
        cfg.policy = policy;
        cfg.checkpoints = true;
        cfg.max_recoveries = 256;

        const runtime::Bytes input = patternBytes(512);
        const ChainReport rep =
            runChain(plat, bumpChain(devs), input, cfg);

        ASSERT_TRUE(rep.ok) << toString(policy);
        EXPECT_EQ(rep.output, bumped(input, 3)) << toString(policy);
        EXPECT_EQ(rep.mismatches_detected, rep.recoveries())
            << toString(policy);
    }
}

TEST(Chain, CheckpointedFailoverReplaysStrictlyFewerStages)
{
    const auto runWithCheckpoints = [](bool checkpoints) {
        runtime::Platform plat;
        const std::vector<runtime::DeviceId> devs{
            plat.addAccelerator("a0", accel::Domain::FFT, bump),
            plat.addAccelerator("a1", accel::Domain::SVM, bump),
            plat.addAccelerator("a2", accel::Domain::Crypto, bump),
        };
        const auto spare =
            plat.addAccelerator("spare", accel::Domain::FFT, bump);

        // Stage 2's device fails every attempt of its first command
        // (attempt queries 2..5 after stages 0 and 1 each consumed
        // one); the resumed stage runs cleanly on the spare.
        fault::FaultPlan fplan;
        for (std::uint64_t n = 2; n <= 5; ++n)
            fplan.scriptKernel(n, fault::KernelAction::Fail);
        plat.setFaultPlan(&fplan);

        auto stages = bumpChain(devs);
        for (auto &st : stages)
            st.alternates = {spare};

        ChainConfig cfg;
        cfg.protection = ProtectionMode::E2eChecksum;
        cfg.checkpoints = checkpoints;

        const runtime::Bytes input = patternBytes(128);
        const ChainReport rep = runChain(plat, stages, input, cfg);
        EXPECT_TRUE(rep.ok);
        EXPECT_EQ(rep.output, bumped(input, 3));
        EXPECT_EQ(rep.failovers, 1u);
        return rep.stages_run;
    };

    const unsigned with_ckpt = runWithCheckpoints(true);
    const unsigned without = runWithCheckpoints(false);
    // Checkpointed recovery resumes at the failed stage (0,1,2-fail,2);
    // without checkpoints the whole chain replays (0,1,2-fail,0,1,2).
    EXPECT_EQ(with_ckpt, 4u);
    EXPECT_EQ(without, 6u);
    EXPECT_LT(with_ckpt, without);
}

TEST(Chain, RecoveryBudgetExhaustionFailsTheChain)
{
    runtime::Platform plat;
    const std::vector<runtime::DeviceId> devs{
        plat.addAccelerator("a0", accel::Domain::FFT, bump),
        plat.addAccelerator("a1", accel::Domain::SVM, bump),
    };
    IntegrityPlan plan;
    for (std::uint64_t n = 0; n < 8; ++n)
        plan.scriptPayload(n, 3); // every delivery corrupts
    plat.setIntegrityPlan(&plan);

    ChainConfig cfg;
    cfg.protection = ProtectionMode::E2eChecksum;
    cfg.max_recoveries = 2;

    const ChainReport rep =
        runChain(plat, bumpChain(devs), patternBytes(64), cfg);
    EXPECT_FALSE(rep.ok);
    EXPECT_EQ(rep.status, runtime::Status::Failed);
    EXPECT_TRUE(rep.output.empty());
    EXPECT_EQ(rep.recoveries(), cfg.max_recoveries);
}

// --------------------------------------- determinism (jobs-invariance)

namespace
{

/**
 * One randomized protected-chain scenario under probabilistic payload
 * flips, SEC-DED upsets and link-CRC replays. @return the serialized
 * Integrity-category trace plus the chain's recovery counters.
 */
std::string
integrityScenario(exec::ScenarioContext &ctx)
{
    const std::uint64_t seed = ctx.rng().next();

    runtime::Platform plat;
    const std::vector<runtime::DeviceId> devs{
        plat.addAccelerator("a0", accel::Domain::FFT, bump),
        plat.addAccelerator("a1", accel::Domain::SVM, bump),
        plat.addAccelerator("a2", accel::Domain::Crypto, bump),
    };
    IntegritySpec spec;
    spec.seed = seed;
    spec.payload_flip_prob = 0.25;
    spec.link_crc_prob = 0.25;
    IntegrityPlan plan(spec);
    plat.setIntegrityPlan(&plan);

    ChainConfig cfg;
    cfg.protection = ProtectionMode::E2eChecksum;
    cfg.policy = MismatchPolicy::RollbackReplay;
    cfg.checkpoints = true;
    cfg.max_recoveries = 128;

    const ChainReport rep =
        runChain(plat, bumpChain(devs), patternBytes(256), cfg);

    const trace::TraceBuffer &tb = ctx.trace();
    std::string out;
    for (const trace::Span &s : tb.spans()) {
        if (s.cat != trace::Category::Integrity)
            continue;
        out += tb.stringAt(s.name) + "|" + tb.stringAt(s.track) + "|" +
               std::to_string(s.begin) + "|" + std::to_string(s.end) +
               "\n";
    }
    out += "flips=" +
           std::to_string(tb.counterTotal("integrity.payload_flips"));
    out += " crc=" + std::to_string(tb.counterTotal("fabric.crc_replays"));
    out += " ok=" + std::to_string(rep.ok);
    out += " rec=" + std::to_string(rep.recoveries());
    out += " makespan=" + std::to_string(rep.makespan);
    return out;
}

} // namespace

TEST(IntegrityDeterminism, TracesAndCountersAreJobsInvariant)
{
    constexpr std::size_t kScenarios = 6;
    const auto fn = std::function<std::string(exec::ScenarioContext &,
                                              std::size_t)>(
        [](exec::ScenarioContext &ctx, std::size_t) {
            return integrityScenario(ctx);
        });

    exec::ScenarioRunner serial(1), pooled(8);
    const std::vector<std::string> a =
        serial.map<std::string>(kScenarios, fn);
    const std::vector<std::string> b =
        pooled.map<std::string>(kScenarios, fn);

    ASSERT_EQ(a.size(), b.size());
    for (std::size_t i = 0; i < a.size(); ++i)
        EXPECT_EQ(a[i], b[i]) << "scenario " << i;

    // The sweep must actually inject something.
    bool any_flip = false;
    for (const std::string &s : a)
        if (s.find("payload_flip") != std::string::npos)
            any_flip = true;
    EXPECT_TRUE(any_flip);
}

// --------------------------------------------- sys closed-loop wiring

TEST(SysIntegrity, LinkCrcReplaysSlowTheClosedLoopDeterministically)
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

    sys::SystemConfig cfg;
    cfg.placement = sys::Placement::BumpInTheWire;
    cfg.n_apps = 2;
    cfg.requests_per_app = 2;

    const sys::RunStats base = sys::simulateSystem(cfg, {app});
    EXPECT_EQ(base.link_crc_replays, 0u);
    EXPECT_EQ(base.integrity_injected, 0u);

    IntegritySpec spec;
    spec.seed = 3;
    spec.link_crc_prob = 1.0; // every flow replays once
    IntegrityPlan plan(spec);
    cfg.integrity_plan = &plan;
    const sys::RunStats hit = sys::simulateSystem(cfg, {app});

    EXPECT_GT(hit.link_crc_replays, 0u);
    EXPECT_EQ(hit.integrity_injected, hit.link_crc_replays);
    EXPECT_EQ(hit.integrity_detected, hit.link_crc_replays);
    EXPECT_EQ(hit.integrity_corrected, hit.link_crc_replays);
    EXPECT_EQ(hit.integrity_uncorrected, 0u);
    EXPECT_EQ(hit.integrity_sdc_escapes, 0u);
    // Replays cost link time, never correctness.
    EXPECT_GT(hit.makespan_ticks, base.makespan_ticks);

    // Deterministic: an identical plan reproduces the run exactly.
    IntegrityPlan plan2(spec);
    cfg.integrity_plan = &plan2;
    const sys::RunStats again = sys::simulateSystem(cfg, {app});
    EXPECT_EQ(again.makespan_ticks, hit.makespan_ticks);
    EXPECT_EQ(again.link_crc_replays, hit.link_crc_replays);
}
