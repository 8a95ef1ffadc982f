/**
 * @file
 * Differential chain-equivalence harness for descriptor-chained DMA
 * submission and the DRX fusion pass (DESIGN.md 7g).
 *
 * The property under test: for ANY well-formed chain, the descriptor-
 * chained submission (integrity::ChainMode::Descriptor) and the fused
 * variant (cfg.fuse) deliver bytes identical to the legacy per-hop
 * loop, with stats consistent with it - fewer driver round trips,
 * never more simulated time - and this holds at every --jobs level,
 * under randomized fault plans, and under randomized corruption plans
 * with end-to-end protection on. Fusion-legality rejections (gather
 * stages, shape-mismatched streams, mid-chain placement changes,
 * DRAM footprint) are pinned alongside, plus the descriptor-fetch
 * golden ticks at the fabric layer and fused-plan memoization in the
 * compiled-kernel cache.
 */

#include <gtest/gtest.h>

#include <array>
#include <cstdint>
#include <cstring>
#include <functional>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "driver/interrupts.hh"
#include "drx/cache.hh"
#include "drx/compiler.hh"
#include "drx/fusion.hh"
#include "exec/scenario.hh"
#include "fault/fault.hh"
#include "integrity/chain.hh"
#include "integrity/checksum.hh"
#include "integrity/integrity.hh"
#include "pcie/fabric.hh"
#include "restructure/catalog.hh"
#include "runtime/chain.hh"
#include "runtime/runtime.hh"
#include "sim/eventq.hh"
#include "util_random_chain.hh"

using namespace dmx;
using namespace dmx::integrity;
using dmx::testutil::randomRuntimeChain;
using dmx::testutil::RuntimeChainSpec;

namespace
{

/**
 * Run the seed's random chain on a fresh platform under @p cfg. A
 * zero-probability fault plan is installed so completion interrupts
 * are modeled: the per-command driver round trips the descriptor
 * chain eliminates then show up in the makespan.
 */
ChainReport
runSeedChain(std::uint64_t seed, const ChainConfig &cfg,
             bool allow_gather = true)
{
    runtime::Platform plat;
    fault::FaultPlan benign;
    plat.setFaultPlan(&benign);
    const RuntimeChainSpec spec =
        randomRuntimeChain(plat, seed, allow_gather);
    return runChain(plat, spec.stages, spec.input, cfg);
}

/** Stable digest of a report for differential comparison. */
std::string
digest(const ChainReport &r)
{
    std::ostringstream os;
    os << static_cast<int>(r.status) << ':' << r.ok << ':'
       << r.makespan << ':' << crc32(r.output) << ':' << r.output.size()
       << ':' << r.stages_run << ':' << r.hops_run << ':'
       << r.mismatches_detected << ':' << r.hop_retransmits << ':'
       << r.rollbacks << ':' << r.failovers << ':' << r.round_trips
       << ':' << r.descriptor_chains << ':' << r.fused_stages;
    return os.str();
}

/** Two-stage DRX kernels chained shape-compatibly for fusion tests. */
restructure::Kernel
affineKernel(const char *name, const restructure::BufferDesc &in,
             float scale)
{
    restructure::Kernel k;
    k.name = name;
    k.input = in;
    k.stages.push_back(
        restructure::mapStage({{restructure::MapFn::Scale, scale}}));
    return k;
}

} // namespace

// ------------------------------------------------- differential harness

TEST(ChainEquiv, FaultFreeDifferentialOver200RandomChains)
{
    for (std::uint64_t seed = 0; seed < 200; ++seed) {
        ChainConfig legacy_cfg;

        ChainConfig chained_cfg;
        chained_cfg.mode = ChainMode::Descriptor;
        // Vary the checkpoint segmentation: whole-chain, 2-stage and
        // 3-stage descriptor chains. (1-stage segments are legal but
        // degenerate - on a hop-free chain they pay exactly the legacy
        // per-command cost, so they would void the strict-win
        // assertions below; the randomized fault/integrity sweeps
        // cover them instead.)
        const unsigned seg_rotation[3] = {0, 2, 3};
        chained_cfg.segment_stages = seg_rotation[seed % 3];

        ChainConfig fused_cfg = chained_cfg;
        fused_cfg.fuse = true;

        const ChainReport legacy = runSeedChain(seed, legacy_cfg);
        const ChainReport chained = runSeedChain(seed, chained_cfg);
        const ChainReport fused = runSeedChain(seed, fused_cfg);

        ASSERT_TRUE(legacy.ok) << "seed " << seed;
        ASSERT_TRUE(chained.ok) << "seed " << seed;
        ASSERT_TRUE(fused.ok) << "seed " << seed;

        // Byte-identical outputs across all three submission modes.
        ASSERT_EQ(chained.output, legacy.output) << "seed " << seed;
        ASSERT_EQ(fused.output, legacy.output) << "seed " << seed;

        // Stats consistent with legacy: same logical work fault-free...
        EXPECT_EQ(chained.stages_run, legacy.stages_run)
            << "seed " << seed;
        EXPECT_EQ(chained.hops_run, legacy.hops_run) << "seed " << seed;
        EXPECT_EQ(fused.stages_run, legacy.stages_run)
            << "seed " << seed;

        // ...but strictly fewer driver round trips (one per segment
        // instead of one per command).
        EXPECT_LT(chained.round_trips, legacy.round_trips)
            << "seed " << seed;
        EXPECT_LE(fused.round_trips, chained.round_trips)
            << "seed " << seed;
        // Makespan: a whole-chain submission strictly wins - one
        // notification amortized over every command, descriptor
        // fetches instead of per-hop DMA setups. Short segments trade
        // differently under the NAPI notification model: legacy's
        // dense completion stream keeps the driver in polled mode
        // (500 ns per completion) while per-segment completions arrive
        // too rarely to poll, so each pays the full interrupt latency.
        // A 2-stage segment replaces only ~2-3 polled completions with
        // one 3 us interrupt and can lose that trade; bound the loss
        // by one interrupt per descriptor chain.
        const Tick irq_lat = driver::InterruptParams{}.interrupt_latency;
        if (chained_cfg.segment_stages == 0) {
            EXPECT_LT(chained.makespan, legacy.makespan)
                << "seed " << seed;
        } else {
            EXPECT_LT(chained.makespan,
                      legacy.makespan +
                          chained.descriptor_chains * irq_lat)
                << "seed " << seed;
        }
        EXPECT_LE(fused.makespan, chained.makespan) << "seed " << seed;
        EXPECT_GE(chained.descriptor_chains, 1u) << "seed " << seed;
        EXPECT_EQ(legacy.descriptor_chains, 0u) << "seed " << seed;
    }
}

TEST(ChainEquiv, ResultsAreJobsInvariant)
{
    // The same differential sweep fanned across worker threads must
    // produce byte-identical digests at --jobs 1 and 8.
    const auto sweep = [](unsigned jobs) {
        std::vector<std::function<std::string()>> thunks;
        for (std::uint64_t seed = 0; seed < 48; ++seed) {
            thunks.push_back([seed] {
                ChainConfig chained;
                chained.mode = ChainMode::Descriptor;
                chained.segment_stages =
                    static_cast<unsigned>(seed % 3);
                ChainConfig fused = chained;
                fused.fuse = true;
                return digest(runSeedChain(seed, chained)) + "|" +
                       digest(runSeedChain(seed, fused)) + "|" +
                       digest(runSeedChain(seed, ChainConfig{}));
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

TEST(ChainEquiv, RandomFaultPlansAreDeterministicAndNeverWrong)
{
    // Under randomized fault plans the recovery paths of the two modes
    // legitimately diverge; what must hold is that each mode is
    // deterministic (identical rerun digests on fresh platforms) and
    // that a chain reporting success delivered the fault-free bytes.
    unsigned completed = 0;
    for (std::uint64_t seed = 0; seed < 60; ++seed) {
        const ChainReport reference = runSeedChain(seed, ChainConfig{});
        ASSERT_TRUE(reference.ok) << "seed " << seed;

        Rng rng(seed * 31337 + 7);
        fault::FaultSpec fs;
        fs.seed = seed + 1;
        fs.flow_corrupt_prob = rng.uniform(0.0, 0.10);
        fs.kernel_fail_prob = rng.uniform(0.0, 0.10);
        fs.drx_fault_prob = rng.uniform(0.0, 0.08);
        fs.irq_drop_prob = rng.uniform(0.0, 0.05);

        const auto faulted = [&](bool fuse) {
            runtime::Platform plat;
            fault::FaultPlan plan(fs);
            plat.setFaultPlan(&plan);
            const RuntimeChainSpec spec = randomRuntimeChain(plat, seed);
            ChainConfig cfg;
            cfg.mode = ChainMode::Descriptor;
            cfg.fuse = fuse;
            cfg.checkpoints = true;
            cfg.segment_stages = static_cast<unsigned>(seed % 3);
            cfg.max_recoveries = 64;
            return runChain(plat, spec.stages, spec.input, cfg);
        };

        const ChainReport once = faulted(seed % 2 == 0);
        const ChainReport twice = faulted(seed % 2 == 0);
        ASSERT_EQ(digest(once), digest(twice)) << "seed " << seed;
        EXPECT_LE(once.recoveries(), 64u) << "seed " << seed;
        if (once.ok) {
            ++completed;
            EXPECT_EQ(once.output, reference.output) << "seed " << seed;
        }
    }
    // The fault rates are mild; most chains must still complete.
    EXPECT_GE(completed, 30u);
}

TEST(ChainEquiv, RandomCorruptionPlansNeverEscapeUnderProtection)
{
    unsigned completed = 0;
    unsigned total_mismatches = 0;
    for (std::uint64_t seed = 0; seed < 60; ++seed) {
        const ChainReport reference = runSeedChain(seed, ChainConfig{});
        ASSERT_TRUE(reference.ok) << "seed " << seed;

        runtime::Platform plat;
        Rng rng(seed * 7741 + 3);
        IntegritySpec is;
        is.seed = seed + 11;
        is.payload_flip_prob = rng.uniform(0.02, 0.12);
        IntegrityPlan plan(is);
        plat.setIntegrityPlan(&plan);

        const RuntimeChainSpec spec = randomRuntimeChain(plat, seed);
        ChainConfig cfg;
        cfg.mode = ChainMode::Descriptor;
        cfg.fuse = seed % 2 == 0;
        cfg.protection = ProtectionMode::E2eChecksum;
        cfg.policy = seed % 2 ? MismatchPolicy::RollbackReplay
                              : MismatchPolicy::HopRetransmit;
        cfg.checkpoints = true;
        cfg.segment_stages = static_cast<unsigned>(seed % 3);
        cfg.max_recoveries = 512;

        const ChainReport rep =
            runChain(plat, spec.stages, spec.input, cfg);
        EXPECT_LE(rep.recoveries(), 512u) << "seed " << seed;
        total_mismatches += rep.mismatches_detected;
        if (rep.ok) {
            ++completed;
            // The integrity contract at descriptor granularity: a
            // successful protected chain never delivers corrupt bytes.
            ASSERT_EQ(rep.output, reference.output) << "seed " << seed;
        }
    }
    EXPECT_GE(completed, 30u);
    // The sweep must actually have exercised detection.
    EXPECT_GT(total_mismatches, 0u);
}

// ------------------------------------------------ fusion legality pins

TEST(FusionLegality, GatherStageIsRejectedButStillRuns)
{
    const restructure::BufferDesc in{DType::F32, {8, 16}};
    const restructure::Kernel affine = affineKernel("aff", in, 1.5f);
    restructure::Kernel gather;
    gather.name = "perm";
    gather.input = in;
    {
        auto idx =
            std::make_shared<std::vector<std::uint32_t>>(in.elems());
        for (std::size_t i = 0; i < idx->size(); ++i)
            (*idx)[i] =
                static_cast<std::uint32_t>(idx->size() - 1 - i);
        gather.stages.push_back(
            restructure::gatherStage(std::move(idx), in.shape));
    }

    const drx::DrxConfig cfg;
    const auto pa = drx::planKernel(affine, cfg);
    const auto pg = drx::planKernel(gather, cfg);
    EXPECT_FALSE(drx::canFusePlans(pa, pg, cfg).ok);
    EXPECT_NE(drx::canFusePlans(pa, pg, cfg).reason.find("gather"),
              std::string::npos);
    EXPECT_FALSE(drx::canFusePlans(pg, pa, cfg).ok);

    // End to end: the fused run silently falls back to back-to-back
    // parts and still delivers legacy-identical bytes.
    const auto run = [&](ChainConfig ccfg) {
        runtime::Platform plat;
        const auto d = plat.addDrx("drx0", {});
        std::vector<ChainStage> stages(2);
        stages[0].device = d;
        stages[0].kernel = affine;
        stages[1].device = d;
        stages[1].kernel = gather;
        runtime::Bytes input(in.bytes());
        for (std::size_t i = 0; i < input.size(); ++i)
            input[i] = static_cast<std::uint8_t>(i % 64);
        return runChain(plat, stages, input, ccfg);
    };
    ChainConfig fused;
    fused.mode = ChainMode::Descriptor;
    fused.fuse = true;
    const ChainReport legacy = run(ChainConfig{});
    const ChainReport attempt = run(fused);
    ASSERT_TRUE(legacy.ok);
    ASSERT_TRUE(attempt.ok);
    EXPECT_EQ(attempt.output, legacy.output);
    EXPECT_EQ(attempt.fused_stages, 0u);
}

TEST(FusionLegality, ShapeMismatchedStreamsAreRejected)
{
    const drx::DrxConfig cfg;
    const restructure::Kernel a =
        affineKernel("a", {DType::F32, {8, 16}}, 2.0f);
    const restructure::Kernel b =
        affineKernel("b", {DType::F32, {8, 24}}, 0.5f);
    const auto fp = drx::planFusedChain({a, b}, cfg);
    EXPECT_FALSE(fp.verdict.ok);
    EXPECT_EQ(fp.compiled, nullptr);
    EXPECT_NE(fp.verdict.reason.find("mismatch"), std::string::npos);

    // Dtype mismatch at equal byte count is rejected too.
    restructure::Kernel c = affineKernel("c", {DType::F32, {8, 16}}, 1.0f);
    c.input.dtype = DType::I32;
    EXPECT_FALSE(
        drx::canFusePlans(drx::planKernel(a, cfg),
                          drx::planKernel(c, cfg), cfg).ok);
}

TEST(FusionLegality, MidChainPlacementChangeBlocksFusion)
{
    const restructure::BufferDesc in{DType::F32, {8, 16}};
    const restructure::Kernel k1 = affineKernel("k1", in, 1.25f);
    const restructure::Kernel k2 = affineKernel("k2", in, 0.75f);
    runtime::Bytes input(in.bytes());
    for (std::size_t i = 0; i < input.size(); ++i)
        input[i] = static_cast<std::uint8_t>(i * 5 + 1);

    const auto run = [&](bool same_device) {
        runtime::Platform plat;
        const auto d0 = plat.addDrx("drx0", {});
        const auto d1 = plat.addDrx("drx1", {});
        std::vector<ChainStage> stages(2);
        stages[0].device = d0;
        stages[0].kernel = k1;
        stages[1].device = same_device ? d0 : d1;
        stages[1].kernel = k2;
        ChainConfig cfg;
        cfg.mode = ChainMode::Descriptor;
        cfg.fuse = true;
        return runChain(plat, stages, input, cfg);
    };

    // Positive control: same device fuses the pair into one plan.
    const ChainReport same = run(true);
    ASSERT_TRUE(same.ok);
    EXPECT_EQ(same.fused_stages, 1u);

    // A placement change between the stages forces a hop; the stages
    // land in different Restructure descriptors and must not fuse.
    const ChainReport split = run(false);
    ASSERT_TRUE(split.ok);
    EXPECT_EQ(split.fused_stages, 0u);
    EXPECT_EQ(split.hops_run, 1u);
    EXPECT_EQ(split.output, same.output);
}

TEST(FusionLegality, ProducerConstantsAboveOutputAreRejected)
{
    // The consumer's shifted footprint lands at [output_addr,
    // output_addr + b.dram_bytes): a producer constant placed above
    // its output region would be clobbered at install time, so
    // legality must reject such a plan even when everything else
    // lines up.
    const drx::DrxConfig cfg;
    const restructure::Kernel a =
        affineKernel("a", {DType::F32, {8, 16}}, 2.0f);
    const restructure::Kernel b =
        affineKernel("b", {DType::F32, {8, 16}}, 0.5f);
    drx::CompiledKernel pa = drx::planKernel(a, cfg);
    const drx::CompiledKernel pb = drx::planKernel(b, cfg);
    ASSERT_TRUE(drx::canFusePlans(pa, pb, cfg).ok);

    pa.consts.push_back({pa.output_addr + 64, {0xAB, 0xCD}});
    const auto v = drx::canFusePlans(pa, pb, cfg);
    EXPECT_FALSE(v.ok);
    EXPECT_NE(v.reason.find("constants above"), std::string::npos);

    // A real-world producer that trips a legality wall: the banded
    // MatVec lowering of the mel filter bank gathers its bands through
    // the hardware Gather, so a mel-spectrogram producer is rejected
    // by the gather rule before its constants are even considered.
    const restructure::Kernel mel = restructure::melSpectrogram(8, 64, 16);
    const auto pm = drx::planKernel(mel, cfg);
    const restructure::Kernel after =
        affineKernel("after", mel.output(), 3.0f);
    const auto pn = drx::planKernel(after, cfg);
    const auto vm = drx::canFusePlans(pm, pn, cfg);
    EXPECT_FALSE(vm.ok);
    EXPECT_NE(vm.reason.find("gather"), std::string::npos);
}

TEST(FusionLegality, FusedFootprintBeyondDramIsRejected)
{
    drx::DrxConfig cfg;
    const restructure::Kernel a =
        affineKernel("a", {DType::F32, {8, 16}}, 2.0f);
    const restructure::Kernel b =
        affineKernel("b", {DType::F32, {8, 16}}, 0.5f);
    const auto pa = drx::planKernel(a, cfg);
    const auto pb = drx::planKernel(b, cfg);
    ASSERT_TRUE(drx::canFusePlans(pa, pb, cfg).ok);

    // Shrink the device DRAM to one byte under the fused footprint:
    // each part still fits alone, the fusion must be rejected.
    const std::uint64_t fused_bytes =
        std::max(pa.dram_bytes, pa.output_addr + pb.dram_bytes);
    cfg.dram_bytes = fused_bytes - 1;
    ASSERT_GE(cfg.dram_bytes, pa.dram_bytes);
    ASSERT_GE(cfg.dram_bytes, pb.dram_bytes);
    const auto v = drx::canFusePlans(pa, pb, cfg);
    EXPECT_FALSE(v.ok);
    EXPECT_NE(v.reason.find("footprint"), std::string::npos);
}

TEST(FusionLegality, FusedPlansAreMemoizedInTheCache)
{
    drx::DrxCacheConfig cc;
    cc.enabled = true;
    drx::ProgramCache cache(cc);
    const drx::DrxConfig cfg;
    const std::vector<restructure::Kernel> parts{
        affineKernel("a", {DType::F32, {8, 16}}, 2.0f),
        affineKernel("b", {DType::F32, {8, 16}}, 0.5f)};

    const auto first = drx::planFusedChain(parts, cfg, &cache, 0);
    ASSERT_TRUE(first.verdict.ok);
    ASSERT_NE(first.compiled, nullptr);
    EXPECT_FALSE(first.cache_hit);

    const auto second = drx::planFusedChain(parts, cfg, &cache, 1);
    ASSERT_TRUE(second.verdict.ok);
    EXPECT_TRUE(second.cache_hit);
    EXPECT_EQ(second.key, first.key);
    // The memo returns the same compiled object: a retry reinstalls
    // instead of recompiling.
    EXPECT_EQ(second.compiled.get(), first.compiled.get());

    // The fused entry is keyed apart from its parts' plain entries.
    const auto plain = cache.lookup(parts[0], cfg, 2);
    EXPECT_NE(plain.key, first.key);
}

// -------------------------------------------- fabric descriptor ticks

TEST(ChainDescriptor, FollowOnDescriptorsPayFetchNotSetup)
{
    // Golden ticks: a first descriptor costs exactly what a plain
    // checked flow costs; every follow-on descriptor is cheaper by
    // dma_setup - desc_fetch_latency.
    const auto flowTicks = [](int kind) {
        sim::EventQueue eq;
        pcie::Fabric fab(eq, "fab");
        const auto rc = fab.addNode(pcie::NodeKind::RootComplex, "rc");
        const auto sw = fab.addNode(pcie::NodeKind::Switch, "sw");
        const auto e0 = fab.addNode(pcie::NodeKind::EndPoint, "e0");
        const auto e1 = fab.addNode(pcie::NodeKind::EndPoint, "e1");
        fab.connect(rc, sw, pcie::Generation::Gen3, 8);
        fab.connect(sw, e0, pcie::Generation::Gen3, 16);
        fab.connect(sw, e1, pcie::Generation::Gen3, 16);
        Tick done = 0;
        const auto cb = [&](bool ok) {
            ASSERT_TRUE(ok);
            done = eq.now();
        };
        if (kind == 0)
            fab.startFlowChecked(e0, e1, 4096, cb);
        else
            fab.startDescriptorFlow({e0, e1, 4096}, kind == 1, cb);
        eq.run();
        return done;
    };

    const Tick checked = flowTicks(0);
    const Tick first = flowTicks(1);
    const Tick follow = flowTicks(2);
    EXPECT_EQ(first, checked);
    const pcie::FabricParams params;
    ASSERT_GT(params.dma_setup, params.desc_fetch_latency);
    EXPECT_EQ(follow + params.dma_setup - params.desc_fetch_latency,
              first);
}

namespace
{

/**
 * Walk @p chain from descriptor @p i on: each descriptor starts from
 * the previous one's completion, the walk stops at the first corrupted
 * delivery, and @p done gets the outcome at the last delivery. The
 * chain lives on the caller's stack for the whole walk.
 */
void
walkDescriptors(pcie::Fabric &fab,
                const std::vector<pcie::DmaDescriptor> &chain,
                std::size_t i, std::function<void(bool)> done)
{
    fab.startDescriptorFlow(
        chain[i], /*first_descriptor=*/i == 0,
        [&fab, &chain, i, done = std::move(done)](bool ok) {
            if (!ok || i + 1 == chain.size()) {
                done(ok);
                return;
            }
            walkDescriptors(fab, chain, i + 1, done);
        });
}

} // namespace

TEST(ChainDescriptor, ChainWalksAutonomouslyAndCountsFetches)
{
    sim::EventQueue eq;
    pcie::Fabric fab(eq, "fab");
    const auto rc = fab.addNode(pcie::NodeKind::RootComplex, "rc");
    const auto sw = fab.addNode(pcie::NodeKind::Switch, "sw");
    const auto e0 = fab.addNode(pcie::NodeKind::EndPoint, "e0");
    const auto e1 = fab.addNode(pcie::NodeKind::EndPoint, "e1");
    fab.connect(rc, sw, pcie::Generation::Gen3, 8);
    fab.connect(sw, e0, pcie::Generation::Gen3, 16);
    fab.connect(sw, e1, pcie::Generation::Gen3, 16);

    // One submission, three linked descriptors: one doorbell + two
    // fetches, strictly in order, one completion callback.
    const std::vector<pcie::DmaDescriptor> chain = {
        {e0, e1, 4096}, {e1, e0, 4096}, {e0, e1, 4096}};
    int done_calls = 0;
    Tick done_at = 0;
    walkDescriptors(fab, chain, 0, [&](bool ok) {
        EXPECT_TRUE(ok);
        ++done_calls;
        done_at = eq.now();
    });
    eq.run();
    EXPECT_EQ(done_calls, 1);
    EXPECT_GT(done_at, 0u);
    EXPECT_EQ(fab.doorbells(), 1u);
    EXPECT_EQ(fab.descriptorFetches(), 2u);
}

TEST(ChainDescriptor, PerDescriptorFaultHooksStillConsulted)
{
    // The fault hook must be queried once per descriptor, exactly as
    // for individually submitted flows: script the second flow of the
    // process to corrupt and the chain must fail on descriptor #2.
    sim::EventQueue eq;
    pcie::Fabric fab(eq, "fab");
    const auto rc = fab.addNode(pcie::NodeKind::RootComplex, "rc");
    const auto sw = fab.addNode(pcie::NodeKind::Switch, "sw");
    const auto e0 = fab.addNode(pcie::NodeKind::EndPoint, "e0");
    const auto e1 = fab.addNode(pcie::NodeKind::EndPoint, "e1");
    fab.connect(rc, sw, pcie::Generation::Gen3, 8);
    fab.connect(sw, e0, pcie::Generation::Gen3, 16);
    fab.connect(sw, e1, pcie::Generation::Gen3, 16);

    fault::FaultPlan plan;
    plan.scriptFlow(1, fault::FlowAction::Corrupt);
    fab.setFaultHook([&plan](std::uint32_t src, std::uint32_t dst,
                             std::uint64_t bytes) {
        return plan.onFlow(src, dst, bytes);
    });

    const std::vector<pcie::DmaDescriptor> chain = {{e0, e1, 2048},
                                                    {e1, e0, 2048}};
    bool called = false;
    bool result = true;
    walkDescriptors(fab, chain, 0, [&](bool ok) {
        called = true;
        result = ok;
    });
    eq.run();
    EXPECT_TRUE(called);
    EXPECT_FALSE(result);
    EXPECT_EQ(fab.descriptorFetches(), 1u);
}
