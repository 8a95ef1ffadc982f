/**
 * @file
 * Tests for the DRX compiled-kernel cache (src/drx/cache.*):
 * cached-vs-uncached byte and tick identity over the whole catalog,
 * LRU eviction, counter exactness, fault-plan identity, retry plan
 * reuse in the runtime, and jobs-count invariance under the parallel
 * scenario engine.
 */

#include <gtest/gtest.h>

#include <cstring>

#include "common/random.hh"
#include "drx/cache.hh"
#include "drx/compiler.hh"
#include "drx/machine.hh"
#include "exec/scenario.hh"
#include "fault/fault.hh"
#include "restructure/catalog.hh"
#include "restructure/cpu_exec.hh"
#include "runtime/runtime.hh"

using namespace dmx;
using namespace dmx::drx;
using restructure::Bytes;
using restructure::Kernel;

namespace
{

Bytes
randomInput(const restructure::BufferDesc &desc, std::uint64_t seed)
{
    Rng rng(seed);
    Bytes out(desc.bytes());
    if (desc.dtype == DType::F32) {
        for (std::size_t i = 0; i < desc.elems(); ++i) {
            const float v = static_cast<float>(rng.uniform(-1, 1));
            std::memcpy(&out[i * 4], &v, 4);
        }
    } else {
        for (auto &b : out)
            b = static_cast<std::uint8_t>(rng.below(256));
    }
    return out;
}

/** Every catalog builder, at small-but-nontrivial sizes. */
std::vector<Kernel>
fullCatalog()
{
    std::vector<Kernel> ks;
    ks.push_back(restructure::melSpectrogram(16, 65, 24));
    ks.push_back(restructure::videoFrameRestructure(48, 64, 32));
    ks.push_back(restructure::brainSignalRestructure(16, 65, 8));
    ks.push_back(restructure::textRecordRestructure(4096, 64, 80));
    ks.push_back(restructure::nerTokenRestructure(2048, 32, 16));
    ks.push_back(restructure::dbColumnarize(256, false));
    ks.push_back(restructure::dbColumnarize(256, true));
    ks.push_back(restructure::vectorReduction(4, 512));
    return ks;
}

void
expectSameResult(const RunResult &a, const RunResult &b)
{
    EXPECT_EQ(a.total_cycles, b.total_cycles);
    EXPECT_EQ(a.compute_cycles, b.compute_cycles);
    EXPECT_EQ(a.mem_cycles, b.mem_cycles);
    EXPECT_EQ(a.bytes_read, b.bytes_read);
    EXPECT_EQ(a.bytes_written, b.bytes_written);
    EXPECT_EQ(a.dyn_instructions, b.dyn_instructions);
    EXPECT_EQ(a.faulted, b.faulted);
}

} // namespace

// --------------------------------------------------- on/off identity

TEST(DrxCache, CachedMatchesUncachedOverFullCatalog)
{
    for (const Kernel &kernel : fullCatalog()) {
        SCOPED_TRACE(kernel.name);
        const Bytes input = randomInput(kernel.input, 11);

        DrxMachine plain;
        Bytes plain_out;
        const RunResult ref =
            runKernelOnDrx(kernel, input, plain, &plain_out);

        ProgramCache cache;
        DrxMachine machine;
        Bytes out;
        // Cold, warm-with-output, warm-timing-only: all must agree
        // with the uncached reference bit for bit and tick for tick.
        const RunResult cold =
            runKernelOnDrxCached(kernel, input, machine, &out, 0, &cache);
        expectSameResult(cold, ref);
        EXPECT_EQ(out, plain_out);

        machine.resetAlloc();
        out.clear();
        const RunResult warm =
            runKernelOnDrxCached(kernel, input, machine, &out, 0, &cache);
        expectSameResult(warm, ref);
        EXPECT_EQ(out, plain_out);

        machine.resetAlloc();
        const RunResult timing =
            runKernelOnDrxCached(kernel, input, machine, nullptr, 0,
                                 &cache);
        expectSameResult(timing, ref);
    }
}

TEST(DrxCache, RebasedInstallMatchesBaseZero)
{
    const Kernel kernel = restructure::melSpectrogram(16, 65, 24);
    const Bytes input = randomInput(kernel.input, 5);

    DrxMachine plain;
    Bytes plain_out;
    const RunResult ref = runKernelOnDrx(kernel, input, plain, &plain_out);

    // A machine whose allocator is not at zero forces installPlan() to
    // rebase the shared plan; outputs and timing must not move.
    ProgramCache cache;
    DrxMachine machine;
    machine.alloc(4096 + 17);
    Bytes out;
    const RunResult r =
        runKernelOnDrxCached(kernel, input, machine, &out, 0, &cache);
    expectSameResult(r, ref);
    EXPECT_EQ(out, plain_out);
}

// --------------------------------------------------- hashing & equality

TEST(DrxCache, StructuralHashIgnoresNameDiscriminatesStructure)
{
    const DrxConfig cfg;
    Kernel a = restructure::melSpectrogram(16, 65, 24);
    Kernel b = a;
    b.name = "renamed";
    EXPECT_EQ(kernelStructuralHash(a, cfg), kernelStructuralHash(b, cfg));
    EXPECT_TRUE(kernelStructurallyEqual(a, b));

    const Kernel c = restructure::melSpectrogram(16, 65, 32);
    EXPECT_NE(kernelStructuralHash(a, cfg), kernelStructuralHash(c, cfg));
    EXPECT_FALSE(kernelStructurallyEqual(a, c));

    DrxConfig other;
    other.freq_hz *= 2;
    EXPECT_NE(kernelStructuralHash(a, cfg), kernelStructuralHash(a, other));
    EXPECT_FALSE(drxConfigEqual(cfg, other));
    EXPECT_TRUE(drxConfigEqual(cfg, DrxConfig{}));
}

TEST(DrxCache, HashSeesWeightContents)
{
    // Two kernels identical except for one weight value must land on
    // different keys (same shapes, different constants).
    const DrxConfig cfg;
    Kernel a = restructure::melSpectrogram(16, 65, 24);
    Kernel b = a;
    for (auto &stage : b.stages) {
        if (stage.weights && !stage.weights->empty()) {
            auto w = std::make_shared<std::vector<float>>(*stage.weights);
            (*w)[0] += 1.0f;
            stage.weights = std::move(w);
            break;
        }
    }
    EXPECT_NE(kernelStructuralHash(a, cfg), kernelStructuralHash(b, cfg));
    EXPECT_FALSE(kernelStructurallyEqual(a, b));
}

// ------------------------------------------------------ LRU eviction

TEST(DrxCache, LruEvictsLeastRecentlyUsed)
{
    // capacity + 1 distinct kernels: one Scale map each, told apart by
    // its factor.
    const auto kernel = [](std::size_t i) {
        Kernel k;
        k.name = "scale" + std::to_string(i);
        k.input = {DType::F32, {4, 16}};
        k.stages.push_back(restructure::mapStage(
            {{restructure::MapFn::Scale, 1.0f + static_cast<float>(i)}}));
        return k;
    };
    constexpr std::size_t cap = ProgramCache::capacity;
    static_assert(cap == 64);
    ProgramCache cache;
    const DrxConfig hw;

    for (std::size_t i = 0; i < cap; ++i)
        EXPECT_FALSE(cache.lookup(kernel(i), hw).hit);
    EXPECT_EQ(cache.size(), cap);
    EXPECT_EQ(cache.counters().evictions, 0u);
    EXPECT_TRUE(cache.lookup(kernel(0), hw).hit); // refresh 0; 1 is LRU
    EXPECT_FALSE(cache.lookup(kernel(cap), hw).hit); // evicts 1
    EXPECT_EQ(cache.size(), cap);
    EXPECT_EQ(cache.counters().evictions, 1u);

    EXPECT_TRUE(cache.lookup(kernel(0), hw).hit);
    EXPECT_TRUE(cache.lookup(kernel(cap), hw).hit);
    EXPECT_FALSE(cache.lookup(kernel(1), hw).hit); // evicted: miss again
    EXPECT_EQ(cache.counters().evictions, 2u);     // ... which evicted 2
    EXPECT_TRUE(cache.lookup(kernel(3), hw).hit);
    EXPECT_FALSE(cache.lookup(kernel(2), hw).hit);
}

TEST(DrxCache, ClearDropsEntriesKeepsCounters)
{
    ProgramCache cache;
    const DrxConfig hw;
    cache.lookup(restructure::vectorReduction(4, 512), hw);
    cache.lookup(restructure::vectorReduction(4, 512), hw);
    EXPECT_EQ(cache.size(), 1u);
    cache.clear();
    EXPECT_EQ(cache.size(), 0u);
    EXPECT_EQ(cache.counters().compile_hits, 1u);
    EXPECT_EQ(cache.counters().compile_misses, 1u);
}

// -------------------------------------------------- counter exactness

TEST(DrxCache, CountersAreExact)
{
    const Kernel video = restructure::videoFrameRestructure(48, 64, 32);
    const Kernel mel = restructure::melSpectrogram(16, 65, 24);
    const Bytes video_in = randomInput(video.input, 1);
    const Bytes mel_in = randomInput(mel.input, 2);

    ProgramCache cache;
    DrxMachine machine;
    // video: miss, then 2 warm timing-only runs.
    runKernelOnDrxCached(video, video_in, machine, nullptr, 0, &cache);
    machine.resetAlloc();
    runKernelOnDrxCached(video, video_in, machine, nullptr, 0, &cache);
    machine.resetAlloc();
    runKernelOnDrxCached(video, video_in, machine, nullptr, 0, &cache);
    // mel: miss, then one more run.
    machine.resetAlloc();
    runKernelOnDrxCached(mel, mel_in, machine, nullptr, 0, &cache);
    machine.resetAlloc();
    runKernelOnDrxCached(mel, mel_in, machine, nullptr, 0, &cache);

    const CacheCounters &c = cache.counters();
    EXPECT_EQ(c.compile_misses, 2u); // one per distinct kernel
    EXPECT_EQ(c.compile_hits, 3u);   // video x2 + mel x1 warm lookups
    EXPECT_EQ(c.timing_hits, 0u);    // plans only: nothing is replayed
    EXPECT_EQ(c.evictions, 0u);
    EXPECT_DOUBLE_EQ(c.hitRate(), 3.0 / 5.0);
}

TEST(DrxCache, GlobalCountersAggregate)
{
    ProgramCache::resetGlobalCounters();
    const Kernel k = restructure::vectorReduction(4, 512);
    const Bytes in = randomInput(k.input, 4);
    ProgramCache cache;
    DrxMachine machine;
    runKernelOnDrxCached(k, in, machine, nullptr, 0, &cache);
    machine.resetAlloc();
    runKernelOnDrxCached(k, in, machine, nullptr, 0, &cache);

    const CacheCounters g = ProgramCache::globalCounters();
    EXPECT_EQ(g.compile_misses, 1u);
    EXPECT_EQ(g.compile_hits, 1u);
    ProgramCache::resetGlobalCounters();
    EXPECT_EQ(ProgramCache::globalCounters().compile_hits, 0u);
}

// --------------------------------------------- fault-plan identity

TEST(DrxCache, RandomizedFaultPlanIdenticalOnAndOff)
{
    // Both arms consume the fault Rng stream identically: the cached
    // arm asks the machine hook once per stage program, like the
    // uncached one.
    const Kernel kernel = restructure::videoFrameRestructure(48, 64, 32);
    const Bytes input = randomInput(kernel.input, 21);
    fault::FaultSpec spec;
    spec.seed = 99;
    spec.drx_fault_prob = 0.4;

    fault::FaultPlan plan_ref(spec);
    DrxMachine plain;
    plain.setFaultHook([&plan_ref] { return plan_ref.onMachine(); });

    fault::FaultPlan plan_cached(spec);
    ProgramCache cache;
    DrxMachine machine;
    machine.setFaultHook([&plan_cached] { return plan_cached.onMachine(); });

    bool saw_fault = false, saw_clean = false;
    for (int i = 0; i < 16; ++i) {
        plain.resetAlloc();
        const RunResult ref = runKernelOnDrx(kernel, input, plain);
        machine.resetAlloc();
        const RunResult got =
            runKernelOnDrxCached(kernel, input, machine, nullptr, 0,
                                 &cache);
        SCOPED_TRACE(i);
        expectSameResult(got, ref);
        (ref.faulted ? saw_fault : saw_clean) = true;
    }
    EXPECT_TRUE(saw_fault);
    EXPECT_TRUE(saw_clean);
    EXPECT_EQ(plan_ref.stats().machine_faults,
              plan_cached.stats().machine_faults);
}

// ------------------------------------------------- runtime integration

TEST(DrxCacheRuntime, FaultRetryIdenticalWithCacheOnAndOff)
{
    // A faulted submission whose plan comes out of a warmed cache
    // retries exactly like the same submission planned on a cold
    // platform: same retries, settle tick relative to submission and
    // output bytes.
    const Kernel kernel = restructure::melSpectrogram(8, 64, 16);
    std::vector<float> vals(kernel.input.elems());
    for (std::size_t i = 0; i < vals.size(); ++i)
        vals[i] = std::sin(static_cast<float>(i) * 0.13f);
    Bytes input(kernel.input.bytes());
    std::memcpy(input.data(), vals.data(), input.size());

    const auto run = [&](bool warm) {
        fault::FaultPlan plan;
        plan.scriptMachine(0, fault::MachineAction::Fault);
        runtime::Platform plat;
        const runtime::DeviceId drx = plat.addDrx("drx0", {});
        runtime::Context ctx = plat.createContext();
        const runtime::BufferId in = ctx.createBuffer(input);
        if (warm) {
            ctx.queue(drx).enqueueRestructure(kernel, in,
                                              ctx.createBuffer());
            ctx.finish();
        }
        plat.setFaultPlan(&plan);
        const runtime::BufferId out = ctx.createBuffer();
        const Tick submit = plat.now();
        runtime::Event ev = ctx.queue(drx).enqueueRestructure(kernel, in,
                                                              out);
        ctx.finish();
        EXPECT_EQ(plat.drxCache().counters().compile_hits, warm ? 1u : 0u);
        EXPECT_EQ(plat.drxCache().counters().compile_misses, 1u);
        return std::tuple(ev.ok(), ev.retries(),
                          ev.completeTime() - submit, ctx.read(out));
    };

    const auto hit = run(true);
    const auto cold = run(false);
    EXPECT_TRUE(std::get<0>(hit));
    EXPECT_EQ(std::get<1>(hit), 1u);
    EXPECT_EQ(hit, cold); // same status, retries, settle tick and bytes
    EXPECT_EQ(std::get<3>(hit),
              restructure::executeOnCpu(kernel, input));
}

TEST(DrxCacheRuntime, RetryReusesCompiledPlan)
{
    const Kernel kernel = restructure::textRecordRestructure(4096, 64, 80);
    const Bytes input = randomInput(kernel.input, 17);

    runtime::Platform plat;
    const runtime::DeviceId drx = plat.addDrx("drx0", {});
    fault::FaultPlan plan;
    plan.scriptMachine(0, fault::MachineAction::Fault);
    plat.setFaultPlan(&plan);

    runtime::Context ctx = plat.createContext();
    const runtime::BufferId in = ctx.createBuffer(input);
    const runtime::BufferId out = ctx.createBuffer();
    runtime::Event ev = ctx.queue(drx).enqueueRestructure(kernel, in, out);
    ctx.finish();
    EXPECT_TRUE(ev.ok());
    EXPECT_EQ(ev.retries(), 1u);
    // One compile at enqueue; the retry re-installed the same plan
    // instead of recompiling (no second lookup, no second miss).
    EXPECT_EQ(plat.drxCache().counters().compile_misses, 1u);
    EXPECT_EQ(plat.drxCache().counters().compile_hits, 0u);

    // A second enqueue of the same kernel hits.
    const runtime::BufferId out2 = ctx.createBuffer();
    runtime::Event ev2 = ctx.queue(drx).enqueueRestructure(kernel, in,
                                                           out2);
    ctx.finish();
    EXPECT_TRUE(ev2.ok());
    EXPECT_EQ(plat.drxCache().counters().compile_hits, 1u);
    EXPECT_EQ(ctx.read(out2), ctx.read(out));
}

// --------------------------------------------- parallel jobs identity

TEST(DrxCacheExec, JobsOneVsEightIdentical)
{
    // Thread-local process() caches keep workers independent, so the
    // simulated cycle counts cannot depend on the worker count.
    const auto make_thunks = [] {
        std::vector<std::function<std::uint64_t()>> thunks;
        for (int rep = 0; rep < 3; ++rep) {
            for (const Kernel &kernel : fullCatalog()) {
                thunks.push_back([kernel] {
                    const Bytes input = randomInput(kernel.input, 11);
                    DrxMachine machine;
                    return runKernelOnDrxCached(kernel, input, machine)
                        .total_cycles;
                });
            }
        }
        return thunks;
    };

    exec::ScenarioRunner serial(1);
    const std::vector<std::uint64_t> a =
        serial.run<std::uint64_t>(make_thunks());
    exec::ScenarioRunner wide(8);
    const std::vector<std::uint64_t> b =
        wide.run<std::uint64_t>(make_thunks());
    EXPECT_EQ(a, b);
    for (std::uint64_t cycles : a)
        EXPECT_GT(cycles, 0u);
}
