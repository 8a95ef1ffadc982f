/**
 * @file
 * Parameterized property-style sweeps (TEST_P / INSTANTIATE_TEST_SUITE_P):
 * cross-implementation equivalences and conservation laws that must hold
 * for every point of a swept parameter space.
 */

#include <gtest/gtest.h>

#include <cstring>
#include <ostream>
#include <regex>

#include "common/dtype.hh"
#include "common/random.hh"
#include "cpu/core_pool.hh"
#include "drx/compiler.hh"
#include "exec/scenario.hh"
#include "fault/fault.hh"
#include "kernels/aes.hh"
#include "kernels/lz.hh"
#include "kernels/regex.hh"
#include "pcie/fabric.hh"
#include "restructure/catalog.hh"
#include "restructure/cpu_exec.hh"
#include "sys/system.hh"
#include "util_random_chain.hh"
#include "trace/trace.hh"

using namespace dmx;

namespace
{

restructure::Bytes
randomBytesFor(const restructure::BufferDesc &desc, std::uint64_t seed)
{
    Rng rng(seed);
    restructure::Bytes out(desc.bytes());
    if (desc.dtype == DType::F32) {
        for (std::size_t i = 0; i < desc.elems(); ++i) {
            const float v = static_cast<float>(rng.uniform(-3.0, 3.0));
            std::memcpy(&out[i * 4], &v, 4);
        }
    } else {
        for (auto &b : out)
            b = static_cast<std::uint8_t>(rng.below(256));
    }
    return out;
}

} // namespace

// ------------------------------------------------------------------
// Property: for every catalog kernel, every DRX lane configuration
// produces the same bytes as the CPU reference executor - timing knobs
// must never change functional results.

struct DrxEquivCase
{
    const char *name;
    restructure::Kernel kernel;
    unsigned lanes;
};

// Without a PrintTo, gtest prints a parameter's raw bytes (heap and
// string addresses included) and those bytes end up in the ctest names.
void
PrintTo(const DrxEquivCase &c, std::ostream *os)
{
    *os << c.name << '/' << c.lanes;
}

class DrxLaneEquivalence : public ::testing::TestWithParam<DrxEquivCase>
{
};

TEST_P(DrxLaneEquivalence, BitExactAcrossLaneCounts)
{
    const DrxEquivCase &c = GetParam();
    const auto input = randomBytesFor(c.kernel.input, 42);
    const auto expect = restructure::executeOnCpu(c.kernel, input);

    drx::DrxConfig cfg;
    cfg.lanes = c.lanes;
    drx::DrxMachine machine(cfg);
    restructure::Bytes got;
    drx::runKernelOnDrx(c.kernel, input, machine, &got);
    EXPECT_EQ(got, expect) << c.name << " lanes=" << c.lanes;
}

namespace
{

std::vector<DrxEquivCase>
laneCases()
{
    std::vector<DrxEquivCase> cases;
    for (unsigned lanes : {16u, 64u, 128u, 256u}) {
        cases.push_back({"mel", restructure::melSpectrogram(8, 128, 16),
                         lanes});
        cases.push_back({"video",
                         restructure::videoFrameRestructure(96, 128, 32),
                         lanes});
        cases.push_back({"db",
                         restructure::dbColumnarize(512, true), lanes});
        cases.push_back({"reduce",
                         restructure::vectorReduction(4, 128), lanes});
    }
    return cases;
}

} // namespace

INSTANTIATE_TEST_SUITE_P(
    Catalog, DrxLaneEquivalence, ::testing::ValuesIn(laneCases()),
    [](const ::testing::TestParamInfo<DrxEquivCase> &info) {
        return std::string(info.param.name) + "_lanes" +
               std::to_string(info.param.lanes);
    });

// ------------------------------------------------------------------
// Property: timing knobs (double buffering, hardware loops) change
// cycles monotonically but never the output bytes.

class DrxTimingKnobs : public ::testing::TestWithParam<int>
{
};

TEST_P(DrxTimingKnobs, KnobsPreserveFunction)
{
    const auto kernel = restructure::melSpectrogram(8, 64, 16);
    const auto input = randomBytesFor(kernel.input, 9);
    const auto expect = restructure::executeOnCpu(kernel, input);

    drx::DrxConfig cfg;
    cfg.double_buffer = GetParam() & 1;
    cfg.hardware_loops = GetParam() & 2;
    drx::DrxMachine machine(cfg);
    restructure::Bytes got;
    const drx::RunResult res =
        drx::runKernelOnDrx(kernel, input, machine, &got);
    EXPECT_EQ(got, expect);
    EXPECT_GT(res.total_cycles, 0u);
    // Total never beats the overlapped ideal.
    EXPECT_GE(res.total_cycles,
              std::max(res.compute_cycles, res.mem_cycles));
}

INSTANTIATE_TEST_SUITE_P(AllKnobCombos, DrxTimingKnobs,
                         ::testing::Range(0, 4));

// ------------------------------------------------------------------
// Property: LZ compression round-trips on adversarial data patterns.

class LzRoundTrip : public ::testing::TestWithParam<int>
{
  public:
    static kernels::Bytes
    pattern(int which)
    {
        Rng rng(static_cast<std::uint64_t>(which) + 77);
        kernels::Bytes data;
        const std::size_t n = 1000 + 517 * static_cast<std::size_t>(which);
        switch (which % 6) {
          case 0: // constant
            data.assign(n, 0x42);
            break;
          case 1: // random
            for (std::size_t i = 0; i < n; ++i)
                data.push_back(
                    static_cast<std::uint8_t>(rng.below(256)));
            break;
          case 2: // short period (overlapping matches)
            for (std::size_t i = 0; i < n; ++i)
                data.push_back(static_cast<std::uint8_t>(i % 3));
            break;
          case 3: // long period
            for (std::size_t i = 0; i < n; ++i)
                data.push_back(static_cast<std::uint8_t>((i % 300) & 0xff));
            break;
          case 4: // random runs
            while (data.size() < n) {
                const auto run = 1 + rng.below(64);
                const auto byte =
                    static_cast<std::uint8_t>(rng.below(4));
                for (std::uint64_t k = 0; k < run; ++k)
                    data.push_back(byte);
            }
            break;
          default: // text-like
            for (std::size_t i = 0; i < n; ++i)
                data.push_back(static_cast<std::uint8_t>(
                    ' ' + rng.below(64)));
            break;
        }
        return data;
    }
};

TEST_P(LzRoundTrip, DecompressInvertsCompress)
{
    const kernels::Bytes data = pattern(GetParam());
    EXPECT_EQ(kernels::lzDecompress(kernels::lzCompress(data)), data);
}

INSTANTIATE_TEST_SUITE_P(Patterns, LzRoundTrip, ::testing::Range(0, 18));

// ------------------------------------------------------------------
// Property: AES-GCM round-trips at every message size near block
// boundaries, and any single-bit flip in the ciphertext breaks the tag.

class GcmBoundary : public ::testing::TestWithParam<std::size_t>
{
};

TEST_P(GcmBoundary, RoundTripAndTamperDetection)
{
    const std::size_t len = GetParam();
    Rng rng(len * 31 + 5);
    kernels::AesKey key;
    kernels::AesBlock iv{};
    for (auto &b : key)
        b = static_cast<std::uint8_t>(rng.below(256));
    std::vector<std::uint8_t> pt(len);
    for (auto &b : pt)
        b = static_cast<std::uint8_t>(rng.below(256));

    auto sealed = kernels::gcmEncrypt(key, iv, pt);
    bool ok = false;
    EXPECT_EQ(kernels::gcmDecrypt(key, iv, sealed, ok), pt);
    EXPECT_TRUE(ok);

    if (len > 0) {
        const std::size_t byte = rng.below(len);
        sealed.ciphertext[byte] ^=
            static_cast<std::uint8_t>(1u << rng.below(8));
        kernels::gcmDecrypt(key, iv, sealed, ok);
        EXPECT_FALSE(ok) << "bit flip at byte " << byte;
    }
}

INSTANTIATE_TEST_SUITE_P(Sizes, GcmBoundary,
                         ::testing::Values(0, 1, 15, 16, 17, 31, 32, 33,
                                           255, 256, 257, 1000));

// ------------------------------------------------------------------
// Property: the NFA regex engine agrees with std::regex (ECMAScript)
// on full-match decisions for a shared syntax subset.

struct RegexCase
{
    const char *pattern;
    const char *ecma; ///< equivalent std::regex pattern
};

void
PrintTo(const RegexCase &c, std::ostream *os)
{
    *os << c.pattern;
}

class RegexVsStd
    : public ::testing::TestWithParam<RegexCase>
{
};

TEST_P(RegexVsStd, FullMatchAgreesOnRandomTexts)
{
    const RegexCase &c = GetParam();
    const kernels::Regex mine(c.pattern);
    const std::regex ref(c.ecma);

    Rng rng(1234);
    const std::string alphabet = "ab01-. x";
    for (int t = 0; t < 300; ++t) {
        std::string text;
        const auto len = rng.below(10);
        for (std::uint64_t i = 0; i < len; ++i)
            text.push_back(alphabet[rng.below(alphabet.size())]);
        EXPECT_EQ(mine.fullMatch(text),
                  std::regex_match(text, ref))
            << "pattern '" << c.pattern << "' text '" << text << "'";
    }
}

INSTANTIATE_TEST_SUITE_P(
    SharedSyntax, RegexVsStd,
    ::testing::Values(RegexCase{"a*b", "a*b"},
                      RegexCase{"(a|b)+", "(a|b)+"},
                      RegexCase{"a.b", "a.b"},
                      RegexCase{"[ab]*[01]", "[ab]*[01]"},
                      RegexCase{"\\d\\d-\\d", "\\d\\d-\\d"},
                      RegexCase{"a?b?c?", "a?b?c?"},
                      RegexCase{"(ab|ba)*", "(ab|ba)*"},
                      RegexCase{"[^ ]+", "[^ ]+"}),
    [](const ::testing::TestParamInfo<RegexCase> &info) {
        return "p" + std::to_string(info.index);
    });

// ------------------------------------------------------------------
// Property: IEEE-754 half conversion is the exact inverse of decode
// for every one of the 63488 finite half bit patterns.

TEST(HalfExhaustive, EncodeInvertsDecodeForAllFiniteHalves)
{
    for (std::uint32_t bits = 0; bits < 0x10000; ++bits) {
        const auto h = static_cast<std::uint16_t>(bits);
        if ((h & 0x7c00) == 0x7c00)
            continue; // inf/NaN: decode/encode not bijective
        const float f = halfToFloat(h);
        const std::uint16_t back = floatToHalf(f);
        // -0 and +0 both legal; everything else must round-trip.
        if ((h & 0x7fff) == 0) {
            EXPECT_EQ(back & 0x7fff, 0);
        } else {
            EXPECT_EQ(back, h) << "half bits 0x" << std::hex << h;
        }
    }
}

// ------------------------------------------------------------------
// Property: fabric flows conserve bytes and finish no faster than the
// bottleneck allows, for any number of contenders.

class FabricContention : public ::testing::TestWithParam<unsigned>
{
};

TEST_P(FabricContention, ConservationAndBottleneckBound)
{
    const unsigned flows = GetParam();
    sim::EventQueue eq;
    pcie::Fabric fab(eq, "fab");
    const auto rc = fab.addNode(pcie::NodeKind::RootComplex, "rc");
    const auto sw = fab.addNode(pcie::NodeKind::Switch, "sw");
    fab.connect(rc, sw, pcie::Generation::Gen3, 8);
    std::vector<pcie::NodeId> eps;
    for (unsigned i = 0; i < flows; ++i) {
        eps.push_back(fab.addNode(pcie::NodeKind::EndPoint,
                                  "ep" + std::to_string(i)));
        fab.connect(sw, eps.back(), pcie::Generation::Gen3, 16);
    }
    const std::uint64_t bytes = 2 * mib;
    Tick last = 0;
    unsigned done = 0;
    for (unsigned i = 0; i < flows; ++i) {
        fab.startFlow(eps[i], rc, bytes, [&] {
            ++done;
            last = std::max(last, eq.now());
        });
    }
    eq.run();
    EXPECT_EQ(done, flows);
    EXPECT_EQ(fab.totalBytes(), bytes * flows);

    // All flows share the x8 upstream: completion cannot beat the
    // aggregate bottleneck time.
    const double bottleneck_sec =
        static_cast<double>(bytes) * flows /
        pcie::linkBandwidth(pcie::Generation::Gen3, 8);
    EXPECT_GE(ticksToSeconds(last), bottleneck_sec * 0.999);
    // ... and fair sharing means it is also close to that bound.
    EXPECT_LE(ticksToSeconds(last), bottleneck_sec * 1.2);
}

INSTANTIATE_TEST_SUITE_P(FlowCounts, FabricContention,
                         ::testing::Values(1, 2, 3, 5, 8, 13));

// ------------------------------------------------------------------
// Property: the core pool conserves work - busy core-seconds equal the
// total submitted work for any job mix.

class PoolConservation : public ::testing::TestWithParam<unsigned>
{
};

TEST_P(PoolConservation, BusyCoreSecondsEqualSubmittedWork)
{
    const unsigned jobs = GetParam();
    sim::EventQueue eq;
    cpu::CorePool pool(eq, "pool", 16, 4);
    Rng rng(jobs);
    double total = 0;
    for (unsigned i = 0; i < jobs; ++i) {
        const double work = rng.uniform(0.001, 0.05);
        total += work;
        // Mix of per-job caps, submitted at staggered times.
        const double cap = (i % 3 == 0) ? 1.0 : 0.0;
        eq.schedule(static_cast<Tick>(i) * tick_per_ms,
                    [&pool, work, cap] { pool.submit(work, cap, {}); });
    }
    eq.run();
    EXPECT_EQ(pool.completedJobs(), jobs);
    EXPECT_NEAR(pool.busyCoreSeconds(), total, total * 1e-6 + 1e-9);
}

INSTANTIATE_TEST_SUITE_P(JobCounts, PoolConservation,
                         ::testing::Values(1, 4, 16, 40));

// ------------------------------------------------------------------
// Property: dtype store/load saturates exactly at the type bounds for
// a sweep of extreme values.

class DtypeSaturation
    : public ::testing::TestWithParam<std::tuple<DType, float>>
{
};

TEST_P(DtypeSaturation, LoadOfStoreIsClampedIdentity)
{
    const auto [t, v] = GetParam();
    std::uint8_t buf[8] = {};
    storeFromFloat(buf, t, v);
    const float back = loadAsFloat(buf, t);

    float lo = 0, hi = 0;
    switch (t) {
      case DType::I32: lo = -2147483648.0f; hi = 2147483647.0f; break;
      case DType::I16: lo = -32768; hi = 32767; break;
      case DType::I8:  lo = -128; hi = 127; break;
      case DType::U8:  lo = 0; hi = 255; break;
      case DType::F16: lo = -65504; hi = 65504; break;
      case DType::F32: lo = -3.4e38f; hi = 3.4e38f; break;
    }
    EXPECT_GE(back, lo);
    EXPECT_LE(back, hi);
    if (v >= lo && v <= hi && t != DType::F16 && t != DType::F32) {
        // In-range integral stores round to nearest.
        EXPECT_NEAR(back, v, 0.5f);
    }
}

INSTANTIATE_TEST_SUITE_P(
    Extremes, DtypeSaturation,
    ::testing::Combine(
        ::testing::Values(DType::F16, DType::I32, DType::I16, DType::I8,
                          DType::U8),
        ::testing::Values(-1e9f, -300.0f, -1.5f, 0.0f, 0.4f, 100.3f,
                          70000.0f, 3e9f)));

// ------------------------------------------------------------------
// Property: trace time accounting is conservative and exact. For any
// random chain configuration, per application track the recorded spans
// (Kernel / Restructure / Movement phases plus Driver notify-wait gaps)
// exactly tile the track's extent with no gaps or overlap; the
// per-category totals equal RunStats' integer-tick fields; and the
// latest span end is the simulated makespan. Integer-tick exact - no
// epsilon anywhere.

namespace
{

using testutil::randomChainApp;
using testutil::randomSystemConfig;

/**
 * Check the tiling property of @p tb against @p stats for a system of
 * @p n_apps applications.
 */
void
checkTraceTiling(const trace::TraceBuffer &tb, const sys::RunStats &stats,
                 unsigned n_apps)
{
    using trace::Category;

    // Per-category totals match RunStats tick for tick.
    EXPECT_EQ(tb.categoryTicks(Category::Kernel), stats.kernel_ticks);
    EXPECT_EQ(tb.categoryTicks(Category::Restructure),
              stats.restructure_ticks);
    EXPECT_EQ(tb.categoryTicks(Category::Movement), stats.movement_ticks);
    EXPECT_EQ(tb.maxEnd(), stats.makespan_ticks);

    // Per app track, phase + driver-gap spans tile the extent exactly.
    Tick last_app_end = 0;
    for (unsigned i = 0; i < n_apps; ++i) {
        const std::string track = "app" + std::to_string(i);
        std::vector<std::pair<Tick, Tick>> ivs;
        for (const trace::Span &s : tb.spans()) {
            if (tb.stringAt(s.track) != track)
                continue;
            const bool app_cat = s.cat == Category::Kernel ||
                                 s.cat == Category::Restructure ||
                                 s.cat == Category::Movement ||
                                 s.cat == Category::Driver;
            EXPECT_TRUE(app_cat)
                << track << " span '" << tb.stringAt(s.name)
                << "' in unexpected category";
            ivs.emplace_back(s.begin, s.end);
        }
        ASSERT_FALSE(ivs.empty()) << track;
        std::sort(ivs.begin(), ivs.end());
        Tick covered = 0;
        for (std::size_t j = 0; j < ivs.size(); ++j) {
            covered += ivs[j].second - ivs[j].first;
            if (j > 0) {
                EXPECT_EQ(ivs[j].first, ivs[j - 1].second)
                    << track << ": gap or overlap at span " << j;
            }
        }
        EXPECT_EQ(covered, ivs.back().second - ivs.front().first)
            << track;
        last_app_end = std::max(last_app_end, ivs.back().second);
    }
    // The final request completion defines the makespan.
    EXPECT_EQ(last_app_end, stats.makespan_ticks);
}

/** One point of the tiling sweep, captured for later assertion. */
struct TilingRun
{
    trace::TraceBuffer tb;
    sys::RunStats stats;
    unsigned n_apps = 0;
};

/**
 * All 12 tiling scenarios, fanned once through a ScenarioRunner (worker
 * count from DMX_JOBS / hardware). Each scenario records into its own
 * per-scenario TraceBuffer - the runner installs it as the executing
 * thread's trace sink - and the TEST_P cases below assert on the cached
 * results, so the sweep cost is paid once regardless of jobs level and
 * the recorded traces are jobs-invariant.
 */
const std::vector<TilingRun> &
tilingRuns()
{
    static const std::vector<TilingRun> runs = [] {
        exec::ScenarioRunner runner;
        return runner.map<TilingRun>(
            12, [](exec::ScenarioContext &ctx, std::size_t i) {
                const std::uint64_t seed = i;
                Rng rng(seed);
                const sys::SystemConfig cfg = randomSystemConfig(rng);
                TilingRun r;
                r.n_apps = cfg.n_apps;
                r.stats = sys::simulateSystem(cfg, {randomChainApp(seed)});
                r.tb = ctx.trace();
                return r;
            });
    }();
    return runs;
}

} // namespace

class TraceTiling : public ::testing::TestWithParam<std::uint64_t>
{
};

TEST_P(TraceTiling, PhaseSpansTileAppTracksExactly)
{
    const TilingRun &r = tilingRuns()[GetParam()];
    checkTraceTiling(r.tb, r.stats, r.n_apps);
}

INSTANTIATE_TEST_SUITE_P(RandomChains, TraceTiling,
                         ::testing::Range<std::uint64_t>(0, 12));

TEST(TraceTilingFaults, HoldsUnderFaultPlanWithRetriesTraced)
{
    fault::FaultSpec spec;
    spec.seed = 7;
    spec.flow_stall_prob = 0.10;
    spec.flow_corrupt_prob = 0.05;
    spec.irq_drop_prob = 0.10;
    fault::FaultPlan plan(spec);

    sys::SystemConfig cfg;
    cfg.placement = sys::Placement::BumpInTheWire;
    cfg.n_apps = 3;
    cfg.requests_per_app = 3;
    cfg.fault_plan = &plan;

    trace::TraceBuffer tb;
    sys::RunStats stats;
    {
        trace::TraceSession session(tb);
        stats = sys::simulateSystem(cfg, {randomChainApp(3)});
    }

    // The time-tiling property survives fault recovery: retransmission
    // time lands inside the Movement phase, recovery polls inside the
    // Driver gaps.
    checkTraceTiling(tb, stats, cfg.n_apps);

    // Retries and dropped irqs surface as trace counters matching the
    // aggregate stats, and each retry leaves a Retry-category instant.
    ASSERT_GT(stats.flow_retries, 0u);
    ASSERT_GT(stats.dropped_irqs, 0u);
    EXPECT_DOUBLE_EQ(tb.counterTotal("sys.flow_retries"),
                     static_cast<double>(stats.flow_retries));
    EXPECT_DOUBLE_EQ(tb.counterTotal("sys.dropped_irqs"),
                     static_cast<double>(stats.dropped_irqs));
    std::uint64_t retry_instants = 0;
    for (const trace::Span &s : tb.spans()) {
        if (s.cat == trace::Category::Retry) {
            EXPECT_EQ(tb.stringAt(s.name), "flow_retry");
            ++retry_instants;
        }
    }
    EXPECT_EQ(retry_instants, stats.flow_retries);
}
