/**
 * @file
 * Unit tests for src/common: logging, stats, units, RNG, strings, table,
 * and the element-type converters.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <sstream>
#include <vector>

#include "common/dtype.hh"
#include "common/logging.hh"
#include "common/percentile.hh"
#include "common/random.hh"
#include "common/stats.hh"
#include "common/strutil.hh"
#include "common/table.hh"
#include "common/units.hh"

using namespace dmx;

TEST(Logging, StrprintfFormats)
{
    EXPECT_EQ(strprintf("a=%d b=%s", 3, "x"), "a=3 b=x");
    EXPECT_EQ(strprintf("%.2f", 1.005), "1.00");
    EXPECT_EQ(strprintf("plain"), "plain");
}

TEST(Logging, PanicThrowsLogicError)
{
    EXPECT_THROW(dmx_panic("boom %d", 42), std::logic_error);
}

TEST(Logging, FatalThrowsRuntimeError)
{
    EXPECT_THROW(dmx_fatal("user error"), std::runtime_error);
}

TEST(Logging, WarnIncrementsCounter)
{
    const auto before = warnCount();
    dmx_warn("something mildly wrong");
    EXPECT_EQ(warnCount(), before + 1);
}

TEST(Logging, AssertPassesAndFails)
{
    EXPECT_NO_THROW(dmx_assert(1 + 1 == 2, "math works"));
    EXPECT_THROW(dmx_assert(false, "must fail"), std::logic_error);
}

TEST(Units, TickConversionsRoundTrip)
{
    EXPECT_EQ(tick_per_s, 1000000000000ull);
    EXPECT_DOUBLE_EQ(ticksToSeconds(tick_per_s), 1.0);
    EXPECT_DOUBLE_EQ(ticksToMs(tick_per_ms * 5), 5.0);
    EXPECT_EQ(secondsToTicks(0.001), tick_per_ms);
}

TEST(Units, ClockDomainPeriod)
{
    ClockDomain ghz{1e9};
    EXPECT_EQ(ghz.period(), 1000u); // 1 ns in ps
    EXPECT_EQ(ghz.cyclesToTicks(250), 250000u);

    ClockDomain fpga{250e6};
    EXPECT_EQ(fpga.period(), 4000u);
}

TEST(Units, TicksToCyclesRoundsUp)
{
    ClockDomain ghz{1e9};
    EXPECT_EQ(ghz.ticksToCycles(1000), 1u);
    EXPECT_EQ(ghz.ticksToCycles(1001), 2u);
    EXPECT_EQ(ghz.ticksToCycles(0), 0u);
}

TEST(Units, TransferTicks)
{
    // 1 GiB/s moving 1 MiB -> ~1/1024 s.
    const Tick t = transferTicks(mib, 1.0 * gib);
    EXPECT_NEAR(ticksToSeconds(t), 1.0 / 1024.0, 1e-9);
    EXPECT_EQ(transferTicks(0, 1e9), 0u);
    EXPECT_GE(transferTicks(1, 1e30), 1u); // never zero for nonzero bytes
}

TEST(Random, Deterministic)
{
    Rng a(123), b(123), c(124);
    for (int i = 0; i < 100; ++i)
        EXPECT_EQ(a.next(), b.next());
    bool any_diff = false;
    Rng a2(123);
    for (int i = 0; i < 100; ++i)
        any_diff |= a2.next() != c.next();
    EXPECT_TRUE(any_diff);
}

TEST(Random, BelowRespectsBound)
{
    Rng rng(7);
    for (int i = 0; i < 10000; ++i)
        EXPECT_LT(rng.below(17), 17u);
}

TEST(Random, UniformRangeAndMean)
{
    Rng rng(99);
    double sum = 0;
    constexpr int n = 20000;
    for (int i = 0; i < n; ++i) {
        const double v = rng.uniform();
        ASSERT_GE(v, 0.0);
        ASSERT_LT(v, 1.0);
        sum += v;
    }
    EXPECT_NEAR(sum / n, 0.5, 0.02);
}

TEST(Random, ExponentialMean)
{
    Rng rng(5);
    double sum = 0;
    constexpr int n = 50000;
    for (int i = 0; i < n; ++i)
        sum += rng.exponential(3.0);
    EXPECT_NEAR(sum / n, 3.0, 0.15);
}

TEST(Random, BetweenInclusive)
{
    Rng rng(1);
    bool saw_lo = false, saw_hi = false;
    for (int i = 0; i < 1000; ++i) {
        const auto v = rng.between(-2, 2);
        ASSERT_GE(v, -2);
        ASSERT_LE(v, 2);
        saw_lo |= v == -2;
        saw_hi |= v == 2;
    }
    EXPECT_TRUE(saw_lo);
    EXPECT_TRUE(saw_hi);
}

TEST(Stats, ScalarAccumulates)
{
    stats::StatGroup group("g");
    stats::Scalar s(&group, "s", "test scalar");
    ++s;
    s += 2.5;
    EXPECT_DOUBLE_EQ(s.value(), 3.5);
    s.reset();
    EXPECT_DOUBLE_EQ(s.value(), 0.0);
}

TEST(Stats, AverageMean)
{
    stats::Average avg(nullptr, "a", "test avg");
    EXPECT_DOUBLE_EQ(avg.mean(), 0.0);
    avg.sample(2);
    avg.sample(4);
    EXPECT_DOUBLE_EQ(avg.mean(), 3.0);
    EXPECT_EQ(avg.count(), 2u);
}

TEST(Stats, DistributionBuckets)
{
    stats::Distribution d(nullptr, "d", "dist", 0, 10, 10);
    d.sample(-1);   // underflow
    d.sample(0);    // bucket 0
    d.sample(9.5);  // bucket 9
    d.sample(10);   // overflow
    EXPECT_EQ(d.count(), 4u);
    EXPECT_EQ(d.buckets()[0], 1u);
    EXPECT_EQ(d.buckets()[9], 1u);
    EXPECT_DOUBLE_EQ(d.minSample(), -1);
    EXPECT_DOUBLE_EQ(d.maxSample(), 10);
}

TEST(Stats, DistributionRejectsBadSpec)
{
    EXPECT_THROW(stats::Distribution(nullptr, "d", "x", 5, 5, 4),
                 std::logic_error);
    EXPECT_THROW(stats::Distribution(nullptr, "d", "x", 0, 1, 0),
                 std::logic_error);
}

TEST(Stats, FormulaEvaluatesAtReadTime)
{
    stats::StatGroup group("g");
    stats::Scalar a(&group, "a", "a");
    stats::Formula f(&group, "f", "2a", [&] { return 2 * a.value(); });
    a += 3;
    EXPECT_DOUBLE_EQ(f.value(), 6.0);
    a += 1;
    EXPECT_DOUBLE_EQ(f.value(), 8.0);
}

TEST(Stats, GroupDumpContainsNames)
{
    stats::StatGroup group("sys");
    stats::Scalar a(&group, "sys.counter", "the counter");
    a += 7;
    std::ostringstream os;
    group.dumpAll(os);
    EXPECT_NE(os.str().find("sys.counter"), std::string::npos);
    EXPECT_NE(os.str().find('7'), std::string::npos);
}

TEST(Stats, GroupDumpJsonIsMachineReadable)
{
    stats::StatGroup group("sys");
    stats::Scalar a(&group, "sys.counter", "the counter");
    stats::Average avg(&group, "sys.avg", "an average");
    stats::Formula f(&group, "sys.double", "2x",
                     [&] { return 2 * a.value(); });
    a += 7;
    avg.sample(1.25);
    avg.sample(2.25);

    std::ostringstream os;
    group.dumpAllJson(os);
    const std::string json = os.str();
    // Integral values print as integers, fractional ones round-trip.
    EXPECT_EQ(json,
              "{\"group\":\"sys\",\"stats\":{"
              "\"sys.counter\":7,"
              "\"sys.avg.mean\":1.75,\"sys.avg.count\":2,"
              "\"sys.double\":14}}\n");
}

TEST(Stats, EmptyGroupDumpJsonIsValid)
{
    stats::StatGroup group("empty");
    std::ostringstream os;
    group.dumpAllJson(os);
    EXPECT_EQ(os.str(), "{\"group\":\"empty\",\"stats\":{}}\n");
}

TEST(StrUtil, SplitJoinRoundTrip)
{
    const auto parts = split("a,b,,c", ',');
    ASSERT_EQ(parts.size(), 4u);
    EXPECT_EQ(parts[2], "");
    EXPECT_EQ(join(parts, ","), "a,b,,c");
}

TEST(StrUtil, Trim)
{
    EXPECT_EQ(trim("  x y \t\n"), "x y");
    EXPECT_EQ(trim(""), "");
    EXPECT_EQ(trim("   "), "");
}

TEST(StrUtil, StartsWith)
{
    EXPECT_TRUE(startsWith("fig11_speedup", "fig11"));
    EXPECT_FALSE(startsWith("fig", "fig11"));
}

TEST(StrUtil, FormatBytes)
{
    EXPECT_EQ(formatBytes(512), "512.0 B");
    EXPECT_EQ(formatBytes(8 * 1024 * 1024), "8.0 MiB");
}

TEST(StrUtil, ParseDecimalAcceptsOnlyDigitsThatFitTheType)
{
    struct Row
    {
        const char *text;
        bool fits32;           ///< accepted into a 32-bit unsigned
        std::uint32_t value32;
        bool fits64;           ///< accepted into a std::uint64_t
        std::uint64_t value64;
    };
    const Row rows[] = {
        {"0", true, 0, true, 0},
        {"7", true, 7, true, 7},
        {"007", true, 7, true, 7},
        {"4294967295", true, 4294967295u, true, 4294967295u},
        {"4294967296", false, 0, true, 4294967296u},
        {"4294967297", false, 0, true, 4294967297u},
        {"18446744073709551615", false, 0, true, 18446744073709551615u},
        {"18446744073709551616", false, 0, false, 0},
        {"99999999999999999999999", false, 0, false, 0},
        {"", false, 0, false, 0},
        {"x", false, 0, false, 0},
        {"-1", false, 0, false, 0},
        {"+1", false, 0, false, 0},
        {" 1", false, 0, false, 0},
        {"1 ", false, 0, false, 0},
        {"1x", false, 0, false, 0},
        {"0x10", false, 0, false, 0},
        {"1e3", false, 0, false, 0},
        {"1.0", false, 0, false, 0},
    };
    for (const Row &r : rows) {
        SCOPED_TRACE(r.text);
        std::uint32_t v32 = 12345; // untouched on failure
        EXPECT_EQ(parseDecimal(r.text, v32), r.fits32);
        EXPECT_EQ(v32, r.fits32 ? r.value32 : 12345u);
        std::uint64_t v64 = 12345;
        EXPECT_EQ(parseDecimal(r.text, v64), r.fits64);
        EXPECT_EQ(v64, r.fits64 ? r.value64 : 12345u);
    }
    std::uint8_t v8 = 0;
    EXPECT_TRUE(parseDecimal("255", v8));
    EXPECT_EQ(v8, 255u);
    EXPECT_FALSE(parseDecimal("256", v8));
    EXPECT_EQ(v8, 255u);
    EXPECT_FALSE(parseDecimal(nullptr, v8));
}

TEST(TableTest, PrintAlignsAndCsv)
{
    Table t("demo");
    t.header({"name", "value"});
    t.row({"alpha", Table::num(1.5)});
    t.row({"b", "2"});
    EXPECT_EQ(t.rows(), 2u);

    std::ostringstream os;
    t.print(os);
    EXPECT_NE(os.str().find("demo"), std::string::npos);
    EXPECT_NE(os.str().find("alpha"), std::string::npos);

    std::ostringstream csv;
    t.printCsv(csv);
    EXPECT_EQ(csv.str(), "name,value\nalpha,1.50\nb,2\n");
}

// ------------------------------------------------------------------
// Shared nearest-rank percentile / latency-summary helper
// (common/percentile.hh): the one definition of "p99" every reporting
// layer agrees on.

TEST(Percentile, SingleElementReturnsItAtEveryPercentile)
{
    const std::vector<double> one{7.5};
    EXPECT_EQ(common::percentileNearestRank(one, 0.001), 7.5);
    EXPECT_EQ(common::percentileNearestRank(one, 0.5), 7.5);
    EXPECT_EQ(common::percentileNearestRank(one, 0.99), 7.5);
    EXPECT_EQ(common::percentileNearestRank(one, 1.0), 7.5);

    const std::vector<Tick> one_t{42};
    EXPECT_EQ(common::percentileNearestRank(one_t, 0.999), Tick{42});
}

TEST(Percentile, NearestRankSemanticsOnTinySamples)
{
    // rank = clamp(ceil(p * n), 1, n), result = sorted[rank - 1].
    const std::vector<double> two{10, 20};
    EXPECT_EQ(common::percentileNearestRank(two, 0.50), 10); // rank 1
    EXPECT_EQ(common::percentileNearestRank(two, 0.51), 20); // rank 2
    EXPECT_EQ(common::percentileNearestRank(two, 0.99), 20);

    const std::vector<double> five{5, 4, 3, 2, 1}; // unsorted input
    EXPECT_EQ(common::percentileNearestRank(five, 0.2), 1);  // rank 1
    EXPECT_EQ(common::percentileNearestRank(five, 0.21), 2); // rank 2
    EXPECT_EQ(common::percentileNearestRank(five, 0.8), 4);
    EXPECT_EQ(common::percentileNearestRank(five, 1.0), 5);

    EXPECT_EQ(common::percentileNearestRank(std::vector<double>{}, 0.99),
              0);
}

TEST(Percentile, SummaryMeanSumsInSampleOrderAndPinsTriple)
{
    const std::vector<double> s{4, 1, 3, 2};
    const common::LatencySummary sum = common::summarizeLatencies(s);
    EXPECT_EQ(sum.count, 4u);
    // Mean accumulates in sample order: ((4 + 1) + 3) + 2, then / 4.
    EXPECT_EQ(sum.mean_ms, (((4.0 + 1.0) + 3.0) + 2.0) / 4.0);
    EXPECT_EQ(sum.p50_ms, 2);  // rank ceil(0.5*4)=2 -> sorted[1]
    EXPECT_EQ(sum.p99_ms, 4);  // rank ceil(3.96)=4 -> sorted[3]
    EXPECT_EQ(sum.p999_ms, 4);

    const common::LatencySummary empty = common::summarizeLatencies({});
    EXPECT_EQ(empty.count, 0u);
    EXPECT_EQ(empty.mean_ms, 0);
    EXPECT_EQ(empty.p999_ms, 0);
}

// ------------------------------------------------------------------
// Element-type converters: the typed element form (loadAs / storeAs via
// visitDType), the run form (loadRun / storeRun) and the runtime-typed
// loadAsFloat / storeFromFloat are one definition and must agree with
// a hand-computed table and with the per-element reference below.

namespace
{

float
fromBits(std::uint32_t b)
{
    float f;
    std::memcpy(&f, &b, 4);
    return f;
}

std::uint32_t
bitsOf(float f)
{
    std::uint32_t b;
    std::memcpy(&b, &f, 4);
    return b;
}

using ByteVec = std::vector<std::uint8_t>;

constexpr DType all_dtypes[] = {DType::F32, DType::F16, DType::I32,
                                DType::I16, DType::I8,  DType::U8};

const float inf = fromBits(0x7f800000);
const float qnan = fromBits(0x7fc00000);

/** One narrowing: storing v as t gives bytes (little-endian). */
struct StoreCase
{
    DType t;
    float v;
    ByteVec bytes;
};

/** One widening: the element bytes of type t read as the float bits. */
struct LoadCase
{
    DType t;
    ByteVec bytes;
    std::uint32_t bits;
};

// Expected bytes worked out by hand from IEEE-754 binary16/32 and
// round-half-to-even, not from the code under test.
const std::vector<StoreCase> store_table{
    {DType::F32, 1.0f, {0x00, 0x00, 0x80, 0x3f}},
    {DType::F32, -0.0f, {0x00, 0x00, 0x00, 0x80}},
    {DType::F32, inf, {0x00, 0x00, 0x80, 0x7f}},
    {DType::F32, fromBits(0x7fc00001), {0x01, 0x00, 0xc0, 0x7f}},
    {DType::F32, fromBits(0x00000001), {0x01, 0x00, 0x00, 0x00}},

    {DType::F16, 0.0f, {0x00, 0x00}},
    {DType::F16, -0.0f, {0x00, 0x80}},
    {DType::F16, 1.0f, {0x00, 0x3c}},
    {DType::F16, -2.0f, {0x00, 0xc0}},
    {DType::F16, inf, {0x00, 0x7c}},
    {DType::F16, -inf, {0x00, 0xfc}},
    {DType::F16, qnan, {0x00, 0x7e}},
    {DType::F16, fromBits(0xffc00000), {0x00, 0xfe}},
    {DType::F16, 65504.0f, {0xff, 0x7b}},  // max finite
    {DType::F16, 65519.0f, {0xff, 0x7b}},  // below the 65520 midpoint
    {DType::F16, 65520.0f, {0xff, 0x7b}},  // midpoint: saturates
    {DType::F16, -1e9f, {0xff, 0xfb}},     // saturates
    {DType::F16, 0x1p-24f, {0x01, 0x00}},  // smallest subnormal
    {DType::F16, 0x1p-25f, {0x00, 0x00}},  // tie to even: 0
    {DType::F16, 0x3p-25f, {0x02, 0x00}},  // tie to even: 2
    {DType::F16, 0x3ffp-24f, {0xff, 0x03}}, // largest subnormal
    {DType::F16, 0x1p-14f, {0x00, 0x04}},  // smallest normal
    {DType::F16, 2049.0f, {0x00, 0x68}},   // tie to even: 2048
    {DType::F16, 2051.0f, {0x02, 0x68}},   // tie to even: 2052

    {DType::I32, -0.0f, {0x00, 0x00, 0x00, 0x00}},
    {DType::I32, 0.5f, {0x00, 0x00, 0x00, 0x00}},
    {DType::I32, 1.5f, {0x02, 0x00, 0x00, 0x00}},
    {DType::I32, 2.5f, {0x02, 0x00, 0x00, 0x00}},
    {DType::I32, -0.5f, {0x00, 0x00, 0x00, 0x00}},
    {DType::I32, -1.5f, {0xfe, 0xff, 0xff, 0xff}},
    {DType::I32, -2.5f, {0xfe, 0xff, 0xff, 0xff}},
    {DType::I32, 8388606.5f, {0xfe, 0xff, 0x7f, 0x00}},
    {DType::I32, 8388607.5f, {0x00, 0x00, 0x80, 0x00}},
    {DType::I32, 2147483520.0f, {0x80, 0xff, 0xff, 0x7f}}, // 2^31 - 128
    {DType::I32, 2147483648.0f, {0xff, 0xff, 0xff, 0x7f}}, // 2^31
    {DType::I32, -2147483648.0f, {0x00, 0x00, 0x00, 0x80}},
    {DType::I32, -2147483904.0f, {0x00, 0x00, 0x00, 0x80}},
    {DType::I32, inf, {0xff, 0xff, 0xff, 0x7f}},
    {DType::I32, -inf, {0x00, 0x00, 0x00, 0x80}},
    {DType::I32, qnan, {0x00, 0x00, 0x00, 0x00}},

    {DType::I16, 0.5f, {0x00, 0x00}},
    {DType::I16, 1.5f, {0x02, 0x00}},
    {DType::I16, 2.5f, {0x02, 0x00}},
    {DType::I16, -1.5f, {0xfe, 0xff}},
    {DType::I16, 32767.0f, {0xff, 0x7f}},
    {DType::I16, 32766.5f, {0xfe, 0x7f}},
    {DType::I16, 32767.5f, {0xff, 0x7f}}, // 32768, saturated
    {DType::I16, 32768.0f, {0xff, 0x7f}},
    {DType::I16, -32768.0f, {0x00, 0x80}},
    {DType::I16, -32766.5f, {0x02, 0x80}},
    {DType::I16, -32767.5f, {0x00, 0x80}},
    {DType::I16, -32768.5f, {0x00, 0x80}},
    {DType::I16, -32769.0f, {0x00, 0x80}},
    {DType::I16, inf, {0xff, 0x7f}},
    {DType::I16, -inf, {0x00, 0x80}},
    {DType::I16, qnan, {0x00, 0x00}},

    {DType::I8, 0.5f, {0x00}},
    {DType::I8, 1.5f, {0x02}},
    {DType::I8, -1.5f, {0xfe}},
    {DType::I8, -2.5f, {0xfe}},
    {DType::I8, 127.0f, {0x7f}},
    {DType::I8, 126.5f, {0x7e}},
    {DType::I8, 127.5f, {0x7f}}, // 128, saturated
    {DType::I8, 128.0f, {0x7f}},
    {DType::I8, -128.0f, {0x80}},
    {DType::I8, -126.5f, {0x82}},
    {DType::I8, -127.5f, {0x80}},
    {DType::I8, -128.5f, {0x80}},
    {DType::I8, -129.0f, {0x80}},
    {DType::I8, inf, {0x7f}},
    {DType::I8, -inf, {0x80}},
    {DType::I8, qnan, {0x00}},

    {DType::U8, -0.0f, {0x00}},
    {DType::U8, 0.5f, {0x00}},
    {DType::U8, 1.5f, {0x02}},
    {DType::U8, 2.5f, {0x02}},
    {DType::U8, -0.5f, {0x00}},
    {DType::U8, -1.0f, {0x00}},
    {DType::U8, 255.0f, {0xff}},
    {DType::U8, 254.5f, {0xfe}},
    {DType::U8, 255.5f, {0xff}}, // 256, saturated
    {DType::U8, 256.0f, {0xff}},
    {DType::U8, inf, {0xff}},
    {DType::U8, -inf, {0x00}},
    {DType::U8, qnan, {0x00}},
};

const std::vector<LoadCase> load_table{
    {DType::F32, {0x00, 0x00, 0xc0, 0x7f}, 0x7fc00000},
    {DType::F32, {0x01, 0x00, 0x00, 0x00}, 0x00000001},
    {DType::F32, {0x00, 0x00, 0x80, 0xff}, 0xff800000},

    {DType::F16, {0x00, 0x80}, 0x80000000},
    {DType::F16, {0x00, 0x3c}, 0x3f800000},
    {DType::F16, {0x01, 0x00}, 0x33800000}, // 2^-24
    {DType::F16, {0xff, 0x03}, 0x387fc000}, // 1023 * 2^-24
    {DType::F16, {0x00, 0x04}, 0x38800000}, // 2^-14
    {DType::F16, {0xff, 0x7b}, 0x477fe000}, // 65504
    {DType::F16, {0x00, 0x7c}, 0x7f800000},
    {DType::F16, {0x00, 0xfc}, 0xff800000},
    {DType::F16, {0x00, 0x7e}, 0x7fc00000},

    {DType::I32, {0xff, 0xff, 0xff, 0x7f}, 0x4f000000}, // rounds to 2^31
    {DType::I32, {0x00, 0x00, 0x00, 0x80}, 0xcf000000},
    {DType::I32, {0x01, 0x00, 0x00, 0x01}, 0x4b800000}, // 2^24+1: tie, even
    {DType::I32, {0x03, 0x00, 0x00, 0x01}, 0x4b800002}, // 2^24+3: tie, even

    {DType::I16, {0xff, 0x7f}, 0x46fffe00},
    {DType::I16, {0x00, 0x80}, 0xc7000000},

    {DType::I8, {0x7f}, 0x42fe0000},
    {DType::I8, {0x80}, 0xc3000000},
    {DType::I8, {0xff}, 0xbf800000},

    {DType::U8, {0x00}, 0x00000000},
    {DType::U8, {0x80}, 0x43000000},
    {DType::U8, {0xff}, 0x437f0000},
};

ByteVec
storeElement(DType t, float v)
{
    ByteVec out(dtypeSize(t));
    visitDType(t, [&](auto c) { storeAs<c.value>(out.data(), v); });
    return out;
}

float
loadElement(DType t, const std::uint8_t *src)
{
    return visitDType(t, [src](auto c) { return loadAs<c.value>(src); });
}

// Per-element conversion as the converters' first implementation wrote
// it, kept as an independent reference.

std::uint16_t
refFloatToHalf(float v)
{
    std::uint32_t bits;
    std::memcpy(&bits, &v, 4);
    const std::uint16_t sign = static_cast<std::uint16_t>((bits >> 16) &
                                                          0x8000);
    const std::int32_t exp = static_cast<std::int32_t>((bits >> 23) &
                                                       0xff) - 127 + 15;
    std::uint32_t mant = bits & 0x7fffff;
    if (((bits >> 23) & 0xff) == 0xff)
        return static_cast<std::uint16_t>(sign | 0x7c00 |
                                          (mant ? 0x200 : 0));
    if (exp >= 0x1f)
        return static_cast<std::uint16_t>(sign | 0x7bff);
    if (exp <= 0) {
        if (exp < -10)
            return sign;
        mant |= 0x800000;
        const int shift = 14 - exp;
        std::uint32_t half_mant = mant >> shift;
        const std::uint32_t rem = mant & ((1u << shift) - 1);
        const std::uint32_t halfway = 1u << (shift - 1);
        if (rem > halfway || (rem == halfway && (half_mant & 1)))
            ++half_mant;
        return static_cast<std::uint16_t>(sign | half_mant);
    }
    std::uint32_t half_mant = mant >> 13;
    const std::uint32_t rem = mant & 0x1fff;
    if (rem > 0x1000 || (rem == 0x1000 && (half_mant & 1))) {
        ++half_mant;
        if (half_mant == 0x400) {
            half_mant = 0;
            if (exp + 1 >= 0x1f)
                return static_cast<std::uint16_t>(sign | 0x7bff);
            return static_cast<std::uint16_t>(sign | ((exp + 1) << 10));
        }
    }
    return static_cast<std::uint16_t>(sign | (exp << 10) | half_mant);
}

float
refHalfToFloat(std::uint16_t h)
{
    const std::uint32_t sign = (h & 0x8000u) << 16;
    const std::uint32_t exp = (h >> 10) & 0x1f;
    const std::uint32_t mant = h & 0x3ff;
    std::uint32_t bits;
    if (exp == 0) {
        if (mant == 0) {
            bits = sign;
        } else {
            int e = -1;
            std::uint32_t m = mant;
            do {
                ++e;
                m <<= 1;
            } while (!(m & 0x400));
            bits = sign | static_cast<std::uint32_t>(127 - 15 - e) << 23 |
                   ((m & 0x3ff) << 13);
        }
    } else if (exp == 0x1f) {
        bits = sign | 0x7f800000 | (mant << 13);
    } else {
        bits = sign | ((exp - 15 + 127) << 23) | (mant << 13);
    }
    return fromBits(bits);
}

float
refLoad(const std::uint8_t *src, DType t)
{
    switch (t) {
      case DType::F32: {
        float v;
        std::memcpy(&v, src, 4);
        return v;
      }
      case DType::F16: {
        std::uint16_t h;
        std::memcpy(&h, src, 2);
        return refHalfToFloat(h);
      }
      case DType::I32: {
        std::int32_t v;
        std::memcpy(&v, src, 4);
        return static_cast<float>(v);
      }
      case DType::I16: {
        std::int16_t v;
        std::memcpy(&v, src, 2);
        return static_cast<float>(v);
      }
      case DType::I8:
        return static_cast<float>(*reinterpret_cast<const std::int8_t *>(
            src));
      case DType::U8:
        return static_cast<float>(*src);
    }
    return 0.0f;
}

/** Not defined for NaN into an integer type (the cast is undefined). */
void
refStore(std::uint8_t *dst, DType t, float v)
{
    switch (t) {
      case DType::F32:
        std::memcpy(dst, &v, 4);
        return;
      case DType::F16: {
        const std::uint16_t h = refFloatToHalf(v);
        std::memcpy(dst, &h, 2);
        return;
      }
      case DType::I32: {
        const double r = std::nearbyint(static_cast<double>(v));
        const auto clamped = static_cast<std::int32_t>(
            std::clamp(r, -2147483648.0, 2147483647.0));
        std::memcpy(dst, &clamped, 4);
        return;
      }
      case DType::I16: {
        const float r = std::nearbyintf(v);
        const auto clamped = static_cast<std::int16_t>(
            std::clamp(r, -32768.0f, 32767.0f));
        std::memcpy(dst, &clamped, 2);
        return;
      }
      case DType::I8: {
        const float r = std::nearbyintf(v);
        *reinterpret_cast<std::int8_t *>(dst) =
            static_cast<std::int8_t>(std::clamp(r, -128.0f, 127.0f));
        return;
      }
      case DType::U8: {
        const float r = std::nearbyintf(v);
        *dst = static_cast<std::uint8_t>(std::clamp(r, 0.0f, 255.0f));
        return;
      }
    }
}

} // namespace

TEST(DtypeConverters, StoresMatchHandComputedTable)
{
    for (const DType t : all_dtypes) {
        std::vector<float> vals;
        ByteVec expect;
        for (const StoreCase &c : store_table) {
            if (c.t != t)
                continue;
            ASSERT_EQ(c.bytes.size(), dtypeSize(t));
            const std::uint32_t vb = bitsOf(c.v);
            EXPECT_EQ(storeElement(t, c.v), c.bytes)
                << dtypeName(t) << " typed store of 0x" << std::hex << vb;
            ByteVec rt(dtypeSize(t));
            storeFromFloat(rt.data(), t, c.v);
            EXPECT_EQ(rt, c.bytes)
                << dtypeName(t) << " storeFromFloat of 0x" << std::hex << vb;
            vals.push_back(c.v);
            expect.insert(expect.end(), c.bytes.begin(), c.bytes.end());
        }
        ASSERT_FALSE(vals.empty()) << dtypeName(t);
        ByteVec run(expect.size(), 0xab);
        storeRun(run.data(), t, vals.data(), vals.size());
        EXPECT_EQ(run, expect) << dtypeName(t) << " storeRun";
    }
}

TEST(DtypeConverters, LoadsMatchHandComputedTable)
{
    for (const DType t : all_dtypes) {
        ByteVec src;
        std::vector<std::uint32_t> expect;
        for (const LoadCase &c : load_table) {
            if (c.t != t)
                continue;
            ASSERT_EQ(c.bytes.size(), dtypeSize(t));
            EXPECT_EQ(bitsOf(loadElement(t, c.bytes.data())), c.bits)
                << dtypeName(t) << " typed load";
            EXPECT_EQ(bitsOf(loadAsFloat(c.bytes.data(), t)), c.bits)
                << dtypeName(t) << " loadAsFloat";
            src.insert(src.end(), c.bytes.begin(), c.bytes.end());
            expect.push_back(c.bits);
        }
        ASSERT_FALSE(expect.empty()) << dtypeName(t);
        std::vector<float> run(expect.size());
        loadRun(src.data(), t, run.data(), run.size());
        for (std::size_t i = 0; i < run.size(); ++i)
            EXPECT_EQ(bitsOf(run[i]), expect[i]) << dtypeName(t) << " loadRun";
    }
}

TEST(DtypeConverters, NaNNarrowsToZeroForEveryIntegerType)
{
    // Casting NaN to an integer is undefined behaviour; the converter
    // defines it as 0 (x86 happened to give 0 for the 8- and 16-bit
    // types and INT_MIN for I32).
    const float nans[] = {qnan, fromBits(0xffc00000), fromBits(0x7f800001),
                          fromBits(0xffffffff)};
    for (const DType t : {DType::I32, DType::I16, DType::I8, DType::U8}) {
        const ByteVec zero(dtypeSize(t), 0);
        for (const float v : nans) {
            ByteVec rt(dtypeSize(t), 0xab);
            storeFromFloat(rt.data(), t, v);
            EXPECT_EQ(rt, zero) << dtypeName(t) << " 0x" << std::hex
                                << bitsOf(v);
            EXPECT_EQ(storeElement(t, v), zero) << dtypeName(t);
        }
        ByteVec run(dtypeSize(t) * 4, 0xab);
        storeRun(run.data(), t, nans, 4);
        EXPECT_EQ(run, ByteVec(run.size(), 0)) << dtypeName(t);
    }
}

TEST(DtypeConverters, RandomBitPatternsMatchPerElementReference)
{
    constexpr std::size_t n = 10000;
    Rng rng(2024);
    for (const DType t : all_dtypes) {
        const std::size_t esz = dtypeSize(t);
        const bool integer = t != DType::F32 && t != DType::F16;

        // Narrowing: random float bit patterns (subnormals, infinities
        // and, for the float types, NaNs included).
        std::vector<float> vals;
        while (vals.size() < n) {
            const float v = fromBits(static_cast<std::uint32_t>(rng.next()));
            if (!(integer && std::isnan(v)))
                vals.push_back(v);
        }
        ByteVec ref(n * esz), elem(n * esz), run(n * esz);
        for (std::size_t i = 0; i < n; ++i) {
            refStore(ref.data() + i * esz, t, vals[i]);
            const ByteVec b = storeElement(t, vals[i]);
            std::copy(b.begin(), b.end(), elem.begin() + i * esz);
        }
        storeRun(run.data(), t, vals.data(), n);
        EXPECT_EQ(elem, ref) << dtypeName(t) << " typed store";
        EXPECT_EQ(run, ref) << dtypeName(t) << " storeRun";

        // Widening: random element bytes.
        ByteVec src(n * esz);
        for (std::uint8_t &b : src)
            b = static_cast<std::uint8_t>(rng.next());
        std::vector<float> widened(n);
        loadRun(src.data(), t, widened.data(), n);
        for (std::size_t i = 0; i < n; ++i) {
            const std::uint32_t want = bitsOf(refLoad(src.data() + i * esz, t));
            ASSERT_EQ(bitsOf(loadElement(t, src.data() + i * esz)), want)
                << dtypeName(t) << " typed load, element " << i;
            ASSERT_EQ(bitsOf(widened[i]), want)
                << dtypeName(t) << " loadRun, element " << i;
        }
    }
}

namespace
{

/**
 * Floats where a narrowing to an integer type can go wrong: a fixed
 * stride through every bit pattern, every half-integer in
 * [-40000, 40000] (the ties), each clamp bound and bound +-0.5 with
 * their float neighbours, the edges of the 2^22..2^24 rounding ranges
 * with their neighbours, signed zeros, infinities and NaNs.
 */
std::vector<float>
narrowingSweep()
{
    std::vector<float> vals;
    for (std::uint64_t b = 0; b < (1ull << 32); b += 4099)
        vals.push_back(fromBits(static_cast<std::uint32_t>(b)));
    for (int k = -80000; k <= 80000; ++k)
        vals.push_back(static_cast<float>(k) * 0.5f);
    auto with_neighbours = [&vals](float v) {
        vals.push_back(v);
        vals.push_back(std::nextafter(v, -inf));
        vals.push_back(std::nextafter(v, inf));
    };
    for (const float bound : {0.0f, 255.0f, -128.0f, 127.0f, -32768.0f,
                              32767.0f, -2147483648.0f, 2147483648.0f}) {
        with_neighbours(bound);
        with_neighbours(bound - 0.5f);
        with_neighbours(bound + 0.5f);
    }
    for (const float p : {0x1p22f, 0x1p23f, 0x1p24f}) {
        with_neighbours(p);
        with_neighbours(-p);
    }
    for (const std::uint32_t b :
         {0x00000000u, 0x80000000u, 0x7f800000u, 0xff800000u, 0x7fc00000u,
          0xffc00000u, 0x7fffffffu, 0x7f800001u, 0xff800001u, 0x7fa00000u})
        vals.push_back(fromBits(b)); // +-0, +-inf, quiet and signalling NaN
    return vals;
}

} // namespace

TEST(DtypeConverters, RunNarrowingEqualsPerElementStoreOnBoundarySweep)
{
    // storeRun narrows U8 without libm (magic-constant rounding and
    // branch-free clamps) and the other integer types through
    // storeAs<T>, the per-element reference.
    const std::vector<float> vals = narrowingSweep();
    ASSERT_GT(vals.size(), 1'000'000u);
    for (const DType t : {DType::U8, DType::I8, DType::I16, DType::I32}) {
        const std::size_t esz = dtypeSize(t);
        ByteVec run(vals.size() * esz, 0xab), elem(vals.size() * esz);
        storeRun(run.data(), t, vals.data(), vals.size());
        visitDType(t, [&](auto c) {
            for (std::size_t i = 0; i < vals.size(); ++i)
                storeAs<c.value>(elem.data() + i * esz, vals[i]);
        });
        for (std::size_t i = 0; i < vals.size(); ++i) {
            ASSERT_TRUE(std::equal(run.begin() + i * esz,
                                   run.begin() + (i + 1) * esz,
                                   elem.begin() + i * esz))
                << dtypeName(t) << " narrowing 0x" << std::hex
                << bitsOf(vals[i]);
        }
    }
}
