/**
 * @file
 * Unit tests for src/common: logging, stats, units, RNG, strings, table.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <sstream>
#include <vector>

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
