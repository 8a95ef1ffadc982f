/**
 * @file
 * Serving stress driver: sweeps arrival-trace shape x offered load x
 * kernel fault rate over the serve::simulateServing engine in three
 * arms per point:
 *
 *  - plain:  trace-driven serving, no tail tolerance;
 *  - hedged: hedging on, unbudgeted (the retry-storm baseline);
 *  - tail:   hedging + per-tenant retry budgets + brownout control.
 *
 * Reports per-class SLO attainment, p50/p99/p999, goodput and the
 * hedge/budget/brownout counters, then checks the headline contract at
 * 2x load with 10% faults: the tail arm must cut latency-sensitive
 * p999 below the plain arm while keeping total attempts below the
 * unbudgeted hedged arm.
 *
 * Independent stress points fan across exec::ScenarioRunner workers;
 * results commit in submission order, so output is byte-identical at
 * every --jobs level.
 *
 * Usage:
 *   stress_serving [--requests N] [--devices D] [--seed S]
 *                  [--batch B] [--request-bytes BYTES]
 *                  [--jobs N] [--json PATH]
 */

#include <cstdio>
#include <cstring>

#include "bench/bench_util.hh"
#include "common/logging.hh"
#include "common/strutil.hh"
#include "serve/serve.hh"

using namespace dmx;
using namespace dmx::serve;

namespace
{

/** One sweep point: a (shape, load, fault-rate) triple. */
struct Point
{
    TraceShape shape;
    double load;
    double fault_rate;
};

enum class Arm { Plain, Hedged, Tail };

const char *
armName(Arm a)
{
    switch (a) {
      case Arm::Plain:  return "plain";
      case Arm::Hedged: return "hedged";
      case Arm::Tail:   return "tail";
    }
    return "?";
}

ServeConfig
makeConfig(const Point &p, Arm arm, unsigned requests, unsigned devices,
           std::uint64_t seed, unsigned batch,
           std::uint64_t request_bytes)
{
    ServeConfig cfg;
    cfg.overload.requests = requests;
    cfg.overload.devices = devices;
    cfg.overload.seed = seed;
    cfg.overload.batch = batch;
    cfg.overload.request_bytes = request_bytes;
    cfg.overload.load = p.load;
    cfg.overload.fault_rate = p.fault_rate;
    cfg.enabled = true;
    cfg.trace.shape = p.shape;
    if (arm != Arm::Plain)
        cfg.hedge.enabled = true;
    if (arm == Arm::Tail) {
        cfg.budget.enabled = true;
        cfg.budget.per_request = 0.5;
        cfg.brownout.enabled = true;
    }
    return cfg;
}

/** Stable metric suffix, e.g. "steady_l2.0_f0.10_tail". */
std::string
pointKey(const Point &p, Arm arm)
{
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%s_l%.1f_f%.2f_%s",
                  toString(p.shape).c_str(), p.load, p.fault_rate,
                  armName(arm));
    return buf;
}

constexpr Arm arms[] = {Arm::Plain, Arm::Hedged, Arm::Tail};

} // namespace

int
main(int argc, char **argv)
{
    bench::BenchReport report(argc, argv, "stress_serving");

    unsigned requests = 240;
    unsigned devices = 4;
    std::uint64_t seed = 1;
    unsigned batch = 1;
    std::uint64_t request_bytes = 4096;
    for (int i = 1; i < argc; ++i) {
        auto value = [&](const char *flag) {
            if (i + 1 >= argc)
                dmx_fatal("%s needs a value", flag);
            return argv[++i];
        };
        auto number = [&](const char *flag, auto &out) {
            const char *s = value(flag);
            if (!parseDecimal(s, out))
                dmx_fatal("%s '%s': expected a non-negative decimal "
                          "integer in range", flag, s);
        };
        if (std::strcmp(argv[i], "--requests") == 0)
            number("--requests", requests);
        else if (std::strcmp(argv[i], "--devices") == 0)
            number("--devices", devices);
        else if (std::strcmp(argv[i], "--seed") == 0)
            number("--seed", seed);
        else if (std::strcmp(argv[i], "--batch") == 0)
            number("--batch", batch);
        else if (std::strcmp(argv[i], "--request-bytes") == 0)
            number("--request-bytes", request_bytes);
    }

    bench::banner("Serving stress - trace shape x load x fault sweep",
                  "hedged requests, retry budgets, brownout control");

    // Sweep-point config echo: the report is self-describing.
    report.metric("config_seed", static_cast<double>(seed));
    report.metric("config_requests", static_cast<double>(requests));
    report.metric("config_devices", static_cast<double>(devices));
    report.metric("config_batch", static_cast<double>(batch));
    report.metric("config_request_bytes",
                  static_cast<double>(request_bytes));

    const std::vector<Point> points{
        {TraceShape::Steady, 1.0, 0.0},
        {TraceShape::Steady, 2.0, 0.0},
        {TraceShape::Steady, 1.0, 0.1},
        {TraceShape::Steady, 2.0, 0.1},
        {TraceShape::Diurnal, 2.0, 0.1},
        {TraceShape::FlashCrowd, 2.0, 0.1},
        {TraceShape::HeavyTail, 2.0, 0.1},
    };

    std::vector<std::function<ServeStats()>> thunks;
    for (const Point &p : points) {
        for (const Arm arm : arms) {
            thunks.push_back([p, arm, requests, devices, seed, batch,
                              request_bytes] {
                return simulateServing(makeConfig(p, arm, requests,
                                                  devices, seed, batch,
                                                  request_bytes));
            });
        }
    }
    const std::vector<ServeStats> results =
        bench::runSweep<ServeStats>(report, std::move(thunks));

    Table t("Serving sweep (" + std::to_string(devices) + " devices, " +
            std::to_string(requests) + " requests per point)");
    t.header({"shape", "load", "faults", "arm", "goodput (rps)",
              "ls p99 (ms)", "ls p999 (ms)", "ls SLO", "batch SLO",
              "shed", "hedges", "attempts"});
    for (std::size_t i = 0; i < points.size(); ++i) {
        const Point &p = points[i];
        for (std::size_t a = 0; a < 3; ++a) {
            const Arm arm = arms[a];
            const ServeStats &st = results[3 * i + a];
            const ClassStats &ls = st.latency_sensitive;
            t.row({toString(p.shape), Table::num(p.load, 1),
                   Table::num(p.fault_rate, 2), armName(arm),
                   Table::num(st.base.goodput_rps),
                   Table::num(ls.latency.p99_ms),
                   Table::num(ls.latency.p999_ms),
                   Table::num(ls.slo_attainment, 3),
                   Table::num(st.batch.slo_attainment, 3),
                   std::to_string(st.base.shed),
                   std::to_string(st.hedges_issued),
                   std::to_string(st.total_attempts)});
            const std::string key = pointKey(p, arm);
            report.metric("goodput_" + key, st.base.goodput_rps);
            report.metric("ls_p99_ms_" + key, ls.latency.p99_ms);
            report.metric("ls_p999_ms_" + key, ls.latency.p999_ms);
            report.metric("ls_slo_attain_" + key, ls.slo_attainment);
            report.metric("batch_slo_attain_" + key,
                          st.batch.slo_attainment);
            report.metric("shed_" + key,
                          static_cast<double>(st.base.shed));
            report.metric("hedges_" + key,
                          static_cast<double>(st.hedges_issued));
            report.metric("attempts_" + key,
                          static_cast<double>(st.total_attempts));
            report.metric("budget_denied_" + key,
                          static_cast<double>(st.budget_denied));
            report.metric("brownout_escalations_" + key,
                          static_cast<double>(st.brownout_escalations));
        }
    }
    t.print(std::cout);

    // Headline contract: at 2x load with 10% faults (steady trace),
    // hedging + budgets + brownout must cut the latency-sensitive p999
    // below the plain arm while bounding total attempts below the
    // unbudgeted hedged arm.
    const ServeStats *plain = nullptr, *hedged = nullptr,
                     *tail = nullptr;
    for (std::size_t i = 0; i < points.size(); ++i) {
        const Point &p = points[i];
        if (p.shape == TraceShape::Steady && p.load == 2.0 &&
            p.fault_rate == 0.1) {
            plain = &results[3 * i];
            hedged = &results[3 * i + 1];
            tail = &results[3 * i + 2];
        }
    }
    if (plain && hedged && tail) {
        const bool p999_cut = tail->latency_sensitive.latency.p999_ms <
                              plain->latency_sensitive.latency.p999_ms;
        const bool bounded =
            tail->total_attempts < hedged->total_attempts;
        Table c("Serving contract at steady 2.0x load, 10% faults");
        c.header({"metric", "plain", "hedged", "tail", "ok?"});
        c.row({"ls p999 (ms)",
               Table::num(plain->latency_sensitive.latency.p999_ms),
               Table::num(hedged->latency_sensitive.latency.p999_ms),
               Table::num(tail->latency_sensitive.latency.p999_ms),
               p999_cut ? "yes" : "NO"});
        c.row({"total attempts", std::to_string(plain->total_attempts),
               std::to_string(hedged->total_attempts),
               std::to_string(tail->total_attempts),
               bounded ? "yes" : "NO"});
        c.print(std::cout);
        report.metric("serving_contract",
                      (p999_cut && bounded) ? 1.0 : 0.0);
        std::printf("serving contract: %s (ls p999 %s, attempts %s)\n\n",
                    (p999_cut && bounded) ? "PASS" : "FAIL",
                    p999_cut ? "cut" : "NOT cut",
                    bounded ? "bounded" : "NOT bounded");
    }
    return report.write();
}
