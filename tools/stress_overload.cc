/**
 * @file
 * Overload stress driver: sweeps offered load x kernel fault rate over
 * the open-loop sys::simulateOverload engine, once with overload
 * protection off (legacy) and once with the full protection stack on
 * (admission control, circuit breakers, credit-gated submission rings,
 * deadline budgets), and reports goodput, shed rate, p99 latency,
 * breaker open time and submission-ring overruns side by side.
 *
 * Independent stress points fan across exec::ScenarioRunner workers;
 * results commit in submission order, so output is byte-identical at
 * every --jobs level.
 *
 * Usage:
 *   stress_overload [--requests N] [--devices D] [--seed S]
 *                   [--batch B] [--request-bytes BYTES]
 *                   [--jobs N] [--json PATH]
 */

#include <cstdio>
#include <cstring>

#include "bench/bench_util.hh"
#include "common/logging.hh"
#include "common/strutil.hh"
#include "sys/overload.hh"

using namespace dmx;
using namespace dmx::sys;

namespace
{

/** One sweep point: a (load, fault-rate) pair. */
struct Point
{
    double load;
    double fault_rate;
};

/** The protection stack under test. */
robust::RobustConfig
protectedConfig()
{
    robust::RobustConfig rc;
    rc.backpressure.enabled = true;
    rc.admission.policy = robust::AdmissionPolicy::StaticCap;
    rc.admission.queue_depth_cap = 4;
    rc.breaker.enabled = true;
    return rc;
}

/** Stable metric suffix, e.g. "l2.0_f0.10". */
std::string
pointKey(const Point &p)
{
    char buf[48];
    std::snprintf(buf, sizeof(buf), "l%.1f_f%.2f", p.load, p.fault_rate);
    return buf;
}

} // namespace

int
main(int argc, char **argv)
{
    bench::BenchReport report(argc, argv, "stress_overload");

    unsigned requests = 160;
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

    bench::banner("Overload stress - open-loop load x fault sweep",
                  "overload protection & failure containment");

    // Echo the run configuration into the report (config_ metrics are
    // informational for bench_diff: provenance, never gated).
    report.metric("config_seed", static_cast<double>(seed));
    report.metric("config_requests", static_cast<double>(requests));
    report.metric("config_devices", static_cast<double>(devices));
    report.metric("config_batch", static_cast<double>(batch));
    report.metric("config_request_bytes",
                  static_cast<double>(request_bytes));

    const std::vector<Point> points{
        {0.5, 0.0}, {1.0, 0.0}, {2.0, 0.0},
        {0.5, 0.1}, {1.0, 0.1}, {2.0, 0.1}, {3.0, 0.1},
        {2.0, 0.5},
    };

    // Two thunks per point: legacy (protection off) then protected.
    std::vector<std::function<OverloadStats()>> thunks;
    for (const Point &p : points) {
        for (const bool prot : {false, true}) {
            thunks.push_back([p, prot, requests, devices, seed, batch,
                              request_bytes] {
                OverloadConfig cfg;
                cfg.requests = requests;
                cfg.devices = devices;
                cfg.seed = seed;
                cfg.batch = batch;
                cfg.request_bytes = request_bytes;
                cfg.load = p.load;
                cfg.fault_rate = p.fault_rate;
                if (prot) {
                    cfg.robust = protectedConfig();
                    cfg.deadline_factor = 16;
                }
                return simulateOverload(cfg);
            });
        }
    }
    const std::vector<OverloadStats> results =
        bench::runSweep<OverloadStats>(report, std::move(thunks));

    Table t("Overload sweep (" + std::to_string(devices) + " devices, " +
            std::to_string(requests) + " requests per point)");
    t.header({"load", "faults", "mode", "goodput (rps)", "shed",
              "p99 (ms)", "overflows", "breaker open (ms)",
              "stalls"});
    for (std::size_t i = 0; i < points.size(); ++i) {
        const Point &p = points[i];
        for (const bool prot : {false, true}) {
            const OverloadStats &st = results[2 * i + (prot ? 1 : 0)];
            t.row({Table::num(p.load, 1), Table::num(p.fault_rate, 2),
                   prot ? "protected" : "legacy",
                   Table::num(st.goodput_rps),
                   std::to_string(st.shed), Table::num(st.p99_latency_ms),
                   std::to_string(st.queue_overflows),
                   Table::num(st.breaker_open_ms),
                   std::to_string(st.backpressure_stalls)});
            const std::string key =
                pointKey(p) + (prot ? "_prot" : "_legacy");
            report.metric("goodput_" + key, st.goodput_rps);
            report.metric("p99_ms_" + key, st.p99_latency_ms);
            report.metric("shed_" + key,
                          static_cast<double>(st.shed));
            report.metric("overflows_" + key,
                          static_cast<double>(st.queue_overflows));
            // Per-point config echo: load, fault rate, and whether the
            // protection stack (and its deadline budget) was armed.
            report.metric("config_load_" + key, p.load);
            report.metric("config_fault_rate_" + key, p.fault_rate);
            report.metric("config_robust_" + key, prot ? 1.0 : 0.0);
            report.metric("config_deadline_factor_" + key,
                          prot ? 16.0 : 0.0);
        }
    }
    t.print(std::cout);

    // Containment check at the headline point: >= 2x saturating load
    // with 10% kernel faults. Protection must buy strictly better
    // goodput and tail latency while keeping every submission ring
    // inside its credit window.
    Table c("Containment at 2.0x load, 10% faults");
    c.header({"metric", "legacy", "protected", "contained?"});
    const OverloadStats *legacy = nullptr, *prot = nullptr;
    for (std::size_t i = 0; i < points.size(); ++i) {
        if (points[i].load == 2.0 && points[i].fault_rate == 0.1) {
            legacy = &results[2 * i];
            prot = &results[2 * i + 1];
        }
    }
    if (legacy && prot) {
        const bool g = prot->goodput_rps > legacy->goodput_rps;
        const bool l = prot->p99_latency_ms < legacy->p99_latency_ms;
        const bool w =
            prot->max_ring_high_water <= prot->ring_credit_window &&
            prot->queue_overflows == 0;
        c.row({"goodput (rps)", Table::num(legacy->goodput_rps),
               Table::num(prot->goodput_rps), g ? "yes" : "NO"});
        c.row({"p99 latency (ms)", Table::num(legacy->p99_latency_ms),
               Table::num(prot->p99_latency_ms), l ? "yes" : "NO"});
        c.row({"ring high water (B)",
               std::to_string(legacy->max_ring_high_water),
               std::to_string(prot->max_ring_high_water),
               w ? "yes" : "NO"});
        c.print(std::cout);
        report.metric("contained",
                      (g && l && w) ? 1.0 : 0.0);
        std::printf("containment: %s (goodput %s, p99 %s, credit "
                    "window %s)\n\n",
                    (g && l && w) ? "PASS" : "FAIL",
                    g ? "up" : "NOT up", l ? "down" : "NOT down",
                    w ? "respected" : "VIOLATED");
    }
    return report.write();
}
