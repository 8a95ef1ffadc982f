/**
 * @file
 * Multi-tenant stress driver: sweeps K concurrent closed-loop request
 * streams (tenant i runs suite app i mod 5) over one shared fabric and
 * reports per-tenant latency, throughput, slowdown vs running alone,
 * and Jain's fairness index. Independent stress points fan across
 * exec::ScenarioRunner workers; results commit in submission order, so
 * output is byte-identical at every --jobs level.
 *
 * Usage:
 *   stress_multitenant [--tenants K] [--requests R] [--placement P]
 *                      [--jobs N] [--json PATH]
 *
 * With --tenants the sweep is the single point K; without it the sweep
 * is 2,4,8,12,16 tenants.
 */

#include <algorithm>
#include <cstring>

#include "bench/bench_util.hh"
#include "common/logging.hh"
#include "common/strutil.hh"
#include "sys/multi_tenant.hh"

using namespace dmx;
using namespace dmx::sys;

namespace
{

Placement
parsePlacement(const char *s)
{
    for (Placement p :
         {Placement::AllCpu, Placement::MultiAxl, Placement::IntegratedDrx,
          Placement::StandaloneDrx, Placement::BumpInTheWire,
          Placement::PcieIntegrated}) {
        if (toString(p) == s)
            return p;
    }
    dmx_fatal("unknown placement '%s' (try e.g. bump-in-the-wire)", s);
}

} // namespace

int
main(int argc, char **argv)
{
    bench::BenchReport report(argc, argv, "stress_multitenant");

    std::vector<unsigned> sweep{2, 4, 8, 12, 16};
    unsigned requests = 3;
    Placement placement = Placement::BumpInTheWire;
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
        if (std::strcmp(argv[i], "--tenants") == 0) {
            unsigned tenants = 0;
            number("--tenants", tenants);
            sweep = {tenants};
        } else if (std::strcmp(argv[i], "--requests") == 0) {
            number("--requests", requests);
        } else if (std::strcmp(argv[i], "--placement") == 0) {
            placement = parsePlacement(value("--placement"));
        }
    }

    bench::banner("Multi-tenant stress - K concurrent request streams",
                  "extends Sec. VII (shared-fabric contention)");

    // Echo the run configuration into the report (config_ metrics are
    // informational for bench_diff: provenance, never gated).
    report.metric("config_requests", static_cast<double>(requests));
    report.metric("config_placement",
                  static_cast<double>(static_cast<int>(placement)));
    report.metric("config_tenant_points",
                  static_cast<double>(sweep.size()));

    std::vector<std::function<MultiTenantStats()>> thunks;
    for (unsigned k : sweep) {
        thunks.push_back([k, requests, placement] {
            MultiTenantConfig cfg;
            cfg.tenants = k;
            cfg.requests_per_tenant = requests;
            cfg.placement = placement;
            return simulateMultiTenant(cfg, bench::suite());
        });
    }
    const std::vector<MultiTenantStats> points =
        bench::runSweep<MultiTenantStats>(report, std::move(thunks));

    Table t("Multi-tenant stress (" + toString(placement) + ")");
    t.header({"tenants", "agg latency (ms)", "agg tput (rps)",
              "worst slowdown (x)", "fairness"});
    for (std::size_t i = 0; i < sweep.size(); ++i) {
        const unsigned k = sweep[i];
        const MultiTenantStats &mt = points[i];
        double agg_tput = 0;
        for (const TenantStats &ts : mt.tenants)
            agg_tput += ts.throughput_rps;
        double worst_p99 = 0;
        std::uint64_t shed = 0, ddl = 0;
        for (const TenantStats &ts : mt.tenants) {
            worst_p99 = std::max(worst_p99, ts.p99_latency_ms);
            shed += ts.shed;
            ddl += ts.deadline_misses;
        }
        t.row({std::to_string(k),
               Table::num(mt.aggregate.avg_latency_ms),
               Table::num(agg_tput), Table::num(mt.worstSlowdown()),
               Table::num(mt.fairness, 3)});
        report.metric("latency_ms_k" + std::to_string(k),
                      mt.aggregate.avg_latency_ms);
        report.metric("fairness_k" + std::to_string(k), mt.fairness);
        report.metric("worst_slowdown_k" + std::to_string(k),
                      mt.worstSlowdown());
        report.metric("worst_p99_ms_k" + std::to_string(k), worst_p99);
        report.metric("shed_k" + std::to_string(k),
                      static_cast<double>(shed));
        report.metric("deadline_misses_k" + std::to_string(k),
                      static_cast<double>(ddl));
    }
    t.print(std::cout);

    // Per-tenant detail for the largest point. Shed and deadline-miss
    // counters read 0 unless overload protection (MultiTenantConfig::
    // robust) is switched on; p99 is over completed requests.
    const MultiTenantStats &last = points.back();
    Table d("Per-tenant detail, " + std::to_string(sweep.back()) +
            " tenants");
    d.header({"tenant", "app", "latency (ms)", "p99 (ms)", "solo (ms)",
              "slowdown (x)", "tput (rps)", "shed", "ddl miss"});
    for (std::size_t i = 0; i < last.tenants.size(); ++i) {
        const TenantStats &ts = last.tenants[i];
        d.row({std::to_string(i), ts.app_name, Table::num(ts.latency_ms),
               Table::num(ts.p99_latency_ms),
               Table::num(ts.solo_latency_ms), Table::num(ts.slowdown()),
               Table::num(ts.throughput_rps), std::to_string(ts.shed),
               std::to_string(ts.deadline_misses)});
    }
    d.print(std::cout);
    return report.write();
}
