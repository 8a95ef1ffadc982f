/**
 * @file
 * Figure 14: latency speedup over Multi-Axl for the four DRX
 * placements, averaged across the five benchmarks, for 1-15 concurrent
 * applications. Paper ordering: Integrated <= Standalone <=
 * Bump-in-the-Wire <= PCIe-Integrated.
 *
 * --batch B reruns the whole sweep with SystemConfig::batch = B
 * (batched doorbells + coalesced completions, DESIGN.md 7j) on the
 * DMX placements; the Multi-Axl baseline always runs unbatched. The
 * default (1) is byte-identical to the pre-batching figure.
 */

#include <cstring>

#include "bench/bench_util.hh"
#include "common/logging.hh"
#include "common/strutil.hh"

using namespace dmx;
using namespace dmx::sys;

int
main(int argc, char **argv)
{
    bench::BenchReport report(argc, argv, "fig14_placement");
    unsigned batch = 1;
    for (int i = 1; i < argc - 1; ++i)
        if (std::strcmp(argv[i], "--batch") == 0 &&
            !parseDecimal(argv[i + 1], batch))
            dmx_fatal("--batch '%s': expected a non-negative decimal "
                      "integer in range", argv[i + 1]);
    bench::banner("Figure 14 - DRX placement comparison",
                  "Sec. VII-B, Fig. 14");
    if (batch != 1)
        report.metric("config_batch", static_cast<double>(batch));

    const std::vector<Placement> placements{
        Placement::IntegratedDrx, Placement::StandaloneDrx,
        Placement::BumpInTheWire, Placement::PcieIntegrated};

    Table t("Fig 14: average latency speedup (x) over Multi-Axl");
    t.header({"apps", "integrated", "standalone", "bump-in-the-wire",
              "pcie-integrated"});
    std::vector<std::function<double()>> thunks;
    for (unsigned n : bench::concurrency_sweep) {
        for (const auto &app : bench::suite())
            thunks.push_back([&app, n] {
                return bench::runHomogeneous(app, Placement::MultiAxl, n)
                    .avg_latency_ms;
            });
        for (Placement p : placements) {
            for (const auto &app : bench::suite())
                thunks.push_back([&app, p, n, batch] {
                    return bench::runHomogeneous(
                               app, p, n, pcie::Generation::Gen3, batch)
                        .avg_latency_ms;
                });
        }
    }
    const std::vector<double> lats =
        bench::runSweep<double>(report, std::move(thunks));

    std::size_t cell = 0;
    for (unsigned n : bench::concurrency_sweep) {
        std::vector<std::string> row{std::to_string(n)};
        std::vector<double> base_lat;
        for (std::size_t i = 0; i < bench::suite().size(); ++i)
            base_lat.push_back(lats[cell++]);
        for (Placement p : placements) {
            std::vector<double> sp;
            for (std::size_t i = 0; i < bench::suite().size(); ++i)
                sp.push_back(base_lat[i] / lats[cell++]);
            const double g = bench::geomean(sp);
            row.push_back(Table::num(g));
            report.metric(toString(p) + "_speedup_n" +
                              std::to_string(n),
                          g);
        }
        t.row(std::move(row));
    }
    t.print(std::cout);

    std::printf("Paper: speedups ordered Integrated <= Standalone <= "
                "Bump-in-the-Wire <= PCIe-Integrated at every\n"
                "concurrency; Integrated reaches 4.4x at 15 apps; "
                "Standalone +3%%/+48%% over Integrated at 1/15 apps;\n"
                "BitW +33/17/26%% over Standalone at 5/10/15 apps.\n");
    return report.write();
}
