/**
 * @file
 * Datacenter what-if explorer: build the five Table I applications and
 * compare data-motion strategies for a concurrency level given on the
 * command line.
 *
 * Usage:  ./build/examples/datacenter_sim [n_apps]
 */

#include <cstdio>
#include <iostream>

#include "apps/benchmarks.hh"
#include "common/strutil.hh"
#include "common/table.hh"
#include "sys/system.hh"

using namespace dmx;
using namespace dmx::sys;

int
main(int argc, char **argv)
{
    unsigned n_apps = 8;
    if (argc > 1 && (!parseDecimal(argv[1], n_apps) || n_apps == 0)) {
        std::fprintf(stderr,
                     "usage: %s [n_apps]\n"
                     "  n_apps: concurrent applications, a positive "
                     "decimal count (default 8); got '%s'\n",
                     argv[0], argv[1]);
        return 2;
    }
    std::printf("DMX datacenter simulation: %u concurrent applications "
                "(mixed Table I suite)\n\n", n_apps);

    apps::SuiteParams params;
    const auto suite = apps::standardSuite(params);

    Table t("Data-motion strategy comparison");
    t.header({"placement", "avg latency (ms)", "kernel ms",
              "restructure ms", "movement ms", "throughput (req/s)",
              "energy (J)", "irqs", "polls"});
    for (Placement p :
         {Placement::AllCpu, Placement::MultiAxl, Placement::IntegratedDrx,
          Placement::StandaloneDrx, Placement::BumpInTheWire,
          Placement::PcieIntegrated}) {
        SystemConfig cfg;
        cfg.placement = p;
        cfg.n_apps = n_apps;
        const RunStats s = simulateSystem(cfg, suite);
        t.row({toString(p), Table::num(s.avg_latency_ms),
               Table::num(s.breakdown.kernel_ms),
               Table::num(s.breakdown.restructure_ms),
               Table::num(s.breakdown.movement_ms),
               Table::num(s.avg_throughput_rps, 1),
               Table::num(s.energy.total()),
               std::to_string(s.interrupts), std::to_string(s.polls)});
    }
    t.print(std::cout);

    std::printf("Try: %s 15   (the paper's largest configuration: 30 "
                "accelerators)\n", argv[0]);
    return 0;
}
