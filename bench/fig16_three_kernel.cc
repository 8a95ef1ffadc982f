/**
 * @file
 * Figure 16: scaling beyond two kernels - the Personal Info Redaction
 * benchmark extended with a transformer NER kernel and its
 * reshape/typecast restructuring step. Paper: the baseline is still
 * dominated by data restructuring; DMX restores kernels to 93.7-97.2%
 * of the runtime and provides 1.9x-4.2x speedup for 1-15 apps.
 *
 * Two extra sections report descriptor-chained submission side by side
 * with the legacy per-hop driver loop on the same three-kernel app:
 * the closed loop under sys::ChainSubmission::Descriptor, and a
 * functional integrity::runChain over the NER restructure split into
 * DRX parts, where fusion groups the typecast and normalize parts,
 * which share a DRX, into one Restructure descriptor, and the gather
 * reshape runs on a DRX of its own.
 */

#include <array>

#include "bench/bench_util.hh"
#include "fault/fault.hh"
#include "integrity/chain.hh"
#include "restructure/catalog.hh"

using namespace dmx;
using namespace dmx::sys;

namespace
{

/** nerTokenRestructure split into DRX parts at stage boundaries. */
std::vector<restructure::Kernel>
splitNerParts(std::size_t len, std::size_t seq, std::size_t dim)
{
    const restructure::Kernel whole =
        restructure::nerTokenRestructure(len, seq, dim);
    std::vector<restructure::Kernel> parts;
    for (std::size_t s = 0; s < whole.stages.size(); ++s) {
        restructure::Kernel part;
        part.name = whole.name + "_p" + std::to_string(s);
        part.input = whole.descAfter(s);
        part.stages.push_back(whole.stages[s]);
        parts.push_back(std::move(part));
    }
    return parts;
}

/** Legacy / chained / chained+fused runs of the split-NER chain. */
std::array<integrity::ChainReport, 3>
nerChainTriple()
{
    std::array<integrity::ChainReport, 3> out;
    const struct
    {
        integrity::ChainMode mode;
        bool fuse;
    } variants[3] = {
        {integrity::ChainMode::PerHop, false},
        {integrity::ChainMode::Descriptor, false},
        {integrity::ChainMode::Descriptor, true},
    };
    const auto parts = splitNerParts(256, 16, 32);
    runtime::Bytes input(parts.front().input.bytes());
    for (std::size_t i = 0; i < input.size(); ++i)
        input[i] = static_cast<std::uint8_t>(i * 31 + 7);

    for (int v = 0; v < 3; ++v) {
        runtime::Platform plat;
        // Zero-probability fault plan: completion interrupts are
        // modeled, so eliminated round trips show in the makespan.
        fault::FaultPlan fp;
        plat.setFaultPlan(&fp);
        const auto d0 = plat.addDrx("drx0", {});
        const auto d1 = plat.addDrx("drx1", {});
        std::vector<integrity::ChainStage> chain;
        for (std::size_t s = 0; s < parts.size(); ++s) {
            integrity::ChainStage st;
            // The gather reshape runs alone; the affine typecast +
            // normalize parts share a device, so only they can fuse.
            st.device = s == 0 ? d0 : d1;
            st.kernel = parts[s];
            chain.push_back(st);
        }
        integrity::ChainConfig cfg;
        cfg.mode = variants[v].mode;
        cfg.fuse = variants[v].fuse;
        out[v] = integrity::runChain(plat, chain, input, cfg);
    }
    return out;
}

} // namespace

int
main(int argc, char **argv)
{
    bench::BenchReport report(argc, argv, "fig16_three_kernel");
    bench::banner("Figure 16 - three-kernel Personal Info Redaction+NER",
                  "Sec. VII-C, Fig. 16(a)/(b)");

    apps::SuiteParams params;
    const AppModel app = apps::buildPersonalInfoRedactionNer(params);

    Table t("Fig 16(a): runtime breakdown (%)");
    t.header({"apps", "config", "kernel %", "restructure %",
              "movement %", "latency (ms)"});
    Table s("Fig 16(b): DMX speedup");
    s.header({"apps", "speedup (x)", "paper"});
    const std::vector<std::string> paper{"1.9", "~2.5", "~3.3", "4.2"};

    std::vector<std::function<std::pair<RunStats, RunStats>()>> thunks;
    for (unsigned n : bench::concurrency_sweep) {
        thunks.push_back([&app, n] {
            return std::make_pair(
                bench::runHomogeneous(app, Placement::MultiAxl, n),
                bench::runHomogeneous(app, Placement::BumpInTheWire, n));
        });
    }
    const auto runs =
        bench::runSweep<std::pair<RunStats, RunStats>>(report,
                                                       std::move(thunks));

    for (std::size_t i = 0; i < bench::concurrency_sweep.size(); ++i) {
        const unsigned n = bench::concurrency_sweep[i];
        const RunStats &base = runs[i].first;
        const RunStats &dmx = runs[i].second;
        for (const auto &[name, st] :
             {std::pair<const char *, const RunStats &>{"multi-axl",
                                                        base},
              {"dmx", dmx}}) {
            const double tot = st.breakdown.total();
            t.row({std::to_string(n), name,
                   Table::num(100 * st.breakdown.kernel_ms / tot, 1),
                   Table::num(100 * st.breakdown.restructure_ms / tot, 1),
                   Table::num(100 * st.breakdown.movement_ms / tot, 1),
                   Table::num(st.avg_latency_ms)});
        }
        const double sp_x = base.avg_latency_ms / dmx.avg_latency_ms;
        report.metric("speedup_n" + std::to_string(n), sp_x);
        s.row({std::to_string(n), Table::num(sp_x), paper[i] + "x"});
    }
    t.print(std::cout);
    s.print(std::cout);

    std::printf("Paper: with DMX the kernels account for 97.2%% -> "
                "93.7%% of runtime for 1 -> 15 apps (data motion <5%%).\n\n");

    // -- Descriptor-chained closed loop vs per-hop driver loop -------
    Table c("Descriptor chaining (dmx placement)");
    c.header({"apps", "per-hop (ms)", "chained (ms)", "per-hop trips",
              "chained trips", "desc fetches"});
    std::vector<std::function<RunStats()>> cthunks;
    for (unsigned n : bench::concurrency_sweep) {
        cthunks.push_back([&app, n] {
            SystemConfig cfg;
            cfg.placement = Placement::BumpInTheWire;
            cfg.n_apps = n;
            cfg.chain = ChainSubmission::Descriptor;
            return simulateSystem(cfg, {app});
        });
    }
    const auto chained =
        bench::runSweep<RunStats>(report, std::move(cthunks));
    for (std::size_t i = 0; i < bench::concurrency_sweep.size(); ++i) {
        const std::string n =
            std::to_string(bench::concurrency_sweep[i]);
        const RunStats &legacy = runs[i].second; // per-hop dmx run above
        const RunStats &ch = chained[i];
        report.metric("legacy_makespan_n" + n, legacy.makespan_ms);
        report.metric("chained_makespan_n" + n, ch.makespan_ms);
        report.metric("legacy_trips_n" + n,
                      static_cast<double>(legacy.driver_round_trips));
        report.metric("chained_trips_n" + n,
                      static_cast<double>(ch.driver_round_trips));
        c.row({n, Table::num(legacy.makespan_ms),
               Table::num(ch.makespan_ms),
               std::to_string(legacy.driver_round_trips),
               std::to_string(ch.driver_round_trips),
               std::to_string(ch.descriptor_fetches)});
    }
    c.print(std::cout);

    // -- Split NER restructure: legacy vs chained vs fused -----------
    const auto triple = nerChainTriple();
    const auto &[rt_legacy, rt_chained, rt_fused] = triple;
    Table r("integrity::runChain: split NER restructure (3 DRX parts)");
    r.header({"variant", "makespan ticks", "round trips",
              "fused stages saved"});
    const char *names[3] = {"legacy", "chained", "chained+fused"};
    const integrity::ChainReport *reps[3] = {&rt_legacy, &rt_chained,
                                             &rt_fused};
    for (int v = 0; v < 3; ++v) {
        r.row({names[v], std::to_string(reps[v]->makespan),
               std::to_string(reps[v]->round_trips),
               std::to_string(reps[v]->fused_stages)});
    }
    r.print(std::cout);
    report.metric("ner_legacy_ticks",
                  static_cast<double>(rt_legacy.makespan));
    report.metric("ner_chained_ticks",
                  static_cast<double>(rt_chained.makespan));
    report.metric("ner_fused_ticks",
                  static_cast<double>(rt_fused.makespan));
    report.metric("ner_legacy_trips",
                  static_cast<double>(rt_legacy.round_trips));
    report.metric("ner_chained_trips",
                  static_cast<double>(rt_chained.round_trips));
    report.metric("ner_fused_stages",
                  static_cast<double>(rt_fused.fused_stages));

    std::printf("Fusion groups the typecast+normalize parts, which share "
                "a DRX, into one Restructure descriptor whose plans\n"
                "run back to back; the gather reshape runs on its own "
                "DRX (outputs stay byte-identical throughout).\n");
    return report.write();
}
