/**
 * @file
 * Extension study (paper Sec. VII-C + conclusion): how does the DMX
 * advantage scale as applications chain MORE than three kernels? The
 * conclusion argues that emerging multimodal pipelines chain many
 * cross-domain models; every extra kernel adds a data-motion step, so
 * the baseline's CPU restructuring load grows with chain length while
 * DMX's per-hop cost stays constant.
 *
 * Synthetic chains of K equal stages (kernel ~2 ms accelerated, 8 MB
 * motion between stages) at 10 concurrent applications.
 *
 * Two extra sections quantify descriptor-chained DMA submission on the
 * same sweep, side by side with the legacy per-hop driver loop:
 *  - the closed loop under sys::ChainSubmission::Descriptor (mid-chain
 *    interrupt/doorbell round trips become engine descriptor fetches);
 *  - functional integrity::runChain chains of DRX restructure stages
 *    under ChainMode::Descriptor, with and without fusion (adjacent
 *    same-device stages grouped into one Restructure descriptor).
 */

#include <array>

#include "bench/bench_util.hh"
#include "fault/fault.hh"
#include "integrity/chain.hh"

using namespace dmx;
using namespace dmx::sys;

namespace
{

AppModel
chainApp(std::size_t k_count)
{
    AppModel app;
    app.name = "chain" + std::to_string(k_count);
    app.input_bytes = 8 * mib;
    for (std::size_t k = 0; k < k_count; ++k) {
        KernelTiming kt;
        kt.name = "k" + std::to_string(k);
        kt.cpu_core_seconds = 0.024;
        kt.accel_cycles = 500'000; // 2 ms at 250 MHz
        kt.accel_freq_hz = 250e6;
        kt.out_bytes = 8 * mib;
        app.kernels.push_back(kt);
        if (k + 1 < k_count) {
            MotionTiming mt;
            mt.name = "m" + std::to_string(k);
            mt.cpu_core_seconds = 0.030; // streaming restructure
            mt.drx_cycles = 800'000;     // 0.8 ms at 1 GHz
            mt.in_bytes = 8 * mib;
            mt.out_bytes = 8 * mib;
            app.motions.push_back(mt);
        }
    }
    return app;
}

/** A small DRX restructure kernel (affine map). */
restructure::Kernel
scaleKernel()
{
    restructure::Kernel k;
    k.name = "chain_scale";
    k.input.dtype = DType::F32;
    k.input.shape = {64, 64};
    k.stages.push_back(restructure::mapStage(
        {{restructure::MapFn::Scale, 1.0009765625f}}));
    return k;
}

/** Legacy / descriptor-chained / descriptor+fused runs of one chain. */
std::array<integrity::ChainReport, 3>
runtimeChainTriple(unsigned n_stages)
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
    const restructure::Kernel kernel = scaleKernel();
    runtime::Bytes input(kernel.input.bytes());
    std::vector<float> vals(kernel.input.elems());
    for (std::size_t i = 0; i < vals.size(); ++i)
        vals[i] = 1.0f + 0.001f * static_cast<float>(i % 97);
    std::memcpy(input.data(), vals.data(), input.size());

    for (int v = 0; v < 3; ++v) {
        runtime::Platform plat;
        // Zero-probability fault plan: no faults fire, but completion
        // interrupts are modeled, so the per-command driver round trip
        // the descriptor chain eliminates shows up in the makespan.
        fault::FaultPlan fp;
        plat.setFaultPlan(&fp);
        const auto d0 = plat.addDrx("drx0", {});
        const auto d1 = plat.addDrx("drx1", {});
        std::vector<integrity::ChainStage> chain;
        for (unsigned s = 0; s < n_stages; ++s) {
            integrity::ChainStage st;
            // Pairs of same-device stages (fusion groups each pair)
            // with a p2p hop between pairs: d0, d0, d1, d1, d0, ...
            st.device = (s / 2) % 2 ? d1 : d0;
            st.kernel = kernel;
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
    bench::BenchReport report(argc, argv, "ext_chain_length");
    bench::banner("Extension - speedup vs kernel-chain length",
                  "generalizes Sec. VII-C (Fig. 16) / conclusion");

    Table t("DMX speedup vs chain length (10 concurrent apps)");
    t.header({"kernels per app", "multi-axl (ms)", "dmx (ms)",
              "speedup (x)", "baseline restructure share %"});
    const std::vector<std::size_t> chain_sweep{2u, 3u, 4u, 5u, 6u};
    std::vector<std::function<std::pair<RunStats, RunStats>()>> thunks;
    for (std::size_t k : chain_sweep) {
        thunks.push_back([k] {
            const AppModel app = chainApp(k);
            SystemConfig cfg;
            cfg.n_apps = 10;
            cfg.placement = Placement::MultiAxl;
            const RunStats base = simulateSystem(cfg, {app});
            cfg.placement = Placement::BumpInTheWire;
            return std::make_pair(base, simulateSystem(cfg, {app}));
        });
    }
    const auto runs = bench::runSweep<std::pair<RunStats, RunStats>>(
        report, std::move(thunks));

    for (std::size_t i = 0; i < chain_sweep.size(); ++i) {
        const std::size_t k = chain_sweep[i];
        const RunStats &base = runs[i].first;
        const RunStats &dmx = runs[i].second;
        const double sp_x = base.avg_latency_ms / dmx.avg_latency_ms;
        report.metric("speedup_k" + std::to_string(k), sp_x);
        t.row({std::to_string(k), Table::num(base.avg_latency_ms),
               Table::num(dmx.avg_latency_ms), Table::num(sp_x),
               Table::num(100 * base.breakdown.restructure_ms /
                          base.breakdown.total(), 1)});
    }
    t.print(std::cout);

    std::printf("Expected shape: the DMX advantage grows with chain "
                "length - each extra kernel adds one CPU restructuring\n"
                "step to the baseline but only a fixed-cost p2p hop to "
                "DMX (the composable monolithic-accelerator illusion).\n\n");

    // -- Descriptor-chained closed loop vs per-hop driver loop -------
    // Same DMX sweep under ChainSubmission::Descriptor: the host
    // programs each request's chain once; mid-chain completion
    // interrupts and doorbells become engine descriptor fetches.
    Table c("Descriptor chaining (dmx placement, 10 apps)");
    c.header({"kernels per app", "per-hop (ms)", "chained (ms)",
              "per-hop trips", "chained trips", "desc fetches"});
    std::vector<std::function<RunStats()>> cthunks;
    for (std::size_t k : chain_sweep) {
        cthunks.push_back([k] {
            const AppModel app = chainApp(k);
            SystemConfig cfg;
            cfg.n_apps = 10;
            cfg.placement = Placement::BumpInTheWire;
            cfg.chain = ChainSubmission::Descriptor;
            return simulateSystem(cfg, {app});
        });
    }
    const auto chained =
        bench::runSweep<RunStats>(report, std::move(cthunks));
    for (std::size_t i = 0; i < chain_sweep.size(); ++i) {
        const std::string k = std::to_string(chain_sweep[i]);
        const RunStats &legacy = runs[i].second; // per-hop dmx run above
        const RunStats &ch = chained[i];
        report.metric("legacy_makespan_k" + k, legacy.makespan_ms);
        report.metric("chained_makespan_k" + k, ch.makespan_ms);
        report.metric("legacy_trips_k" + k,
                      static_cast<double>(legacy.driver_round_trips));
        report.metric("chained_trips_k" + k,
                      static_cast<double>(ch.driver_round_trips));
        report.metric("desc_fetches_k" + k,
                      static_cast<double>(ch.descriptor_fetches));
        c.row({k, Table::num(legacy.makespan_ms),
               Table::num(ch.makespan_ms),
               std::to_string(legacy.driver_round_trips),
               std::to_string(ch.driver_round_trips),
               std::to_string(ch.descriptor_fetches)});
    }
    c.print(std::cout);

    // -- Batched submission on the same sweep ------------------------
    // SystemConfig::batch = 8: each app rings one doorbell per 8 flow
    // submissions and takes one completion interrupt per 8 pipeline
    // steps (the rest are completion-record polls).
    Table b("Batched submission (dmx placement, 10 apps, batch=8)");
    b.header({"kernels per app", "legacy (ms)", "batched (ms)",
              "legacy doorbells", "batched doorbells", "legacy trips",
              "batched trips", "suppressed"});
    std::vector<std::function<RunStats()>> bthunks;
    for (std::size_t k : chain_sweep) {
        bthunks.push_back([k] {
            const AppModel app = chainApp(k);
            SystemConfig cfg;
            cfg.n_apps = 10;
            cfg.placement = Placement::BumpInTheWire;
            cfg.batch = 8;
            return simulateSystem(cfg, {app});
        });
    }
    const auto batched =
        bench::runSweep<RunStats>(report, std::move(bthunks));
    for (std::size_t i = 0; i < chain_sweep.size(); ++i) {
        const std::string k = std::to_string(chain_sweep[i]);
        const RunStats &legacy = runs[i].second; // per-hop dmx run above
        const RunStats &bt = batched[i];
        report.metric("legacy_doorbells_k" + k,
                      static_cast<double>(legacy.doorbells));
        report.metric("batched_doorbells_k" + k,
                      static_cast<double>(bt.doorbells));
        report.metric("batched_makespan_k" + k, bt.makespan_ms);
        report.metric("batched_trips_k" + k,
                      static_cast<double>(bt.driver_round_trips));
        report.metric("batched_suppressed_k" + k,
                      static_cast<double>(bt.notifications_suppressed));
        b.row({k, Table::num(legacy.makespan_ms),
               Table::num(bt.makespan_ms),
               std::to_string(legacy.doorbells),
               std::to_string(bt.doorbells),
               std::to_string(legacy.driver_round_trips),
               std::to_string(bt.driver_round_trips),
               std::to_string(bt.notifications_suppressed)});
    }
    b.print(std::cout);

    // -- Functional runtime chains: legacy vs chained vs fused -------
    Table r("integrity::runChain: DRX stage chains (ticks)");
    r.header({"stages", "legacy", "chained", "fused", "legacy trips",
              "chained trips", "fused stages saved"});
    const std::vector<unsigned> stage_sweep{3u, 4u, 5u, 6u};
    std::vector<std::function<std::array<integrity::ChainReport, 3>()>>
        rthunks;
    for (unsigned n : stage_sweep) {
        rthunks.push_back([n] { return runtimeChainTriple(n); });
    }
    const auto triples =
        bench::runSweep<std::array<integrity::ChainReport, 3>>(
            report, std::move(rthunks));
    for (std::size_t i = 0; i < stage_sweep.size(); ++i) {
        const std::string k = std::to_string(stage_sweep[i]);
        const auto &[legacy, ch, fused] = triples[i];
        report.metric("rt_legacy_ticks_k" + k,
                      static_cast<double>(legacy.makespan));
        report.metric("rt_chained_ticks_k" + k,
                      static_cast<double>(ch.makespan));
        report.metric("rt_fused_ticks_k" + k,
                      static_cast<double>(fused.makespan));
        report.metric("rt_legacy_trips_k" + k,
                      static_cast<double>(legacy.round_trips));
        report.metric("rt_chained_trips_k" + k,
                      static_cast<double>(ch.round_trips));
        report.metric("rt_fused_stages_k" + k,
                      static_cast<double>(fused.fused_stages));
        r.row({k, std::to_string(legacy.makespan),
               std::to_string(ch.makespan),
               std::to_string(fused.makespan),
               std::to_string(legacy.round_trips),
               std::to_string(ch.round_trips),
               std::to_string(fused.fused_stages)});
    }
    r.print(std::cout);

    std::printf("Descriptor chaining pays one driver round trip per "
                "chain instead of one per command; fusion additionally\n"
                "merges adjacent same-device DRX stages into one "
                "compiled plan (identical bytes, fewer installs).\n");
    return report.write();
}
