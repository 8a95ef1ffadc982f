/**
 * @file
 * Microbenchmark: batched descriptor submission & coalesced completions
 * (DESIGN.md 7j) - the DSA-style batch-size x transfer-size crossover
 * surface.
 *
 * Three sections:
 *  1. Copy crossover: 16 p2p copies at every (transfer size, batch
 *     size) point. Legacy (batch=1) pays one doorbell and one
 *     completion notification per copy; a batch of B pays one doorbell
 *     per B descriptors and one coalesced notification per batch. The
 *     payload digest is checked in-harness: every batch size must
 *     deliver byte-identical output.
 *  2. Restructure streams: 16 small (1 KiB) and large (64 KiB) DRX
 *     restructure ops, legacy vs one 16-member batch - the
 *     notification-per-command tax sits on the legacy stream's critical
 *     path, so small-transfer streams are where batching pays most.
 *  3. Closed-loop crossover: sys::SystemConfig::batch across four
 *     placements and three motion sizes - one doorbell per batch of
 *     flow submissions, one interrupt per batch of pipeline steps.
 *
 * A zero-probability fault plan is installed in sections 1-2 so the
 * completion-notification path is modeled (the fault-free settle path
 * deliberately pays no notifications); no fault ever fires, so runs
 * stay deterministic.
 */

#include <algorithm>

#include "bench/bench_util.hh"
#include "common/logging.hh"
#include "fault/fault.hh"
#include "runtime/batch.hh"

using namespace dmx;
using namespace dmx::sys;

namespace
{

constexpr unsigned kStream = 16; ///< commands per measured stream

/** Trivial pass-through accelerator kernel (copies don't run it). */
runtime::Bytes
passKernel(const runtime::Bytes &in, kernels::OpCount &ops)
{
    ops.int_ops += in.size();
    ops.bytes_read += in.size();
    ops.bytes_written += in.size();
    return in;
}

std::uint64_t
fnv(std::uint64_t h, const runtime::Bytes &b)
{
    for (const std::uint8_t c : b) {
        h ^= c;
        h *= 1099511628211ull;
    }
    return h;
}

struct CopyPoint
{
    Tick makespan = 0;
    std::uint64_t doorbells = 0;
    std::uint64_t notifications = 0;
    std::uint64_t suppressed = 0;
    std::uint64_t digest = 0;
};

/** Run kStream copies of @p bytes each in batches of @p batch. */
CopyPoint
runCopies(std::uint64_t bytes, unsigned batch)
{
    runtime::Platform plat;
    fault::FaultPlan fp{fault::FaultSpec{}};
    plat.setFaultPlan(&fp);
    const auto a0 =
        plat.addAccelerator("a0", accel::Domain::Crypto, passKernel);
    const auto a1 =
        plat.addAccelerator("a1", accel::Domain::Crypto, passKernel);
    runtime::Context ctx = plat.createContext();

    std::vector<runtime::BufferId> ins(kStream), outs(kStream);
    for (unsigned i = 0; i < kStream; ++i) {
        runtime::Bytes payload(bytes);
        for (std::size_t j = 0; j < payload.size(); ++j)
            payload[j] =
                static_cast<std::uint8_t>((i * 131u + j * 7u) & 0xffu);
        ins[i] = ctx.createBuffer(std::move(payload));
        outs[i] = ctx.createBuffer();
    }

    std::vector<runtime::Event> evs;
    std::vector<runtime::BatchEvent> bevs;
    if (batch <= 1) {
        for (unsigned i = 0; i < kStream; ++i)
            evs.push_back(ctx.queue(a0).enqueueCopy(ins[i], outs[i], a1));
    } else {
        for (unsigned g = 0; g < kStream; g += batch) {
            std::vector<runtime::BatchOp> ops;
            for (unsigned i = g; i < std::min(kStream, g + batch); ++i) {
                runtime::BatchOp op;
                op.kind = runtime::BatchOp::Kind::Copy;
                op.device = a0;
                op.dst_device = a1;
                op.in = ins[i];
                op.out = outs[i];
                ops.push_back(op);
            }
            bevs.push_back(runtime::submitBatch(ctx, ops));
        }
    }
    ctx.finish();

    CopyPoint r;
    for (const runtime::Event &ev : evs) {
        if (!ev.ok())
            dmx_panic("micro_batch: legacy copy failed");
        r.makespan = std::max(r.makespan, ev.completeTime());
    }
    for (const runtime::BatchEvent &bev : bevs) {
        if (!bev.ok())
            dmx_panic("micro_batch: batched copy failed");
        r.makespan = std::max(r.makespan, bev.completeTime());
    }
    r.doorbells = plat.fabric().doorbells();
    // Total notification events: the NAPI controller may deliver any
    // of them in polled mode, so interrupts alone undercounts legacy.
    r.notifications =
        plat.irq().interruptsDelivered() + plat.irq().pollsDelivered();
    r.suppressed = plat.irq().suppressedNotifications();
    std::uint64_t h = 1469598103934665603ull;
    for (unsigned i = 0; i < kStream; ++i)
        h = fnv(h, ctx.read(outs[i]));
    r.digest = h;
    return r;
}

/** An affine DRX kernel (a Scale map) on a side x side f32 tile. */
restructure::Kernel
tileKernel(std::size_t side)
{
    restructure::Kernel k;
    k.name = "batch_scale" + std::to_string(side);
    k.input.dtype = DType::F32;
    k.input.shape = {side, side};
    k.stages.push_back(restructure::mapStage(
        {{restructure::MapFn::Scale, 1.0009765625f}}));
    return k;
}

struct RestrPoint
{
    Tick makespan = 0;
    std::uint64_t notifications = 0;
    std::uint64_t digest = 0;
};

/** Run kStream restructure ops of a side x side tile each. */
RestrPoint
runRestructures(std::size_t side, bool batched)
{
    runtime::Platform plat;
    fault::FaultPlan fp{fault::FaultSpec{}};
    plat.setFaultPlan(&fp);
    const auto d0 = plat.addDrx("drx0", {});
    const restructure::Kernel kernel = tileKernel(side);
    runtime::Context ctx = plat.createContext();

    runtime::Bytes input(kernel.input.bytes());
    std::vector<float> vals(kernel.input.elems());
    for (std::size_t i = 0; i < vals.size(); ++i)
        vals[i] = 1.0f + 0.001f * static_cast<float>(i % 97);
    std::memcpy(input.data(), vals.data(), input.size());

    std::vector<runtime::BufferId> ins(kStream), outs(kStream);
    for (unsigned i = 0; i < kStream; ++i) {
        ins[i] = ctx.createBuffer(input);
        outs[i] = ctx.createBuffer();
    }

    RestrPoint r;
    if (!batched) {
        std::vector<runtime::Event> evs;
        for (unsigned i = 0; i < kStream; ++i)
            evs.push_back(
                ctx.queue(d0).enqueueRestructure(kernel, ins[i], outs[i]));
        ctx.finish();
        for (const runtime::Event &ev : evs) {
            if (!ev.ok())
                dmx_panic("micro_batch: legacy restructure failed");
            r.makespan = std::max(r.makespan, ev.completeTime());
        }
    } else {
        std::vector<runtime::BatchOp> ops;
        for (unsigned i = 0; i < kStream; ++i) {
            runtime::BatchOp op;
            op.kind = runtime::BatchOp::Kind::Restructure;
            op.device = d0;
            op.in = ins[i];
            op.out = outs[i];
            op.kernels = {kernel};
            ops.push_back(op);
        }
        const runtime::BatchEvent bev = runtime::submitBatch(ctx, ops);
        ctx.finish();
        if (!bev.ok())
            dmx_panic("micro_batch: batched restructure failed");
        r.makespan = bev.completeTime();
    }
    r.notifications =
        plat.irq().interruptsDelivered() + plat.irq().pollsDelivered();
    std::uint64_t h = 1469598103934665603ull;
    for (unsigned i = 0; i < kStream; ++i)
        h = fnv(h, ctx.read(outs[i]));
    r.digest = h;
    return r;
}

/** Two-kernel / one-motion app with @p bytes moved between stages. */
AppModel
motionApp(std::uint64_t bytes)
{
    AppModel app;
    app.name = "mb" + std::to_string(bytes);
    app.input_bytes = bytes;
    for (int k = 0; k < 2; ++k) {
        KernelTiming kt;
        kt.name = "k" + std::to_string(k);
        kt.cpu_core_seconds = 0.002;
        kt.accel_cycles = 50'000; // 200 us at 250 MHz
        kt.accel_freq_hz = 250e6;
        kt.out_bytes = bytes;
        app.kernels.push_back(kt);
    }
    MotionTiming mt;
    mt.name = "m0";
    mt.cpu_core_seconds = 0.003;
    mt.drx_cycles = 50'000;
    mt.in_bytes = bytes;
    mt.out_bytes = bytes;
    app.motions.push_back(mt);
    return app;
}

const char *
placementTag(Placement p)
{
    switch (p) {
      case Placement::IntegratedDrx: return "integrated";
      case Placement::StandaloneDrx: return "standalone";
      case Placement::BumpInTheWire: return "bitw";
      case Placement::PcieIntegrated: return "pcie";
      default: return "other";
    }
}

} // namespace

int
main(int argc, char **argv)
{
    bench::BenchReport report(argc, argv, "micro_batch");
    bench::banner("Micro - batched submission & coalesced completions",
                  "DESIGN.md 7j (DSA-style batch descriptors)");

    // -- 1. Copy crossover surface -----------------------------------
    const std::vector<std::uint64_t> sizes{256, 1024, 4096, 16384,
                                           65536, 262144};
    const std::vector<unsigned> batches{1, 2, 4, 8, 16};

    std::vector<std::function<CopyPoint()>> cthunks;
    for (const std::uint64_t s : sizes)
        for (const unsigned b : batches)
            cthunks.push_back([s, b] { return runCopies(s, b); });
    const auto copies =
        bench::runSweep<CopyPoint>(report, std::move(cthunks));

    Table t("16 p2p copies: makespan (ticks) by batch size");
    t.header({"bytes", "b=1", "b=2", "b=4", "b=8", "b=16", "doorbells "
              "b=1 -> b=16", "notifies b=1 -> b=16"});
    bool payload_match = true;
    for (std::size_t si = 0; si < sizes.size(); ++si) {
        const std::string sz = std::to_string(sizes[si]);
        std::vector<std::string> row{sz};
        const CopyPoint &first = copies[si * batches.size()];
        const CopyPoint &last =
            copies[si * batches.size() + batches.size() - 1];
        for (std::size_t bi = 0; bi < batches.size(); ++bi) {
            const CopyPoint &p = copies[si * batches.size() + bi];
            const std::string b = std::to_string(batches[bi]);
            report.metric("copy_mk_s" + sz + "_b" + b,
                          static_cast<double>(p.makespan));
            report.metric("copy_db_s" + sz + "_b" + b,
                          static_cast<double>(p.doorbells));
            report.metric("copy_irq_s" + sz + "_b" + b,
                          static_cast<double>(p.notifications));
            report.metric("copy_sup_s" + sz + "_b" + b,
                          static_cast<double>(p.suppressed));
            payload_match = payload_match && p.digest == first.digest;
            row.push_back(std::to_string(p.makespan));
        }
        row.push_back(std::to_string(first.doorbells) + " -> " +
                      std::to_string(last.doorbells));
        row.push_back(std::to_string(first.notifications) + " -> " +
                      std::to_string(last.notifications));
        t.row(row);
    }
    t.print(std::cout);
    if (!payload_match)
        dmx_panic("micro_batch: batched copies diverged from legacy "
                  "payload bytes");
    report.metric("copy_payload_match", 1.0);

    // -- 2. Restructure streams: where coalescing pays most ----------
    Table r("16 DRX restructures: legacy vs one 16-member batch");
    r.header({"tile", "bytes", "legacy (ticks)", "batched (ticks)",
              "saved %", "legacy irqs", "batched irqs"});
    const std::vector<std::size_t> tiles{16, 128}; // 1 KiB / 64 KiB f32
    std::vector<std::function<RestrPoint()>> rthunks;
    for (const std::size_t side : tiles) {
        rthunks.push_back([side] { return runRestructures(side, false); });
        rthunks.push_back([side] { return runRestructures(side, true); });
    }
    const auto restr =
        bench::runSweep<RestrPoint>(report, std::move(rthunks));
    for (std::size_t i = 0; i < tiles.size(); ++i) {
        const RestrPoint &legacy = restr[2 * i];
        const RestrPoint &batched = restr[2 * i + 1];
        if (legacy.digest != batched.digest)
            dmx_panic("micro_batch: batched restructure diverged from "
                      "legacy payload bytes");
        const std::uint64_t bytes = tiles[i] * tiles[i] * 4;
        const char *tag = bytes < 4096 ? "small" : "large";
        report.metric(std::string("restr_mk_") + tag + "_legacy",
                      static_cast<double>(legacy.makespan));
        report.metric(std::string("restr_mk_") + tag + "_batched",
                      static_cast<double>(batched.makespan));
        report.metric(std::string("restr_irq_") + tag + "_legacy",
                      static_cast<double>(legacy.notifications));
        report.metric(std::string("restr_irq_") + tag + "_batched",
                      static_cast<double>(batched.notifications));
        const double saved =
            100.0 * (1.0 - static_cast<double>(batched.makespan) /
                               static_cast<double>(legacy.makespan));
        r.row({std::to_string(tiles[i]) + "x" + std::to_string(tiles[i]),
               std::to_string(bytes), std::to_string(legacy.makespan),
               std::to_string(batched.makespan), Table::num(saved, 1),
               std::to_string(legacy.notifications),
               std::to_string(batched.notifications)});
    }
    r.print(std::cout);
    report.metric("restr_payload_match", 1.0);

    // -- 3. Closed-loop crossover across placements ------------------
    const std::vector<std::uint64_t> sys_sizes{512, 4096, 65536};
    const std::vector<unsigned> sys_batches{1, 8};
    const std::vector<Placement> placements{
        Placement::IntegratedDrx, Placement::StandaloneDrx,
        Placement::BumpInTheWire, Placement::PcieIntegrated};

    std::vector<std::function<RunStats()>> sthunks;
    for (const Placement pl : placements)
        for (const std::uint64_t s : sys_sizes)
            for (const unsigned b : sys_batches)
                sthunks.push_back([pl, s, b] {
                    SystemConfig cfg;
                    cfg.placement = pl;
                    cfg.n_apps = 4;
                    cfg.batch = b;
                    return simulateSystem(cfg, {motionApp(s)});
                });
    const auto sys_runs =
        bench::runSweep<RunStats>(report, std::move(sthunks));

    Table s("Closed loop: legacy vs batch=8 (makespan ticks)");
    s.header({"placement", "bytes", "legacy", "batched", "legacy "
              "doorbells", "batched doorbells", "legacy trips",
              "batched trips"});
    std::size_t idx = 0;
    for (const Placement pl : placements) {
        unsigned wins = 0;
        for (const std::uint64_t sz : sys_sizes) {
            const RunStats &legacy = sys_runs[idx++];
            const RunStats &batched = sys_runs[idx++];
            const std::string key = std::string("sys_") +
                                    placementTag(pl) + "_s" +
                                    std::to_string(sz);
            report.metric(key + "_mk_legacy",
                          static_cast<double>(legacy.makespan_ticks));
            report.metric(key + "_mk_batched",
                          static_cast<double>(batched.makespan_ticks));
            report.metric(key + "_db_legacy",
                          static_cast<double>(legacy.doorbells));
            report.metric(key + "_db_batched",
                          static_cast<double>(batched.doorbells));
            report.metric(key + "_trips_legacy",
                          static_cast<double>(legacy.driver_round_trips));
            report.metric(key + "_trips_batched",
                          static_cast<double>(batched.driver_round_trips));
            report.metric(key + "_suppressed",
                          static_cast<double>(
                              batched.notifications_suppressed));
            if (batched.makespan_ticks < legacy.makespan_ticks)
                ++wins;
            s.row({placementTag(pl), std::to_string(sz),
                   std::to_string(legacy.makespan_ticks),
                   std::to_string(batched.makespan_ticks),
                   std::to_string(legacy.doorbells),
                   std::to_string(batched.doorbells),
                   std::to_string(legacy.driver_round_trips),
                   std::to_string(batched.driver_round_trips)});
        }
        report.metric(std::string("sys_batched_wins_") + placementTag(pl),
                      static_cast<double>(wins));
    }
    s.print(std::cout);

    std::printf("Batching amortizes the doorbell (dma_setup) across "
                "each batch's descriptors and coalesces completion\n"
                "notifications into one per batch; the savings are "
                "fixed per command, so small transfers - where setup\n"
                "and notify dominate the wire time - cross over "
                "first.\n");
    return report.write();
}
