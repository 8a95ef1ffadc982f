#include "sys/collectives.hh"

#include <memory>

#include "accel/accelerator.hh"
#include "common/logging.hh"
#include "cpu/core_pool.hh"
#include "pcie/fabric.hh"
#include "sys/calibration.hh"

namespace dmx::sys
{

namespace
{

/**
 * A fabric of N accelerators (optionally with BitW DRXs), grouped
 * under switches; per-switch membership drives the hierarchical DMX
 * collectives.
 */
struct CollectiveTopo
{
    sim::EventQueue eq;
    std::unique_ptr<pcie::Fabric> fabric;
    pcie::NodeId rc = 0;
    std::vector<pcie::NodeId> accel;
    std::vector<pcie::NodeId> drx;
    std::vector<unsigned> switch_of;          ///< accel -> switch index
    std::vector<std::vector<unsigned>> groups;///< switch -> accel ids

    CollectiveTopo(unsigned n, pcie::Generation gen, bool bitw)
    {
        fabric = std::make_unique<pcie::Fabric>(eq, "pcie",
                                                pcie::FabricParams{});
        rc = fabric->addNode(pcie::NodeKind::RootComplex, "rc");
        pcie::NodeId sw = 0;
        unsigned used = ports_per_switch;
        unsigned sw_count = 0;
        for (unsigned i = 0; i < n; ++i) {
            if (used >= ports_per_switch) {
                sw = fabric->addNode(pcie::NodeKind::Switch,
                                     "sw" + std::to_string(sw_count++));
                fabric->connect(rc, sw, gen, upstream_lanes);
                groups.emplace_back();
                used = 0;
            }
            ++used;
            groups.back().push_back(i);
            switch_of.push_back(sw_count - 1);
            if (bitw) {
                const pcie::NodeId d = fabric->addNode(
                    pcie::NodeKind::EndPoint, "drx" + std::to_string(i));
                fabric->connect(sw, d, gen, downstream_lanes);
                const pcie::NodeId a = fabric->addNode(
                    pcie::NodeKind::EndPoint, "a" + std::to_string(i));
                fabric->connect(d, a, gen, downstream_lanes);
                drx.push_back(d);
                accel.push_back(a);
            } else {
                const pcie::NodeId a = fabric->addNode(
                    pcie::NodeKind::EndPoint, "a" + std::to_string(i));
                fabric->connect(sw, a, gen, downstream_lanes);
                accel.push_back(a);
            }
        }
    }

    /** @return first member of each switch group (the "captains"). */
    std::vector<unsigned>
    captains() const
    {
        std::vector<unsigned> out;
        for (const auto &g : groups)
            out.push_back(g.front());
        return out;
    }
};

/** Launch flows one after another; call @p done after the last. */
void
sequentialFlows(CollectiveTopo &topo, pcie::NodeId src,
                const std::vector<pcie::NodeId> &dsts, std::uint64_t bytes,
                std::function<void()> done)
{
    if (dsts.empty()) {
        done();
        return;
    }
    // The walk holds only a weak reference to itself; the in-flight
    // flow's callback holds the strong one, so the walk frees itself
    // once its last flow completes.
    auto next = std::make_shared<std::function<void(std::size_t)>>();
    *next = [&topo, src, dsts, bytes, done = std::move(done),
             self = std::weak_ptr(next)](std::size_t i) {
        if (i == dsts.size()) {
            done();
            return;
        }
        topo.fabric->startFlow(src, dsts[i], bytes,
                               [next = self.lock(), i] { (*next)(i + 1); });
    };
    (*next)(0);
}

/** Launch flows concurrently; call @p done when all complete. */
void
concurrentFlows(CollectiveTopo &topo,
                const std::vector<std::pair<pcie::NodeId, pcie::NodeId>>
                    &pairs,
                std::uint64_t bytes, std::function<void()> done)
{
    if (pairs.empty()) {
        done();
        return;
    }
    auto remaining = std::make_shared<std::size_t>(pairs.size());
    auto done_ptr =
        std::make_shared<std::function<void()>>(std::move(done));
    for (const auto &[src, dst] : pairs) {
        topo.fabric->startFlow(src, dst, bytes,
                               [remaining, done_ptr] {
            if (--*remaining == 0)
                (*done_ptr)();
        });
    }
}

/** DRX processing delay for @p cycles at the configured clock. */
Tick
drxTicks(const CollectiveConfig &cfg, Cycles cycles)
{
    return ClockDomain{cfg.drx.freq_hz}.cyclesToTicks(cycles);
}

} // namespace

CollectiveResult
simulateBroadcast(const CollectiveConfig &cfg)
{
    if (cfg.n_accels < 2)
        dmx_fatal("simulateBroadcast: need at least two accelerators");
    CollectiveResult res;

    // -------- baseline: stage to the host, restructure on the CPU,
    // then the driver initiates N DMA transfers *sequentially*
    // (paper Sec. VII-C).
    {
        CollectiveTopo topo(cfg.n_accels, cfg.gen, false);
        cpu::CorePool pool(topo.eq, "pool", cfg.host.cores,
                           cfg.host.max_job_cores);
        std::vector<pcie::NodeId> dsts(topo.accel.begin() + 1,
                                       topo.accel.end());
        Tick done_at = 0;
        topo.fabric->startFlow(topo.accel[0], topo.rc, cfg.bytes, [&] {
            pool.submit(cfg.cpu_restructure_core_seconds, [&] {
                sequentialFlows(topo, topo.rc, dsts, cfg.bytes,
                                [&] { done_at = topo.eq.now(); });
            });
        });
        topo.eq.run();
        res.baseline_ms = ticksToMs(done_at);
    }

    // -------- DMX: restructure on the source DRX (overlapped with the
    // transfers), hierarchical p2p fan-out: source -> per-switch
    // captain DRXs -> switch-local accelerators.
    {
        CollectiveTopo topo(cfg.n_accels, cfg.gen, true);
        const Tick restr = drxTicks(cfg, cfg.drx_restructure_cycles);
        Tick done_at = 0;

        topo.fabric->startFlow(topo.accel[0], topo.drx[0], cfg.bytes,
                               [&] {
            topo.eq.scheduleIn(restr, [&] {
                // Cross-switch fan-out to the captains.
                std::vector<std::pair<pcie::NodeId, pcie::NodeId>> xw;
                for (unsigned c : topo.captains()) {
                    if (topo.switch_of[c] != topo.switch_of[0])
                        xw.emplace_back(topo.drx[0], topo.drx[c]);
                }
                concurrentFlows(topo, xw, cfg.bytes, [&] {
                    // Switch-local fan-out from each captain.
                    std::vector<std::pair<pcie::NodeId, pcie::NodeId>>
                        local;
                    for (const auto &group : topo.groups) {
                        const unsigned cap = group.front();
                        const pcie::NodeId cap_drx =
                            topo.switch_of[cap] == topo.switch_of[0]
                                ? topo.drx[0]
                                : topo.drx[cap];
                        for (unsigned m : group) {
                            if (m != 0)
                                local.emplace_back(cap_drx,
                                                   topo.accel[m]);
                        }
                    }
                    concurrentFlows(topo, local, cfg.bytes, [&] {
                        done_at = topo.eq.now();
                    });
                });
            });
        });
        topo.eq.run();
        res.dmx_ms = ticksToMs(done_at);
    }
    return res;
}

CollectiveResult
simulateAllReduce(const CollectiveConfig &cfg)
{
    if (cfg.n_accels < 2)
        dmx_fatal("simulateAllReduce: need at least two accelerators");
    CollectiveResult res;
    const unsigned n = cfg.n_accels;

    // -------- baseline: scatter-reduce then all-gather through the
    // host; summation of the n inputs on the CPU; driver-initiated
    // DMAs run sequentially.
    {
        CollectiveTopo topo(n, cfg.gen, false);
        cpu::CorePool pool(topo.eq, "pool", cfg.host.cores,
                           cfg.host.max_job_cores);
        Tick done_at = 0;

        auto seq_gather = [&](std::function<void()> after) {
            // Device -> host transfers, driver-serialized. Same
            // ownership as sequentialFlows: only the in-flight flow's
            // callback keeps the walk alive.
            auto next =
                std::make_shared<std::function<void(unsigned)>>();
            *next = [&, after = std::move(after),
                     self = std::weak_ptr(next)](unsigned i) {
                if (i == n) {
                    after();
                    return;
                }
                topo.fabric->startFlow(
                    topo.accel[i], topo.rc, cfg.bytes,
                    [next = self.lock(), i] { (*next)(i + 1); });
            };
            (*next)(0);
        };

        seq_gather([&] {
            // CPU sums n payloads: work scales with n.
            pool.submit(cfg.cpu_restructure_core_seconds *
                            static_cast<double>(n),
                        [&] {
                sequentialFlows(topo, topo.rc, topo.accel, cfg.bytes,
                                [&] {
                    seq_gather([&] {
                        sequentialFlows(topo, topo.rc, topo.accel,
                                        cfg.bytes, [&] {
                            done_at = topo.eq.now();
                        });
                    });
                });
            });
        });
        topo.eq.run();
        res.baseline_ms = ticksToMs(done_at);
    }

    // -------- DMX: hierarchical reduction across DRXs (a "variation
    // of many-to-one data movement", Sec. V): switch-local DRXs push
    // concurrently to their captain DRX which sums, captains push to
    // the global captain which sums, and the reduced vector fans back
    // out through the same tree.
    {
        CollectiveTopo topo(n, cfg.gen, true);
        const Cycles per_input =
            cfg.drx_reduce_cycles / std::max(1u, n);
        Tick done_at = 0;

        // Stage A: local reduction at each captain.
        std::vector<std::pair<pcie::NodeId, pcie::NodeId>> local_in;
        for (const auto &group : topo.groups) {
            const unsigned cap = group.front();
            for (unsigned m : group) {
                if (m != cap)
                    local_in.emplace_back(topo.drx[m], topo.drx[cap]);
            }
        }
        concurrentFlows(topo, local_in, cfg.bytes, [&] {
            const Tick local_reduce = drxTicks(
                cfg, per_input * static_cast<Cycles>(
                                     topo.groups[0].size()));
            topo.eq.scheduleIn(local_reduce, [&] {
                // Stage B: captains push to the global captain (drx 0).
                std::vector<std::pair<pcie::NodeId, pcie::NodeId>> xw;
                for (unsigned c : topo.captains()) {
                    if (c != 0)
                        xw.emplace_back(topo.drx[c], topo.drx[0]);
                }
                concurrentFlows(topo, xw, cfg.bytes, [&] {
                    const Tick global_reduce = drxTicks(
                        cfg, per_input * static_cast<Cycles>(
                                             topo.groups.size()));
                    topo.eq.scheduleIn(global_reduce, [&] {
                        // Stage C: fan the result back out.
                        std::vector<std::pair<pcie::NodeId,
                                              pcie::NodeId>> back;
                        for (unsigned c : topo.captains()) {
                            if (c != 0)
                                back.emplace_back(topo.drx[0],
                                                  topo.drx[c]);
                        }
                        concurrentFlows(topo, back, cfg.bytes, [&] {
                            std::vector<std::pair<pcie::NodeId,
                                                  pcie::NodeId>> out;
                            for (const auto &group : topo.groups) {
                                const unsigned cap = group.front();
                                for (unsigned m : group)
                                    out.emplace_back(topo.drx[cap],
                                                     topo.accel[m]);
                            }
                            concurrentFlows(topo, out, cfg.bytes, [&] {
                                done_at = topo.eq.now();
                            });
                        });
                    });
                });
            });
        });
        topo.eq.run();
        res.dmx_ms = ticksToMs(done_at);
    }
    return res;
}

} // namespace dmx::sys
