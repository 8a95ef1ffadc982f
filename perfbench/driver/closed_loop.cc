/**
 * @file
 * Closed-loop points, one of the two designs of the sys-sweep workload.
 * One operation is one sys::simulateSystem call on a Table I
 * application model built during setup. Points are drawn over
 * the figure-harness space: app x placement x n_apps 1-40 x
 * requests_per_app x ChainSubmission x batch {1, 8}.
 *
 * Operations come in pairs that simulate the same (app, placement,
 * n_apps, requests) point under two different submission modes, so the
 * check can hold the pair to the tick identities the tests pin.
 */

#include <array>
#include <cstdio>

#include "apps/benchmarks.hh"
#include "common/units.hh"
#include "drx/cache.hh"
#include "sys/system.hh"
#include "workloads.hh"

namespace perfbench
{

namespace
{

using dmx::sys::ChainSubmission;
using dmx::sys::Placement;

constexpr std::array<Placement, 6> placements{
    Placement::AllCpu,        Placement::MultiAxl,
    Placement::IntegratedDrx, Placement::StandaloneDrx,
    Placement::BumpInTheWire, Placement::PcieIntegrated,
};
constexpr unsigned num_apps = 5;
constexpr unsigned max_instances = 40;
constexpr unsigned min_requests = 2;
constexpr unsigned max_requests = 30;

/** One sweep point. */
struct Point
{
    unsigned app = 0;
    unsigned placement = 0; ///< index into placements
    unsigned n_apps = 1;
    unsigned requests = 1;
    ChainSubmission chain = ChainSubmission::PerHop;
    unsigned batch = 1;
};

/**
 * Pairs per round. Each round runs every point of one fixed design, in
 * a seeded order, so every seed does the same mix of work.
 */
constexpr unsigned design_pairs = 240;
constexpr std::uint64_t design_seed = 0xc105ed100b5eedull;

Point
drawPoint(std::uint64_t seed, std::uint64_t i)
{
    // The design stratifies every input over its slots; the seed only
    // picks which slot each pair runs.
    const unsigned slot = stratified(seed, i / 2, design_pairs);
    const unsigned combo =
        stratified(design_seed, slot, num_apps * placements.size());
    Point p;
    p.app = combo % num_apps;
    p.placement = combo / num_apps;
    p.n_apps = 1 + stratified(mix(design_seed, 1), slot, max_instances);
    p.requests = min_requests + stratified(mix(design_seed, 2), slot,
                                           max_requests - min_requests + 1);
    // Submission mode: bit 0 = descriptor chaining, bit 1 = batch 8.
    // The two operations of a pair take two distinct modes.
    Rng rng(mix(design_seed, 0x10000 + slot));
    const unsigned first = static_cast<unsigned>(rng.below(4));
    const unsigned second =
        (first + 1 + static_cast<unsigned>(rng.below(3))) % 4;
    const unsigned mode = (i % 2) ? second : first;
    p.chain = (mode & 1) ? ChainSubmission::Descriptor
                         : ChainSubmission::PerHop;
    p.batch = (mode & 2) ? 8 : 1;
    return p;
}

void
foldStats(Digest &d, const dmx::sys::RunStats &st)
{
    for (const double v :
         {st.avg_latency_ms, st.breakdown.kernel_ms,
          st.breakdown.restructure_ms, st.breakdown.movement_ms,
          st.avg_throughput_rps, st.bottleneck_stage_ms, st.makespan_ms,
          st.energy.host_joules, st.energy.accel_joules,
          st.energy.drx_joules, st.energy.pcie_joules})
        d.add(v);
    for (const std::uint64_t v :
         {st.interrupts, st.polls, st.pcie_bytes, st.flow_retries,
          st.dropped_irqs, st.kernel_ticks, st.restructure_ticks,
          st.movement_ticks, st.makespan_ticks, st.shed_requests,
          st.deadline_misses, st.queue_overflows, st.backpressure_stalls,
          st.backpressure_stall_ticks, st.peak_active_flows,
          st.drx_cache_hits, st.drx_cache_misses, st.driver_round_trips,
          st.descriptor_fetches, st.doorbells,
          st.notifications_suppressed, st.coalesced_bursts})
        d.add(v);
    for (const double v : st.per_app_latency_ms)
        d.add(v);
    for (const double v : st.per_app_p99_latency_ms)
        d.add(v);
}

class ClosedLoopSweep final : public Workload
{
  public:
    explicit ClosedLoopSweep(const WorkloadParams &p) : _p(p)
    {
        Tracer &tr = *_p.tracer;
        _span_build = tr.intern("apps.build");
        for (std::size_t k = 0; k < placements.size(); ++k)
            _span_sim[k] = tr.intern("sys.simulate." +
                                     dmx::sys::toString(placements[k]));
    }

    void
    setup() override
    {
        namespace apps = dmx::apps;
        // Every setup pays a cold build: the builders memoize compiled
        // DRX kernels in the thread's program cache.
        dmx::drx::ProgramCache::process().clear();
        const apps::SuiteParams params;
        // apps::standardSuite, builder by builder, in Table I order.
        using Builder = dmx::sys::AppModel (*)(const apps::SuiteParams &);
        const Builder builders[num_apps] = {
            apps::buildVideoSurveillance, apps::buildSoundDetection,
            apps::buildBrainStimulation, apps::buildPersonalInfoRedaction,
            apps::buildDatabaseHashJoin,
        };
        for (unsigned a = 0; a < num_apps; ++a) {
            auto s = _p.tracer->span(_span_build);
            _apps[a] = {builders[a](params)};
        }
        // One request of each (app, placement), the unit that every
        // point's totals must be a whole multiple of.
        for (unsigned a = 0; a < num_apps; ++a) {
            for (std::size_t k = 0; k < placements.size(); ++k) {
                dmx::sys::SystemConfig cfg;
                cfg.placement = placements[k];
                cfg.n_apps = 1;
                cfg.requests_per_app = 1;
                const dmx::sys::RunStats st =
                    dmx::sys::simulateSystem(cfg, _apps[a]);
                _unit[a][k] = {st.pcie_bytes, st.kernel_ticks};
            }
        }
    }

    bool
    run(std::uint64_t i, const OpContext &ctx) override
    {
        const Point pt = drawPoint(_p.seed, i);
        dmx::sys::SystemConfig cfg;
        cfg.placement = placements[pt.placement];
        cfg.n_apps = pt.n_apps;
        cfg.requests_per_app = pt.requests;
        cfg.chain = pt.chain;
        cfg.batch = pt.batch;

        dmx::sys::RunStats st;
        {
            auto s = _p.tracer->span(_span_sim[pt.placement]);
            st = dmx::sys::simulateSystem(cfg, _apps[pt.app]);
        }

        const bool ok = check(i, pt, st);
        if (ctx.inputs)
            for (const unsigned v : {pt.app, pt.placement, pt.n_apps,
                                     pt.requests, pt.batch,
                                     static_cast<unsigned>(pt.chain)})
                ctx.inputs->add(std::uint64_t{v});
        if (ctx.digest)
            foldStats(*ctx.digest, st);
        if (ctx.traced) {
            _requests[pt.placement] +=
                std::uint64_t{pt.n_apps} * pt.requests;
            if (ctx.prefix) {
                _peak_flows = std::max(_peak_flows, st.peak_active_flows);
                _round_trips += st.driver_round_trips;
                _doorbells += st.doorbells;
            }
        }
        _last_pair = i / 2;
        _last_pcie_bytes = st.pcie_bytes;
        _last_kernel_ticks = st.kernel_ticks;
        return ok;
    }

    void
    layerMetrics(const std::map<std::string, LayerTime> &layers,
                 std::uint64_t, unsigned setups,
                 std::map<std::string, double> &out) const override
    {
        out["apps.build_ms"] = selfMs(layers, "apps.build", setups);
        for (std::size_t k = 0; k < placements.size(); ++k) {
            const std::string name = dmx::sys::toString(placements[k]);
            const std::string span = "sys.simulate." + name;
            out["sys.simulate_ms." + name] = meanSelfMs(layers, span);
            if (_requests[k])
                out["sys.host_us_per_request." + name] =
                    selfMs(layers, span, 1) * 1e3 /
                    static_cast<double>(_requests[k]);
        }
        out["sys.peak_active_flows"] = static_cast<double>(_peak_flows);
        out["sys.driver_round_trips"] = static_cast<double>(_round_trips);
        out["sys.doorbells"] = static_cast<double>(_doorbells);
    }

  private:
    bool
    fail(std::uint64_t i, const char *what) const
    {
        std::fprintf(stderr, "closed-loop point %llu: %s\n",
                     static_cast<unsigned long long>(i), what);
        return false;
    }

    bool
    check(std::uint64_t i, const Point &pt,
          const dmx::sys::RunStats &st) const
    {
        using dmx::ticksToMs;
        const unsigned expected_instances =
            pt.n_apps + (_p.corrupt_expected && i == 0 ? 1 : 0);
        if (st.per_app_latency_ms.size() != expected_instances)
            return fail(i, "wrong number of application instances");
        // Without admission control nothing is shed (simulateSystem
        // itself aborts if an instance finishes short of its requests).
        if (st.shed_requests != 0)
            return fail(i, "requests were shed");
        for (const double lat : st.per_app_latency_ms)
            if (!(lat > 0))
                return fail(i, "an instance completed no request");
        // The ms breakdown is the exact integer-tick totals, averaged.
        const double n_reqs = static_cast<double>(pt.requests) *
                              static_cast<double>(pt.n_apps);
        if (st.breakdown.kernel_ms != ticksToMs(st.kernel_ticks) / n_reqs ||
            st.breakdown.restructure_ms !=
                ticksToMs(st.restructure_ticks) / n_reqs ||
            st.breakdown.movement_ms !=
                ticksToMs(st.movement_ticks) / n_reqs ||
            st.makespan_ms != ticksToMs(st.makespan_ticks))
            return fail(i, "phase ms differ from the tick totals");
        // Each instance's phases tile part of its own extent, which
        // ends by the makespan.
        if (st.kernel_ticks + st.restructure_ticks + st.movement_ticks >
            st.makespan_ticks * pt.n_apps)
            return fail(i, "phase ticks exceed n_apps x makespan");
        // Every request off the CPU moves the same bytes and does the
        // same kernel work, so both totals are whole multiples of one
        // request's: a point that completed fewer requests fails here.
        // All-CPU moves no bytes and its kernel time includes core
        // contention, so it has no such multiple.
        const Unit &u = _unit[pt.app][pt.placement];
        const std::uint64_t n_done = std::uint64_t{pt.n_apps} * pt.requests;
        if (u.pcie_bytes != 0 &&
            (st.pcie_bytes != n_done * u.pcie_bytes ||
             st.kernel_ticks != n_done * u.kernel_ticks))
            return fail(i, "pcie bytes or kernel ticks are not n_apps x "
                           "requests x one request's");
        // Submission mode changes how requests are driven, never the
        // bytes they move or the kernel work they do (the batched and
        // chained closed-loop tests pin both).
        if (i % 2 == 1 && _last_pair == i / 2 &&
            (st.pcie_bytes != _last_pcie_bytes ||
             st.kernel_ticks != _last_kernel_ticks))
            return fail(i, "pcie bytes or kernel ticks depend on the "
                           "submission mode");
        return true;
    }

    WorkloadParams _p;
    std::uint32_t _span_build = 0;
    std::array<std::uint32_t, placements.size()> _span_sim{};
    std::array<std::vector<dmx::sys::AppModel>, num_apps> _apps;

    /** Totals of one request, per (app, placement). */
    struct Unit
    {
        std::uint64_t pcie_bytes = 0;
        dmx::Tick kernel_ticks = 0;
    };
    std::array<std::array<Unit, placements.size()>, num_apps> _unit{};

    // Partner of the current pair (previous operation).
    std::uint64_t _last_pair = ~std::uint64_t{0};
    std::uint64_t _last_pcie_bytes = 0;
    dmx::Tick _last_kernel_ticks = 0;

    // Traced-phase counters.
    std::array<std::uint64_t, placements.size()> _requests{};
    std::uint64_t _peak_flows = 0;
    std::uint64_t _round_trips = 0;
    std::uint64_t _doorbells = 0;
};

} // namespace

std::unique_ptr<Workload>
makeClosedLoopSweep(const WorkloadParams &p)
{
    return std::make_unique<ClosedLoopSweep>(p);
}

} // namespace perfbench
