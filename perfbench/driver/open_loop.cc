/**
 * @file
 * Open-loop engine runs, one of the two designs of the sys-sweep
 * workload. One operation is one run of 1-2k requests:
 * sys::simulateOverload (legacy and protected arms) or
 * serve::simulateServing (plain, hedged and tail arms), crossed with
 * trace shape x load 0.5-3 x fault rate {0, 0.1} x batch {1, 8}.
 *
 * Each engine run is itself open loop (arrivals on a clock); the
 * benchmark drives the runs one after another, as a single caller.
 */

#include <array>
#include <cstdio>

#include "serve/serve.hh"
#include "sys/overload.hh"
#include "workloads.hh"

namespace perfbench
{

namespace
{

enum class Arm : unsigned
{
    OverloadLegacy,
    OverloadProt,
    Plain,
    Hedged,
    Tail,
};
constexpr unsigned num_arms = 5;
constexpr std::array<const char *, num_arms> arm_names{
    "overload-legacy", "overload-prot", "plain", "hedged", "tail"};
constexpr unsigned num_shapes = 4;
constexpr unsigned min_requests = 1000;
constexpr unsigned max_requests = 2000;

/** One engine run's inputs. */
struct Point
{
    Arm arm = Arm::Plain;
    dmx::serve::TraceShape shape = dmx::serve::TraceShape::Steady;
    double load = 1;
    double fault_rate = 0;
    unsigned batch = 1;
    unsigned requests = min_requests;
    std::uint64_t sim_seed = 1;
};

/**
 * Engine runs per round. Each round runs every point of one fixed
 * design, in a seeded order, so every seed does the same mix of work.
 */
constexpr unsigned design_ops = 100;
constexpr std::uint64_t design_seed = 0x09e71009b5eedull;

/**
 * Design slot @p slot: every (arm, fault rate, batch) cell appears five
 * times, and shape, load and request count are stratified into bins,
 * jittered within a bin. The engine's seed is left at its default.
 */
Point
designPoint(unsigned slot)
{
    const unsigned combo = stratified(design_seed, slot, num_arms * 2 * 2);
    Rng rng(mix(design_seed, 0x10000 + slot));
    Point p;
    p.arm = static_cast<Arm>(combo % num_arms);
    p.fault_rate = (combo / num_arms) % 2 ? 0.1 : 0.0;
    p.batch = combo / (2 * num_arms) ? 8 : 1;
    p.shape = static_cast<dmx::serve::TraceShape>(
        stratified(mix(design_seed, 1), slot, num_shapes));
    constexpr unsigned load_bins = 25;
    p.load = 0.5 + 2.5 * (stratified(mix(design_seed, 2), slot, load_bins) +
                          rng.uniform(0, 1)) / load_bins;
    constexpr unsigned request_bins = 20;
    const unsigned bin = stratified(mix(design_seed, 3), slot, request_bins);
    p.requests = min_requests +
                 (max_requests - min_requests) * bin / request_bins +
                 static_cast<unsigned>(rng.below(
                     (max_requests - min_requests) / request_bins + 1));
    return p;
}

/** Operation @p i: the seed picks the design slot and the engine seed. */
Point
drawPoint(std::uint64_t seed, std::uint64_t i)
{
    Point p = designPoint(stratified(seed, i, design_ops));
    p.sim_seed = mix(seed, i);
    return p;
}

dmx::sys::OverloadConfig
overloadConfig(const Point &p)
{
    dmx::sys::OverloadConfig cfg;
    cfg.requests = p.requests;
    cfg.seed = p.sim_seed;
    cfg.batch = p.batch;
    cfg.load = p.load;
    cfg.fault_rate = p.fault_rate;
    if (p.arm == Arm::OverloadProt) {
        // The protection stack of the overload stress tool.
        cfg.robust.backpressure.enabled = true;
        cfg.robust.admission.policy = dmx::robust::AdmissionPolicy::StaticCap;
        cfg.robust.admission.queue_depth_cap = 4;
        cfg.robust.breaker.enabled = true;
        cfg.deadline_factor = 16;
    }
    return cfg;
}

dmx::serve::ServeConfig
serveConfig(const Point &p)
{
    // The three arms of the serving stress tool.
    dmx::serve::ServeConfig cfg;
    cfg.overload = overloadConfig(p);
    cfg.enabled = true;
    cfg.trace.shape = p.shape;
    cfg.hedge.enabled = p.arm != Arm::Plain;
    if (p.arm == Arm::Tail) {
        cfg.budget.enabled = true;
        cfg.budget.per_request = 0.5;
        cfg.brownout.enabled = true;
    }
    return cfg;
}

bool
isServing(Arm arm)
{
    return arm != Arm::OverloadLegacy && arm != Arm::OverloadProt;
}

/** Run @p p on its engine; overload results fill only `base`. */
dmx::serve::ServeStats
simulate(const Point &p)
{
    dmx::serve::ServeStats st;
    if (isServing(p.arm))
        st = dmx::serve::simulateServing(serveConfig(p));
    else
        st.base = dmx::sys::simulateOverload(overloadConfig(p));
    return st;
}

/** Request conservation of one population. */
template <typename Stats>
bool
conserved(const Stats &s)
{
    return s.offered == s.completed + s.shed + s.failed + s.timed_out;
}

class OpenLoopServing final : public Workload
{
  public:
    explicit OpenLoopServing(const WorkloadParams &p) : _p(p)
    {
        for (unsigned a = 0; a < num_arms; ++a)
            _span_arm[a] = _p.tracer->intern(
                std::string("serve.simulate.") + arm_names[a]);
    }

    /** The inputs are generated per operation: nothing to set up. */
    void setup() override {}

    bool
    run(std::uint64_t i, const OpContext &ctx) override
    {
        const Point pt = drawPoint(_p.seed, i);
        dmx::serve::ServeStats st;
        {
            auto s = _p.tracer->span(_span_arm[static_cast<unsigned>(pt.arm)]);
            st = simulate(pt);
        }

        const bool ok = check(i, pt, st);
        if (ctx.inputs)
            for (const double v :
                 {static_cast<double>(pt.arm), static_cast<double>(pt.shape),
                  pt.load, pt.fault_rate, static_cast<double>(pt.batch),
                  static_cast<double>(pt.requests),
                  static_cast<double>(pt.sim_seed)})
                ctx.inputs->add(v);
        if (ctx.digest)
            for (const double v : dmx::serve::flatten(st))
                ctx.digest->add(v);
        if (ctx.traced && ctx.prefix) {
            if (isServing(pt.arm)) {
                _attempts += st.total_attempts;
                _serve_offered += st.base.offered;
            }
            _hedges += st.hedges_issued;
            _shed += st.base.shed;
            _breaker_opens += st.base.breaker_opens;
            _retries += st.base.retries;
            _watchdog_timeouts += st.base.watchdog_timeouts;
        }
        return ok;
    }

    void
    layerMetrics(const std::map<std::string, LayerTime> &layers,
                 std::uint64_t, unsigned,
                 std::map<std::string, double> &out) const override
    {
        for (unsigned a = 0; a < num_arms; ++a)
            out[std::string("serve.simulate_ms.") + arm_names[a]] =
                meanSelfMs(layers,
                           std::string("serve.simulate.") + arm_names[a]);
        if (_serve_offered)
            out["serve.attempts_per_offered"] =
                static_cast<double>(_attempts) /
                static_cast<double>(_serve_offered);
        out["serve.hedges"] = static_cast<double>(_hedges);
        out["robust.shed"] = static_cast<double>(_shed);
        out["robust.breaker_opens"] = static_cast<double>(_breaker_opens);
        out["runtime.retries"] = static_cast<double>(_retries);
        out["runtime.watchdog_timeouts"] =
            static_cast<double>(_watchdog_timeouts);
    }

  private:
    bool
    fail(std::uint64_t i, const char *what) const
    {
        std::fprintf(stderr, "open-loop run %llu: %s\n",
                     static_cast<unsigned long long>(i), what);
        return false;
    }

    bool
    check(std::uint64_t i, const Point &pt,
          const dmx::serve::ServeStats &st) const
    {
        const std::uint64_t expected =
            pt.requests + (_p.corrupt_expected && i == 0 ? 1 : 0);
        if (st.base.offered != expected)
            return fail(i, "offered differs from the requests generated");
        if (!conserved(st.base))
            return fail(i, "offered != completed + shed + failed + "
                           "timed_out");
        if (!isServing(pt.arm))
            return true;
        if (!conserved(st.latency_sensitive) || !conserved(st.batch))
            return fail(i, "a class does not conserve its requests");
        if (st.latency_sensitive.offered + st.batch.offered !=
            st.base.offered)
            return fail(i, "class offered counts do not add up");
        return true;
    }

    WorkloadParams _p;
    std::array<std::uint32_t, num_arms> _span_arm{};

    // Counters over the traced digest prefix.
    std::uint64_t _attempts = 0;
    std::uint64_t _serve_offered = 0;
    std::uint64_t _hedges = 0;
    std::uint64_t _shed = 0;
    std::uint64_t _breaker_opens = 0;
    std::uint64_t _retries = 0;
    std::uint64_t _watchdog_timeouts = 0;
};

} // namespace

std::unique_ptr<Workload>
makeOpenLoopServing(const WorkloadParams &p)
{
    return std::make_unique<OpenLoopServing>(p);
}

} // namespace perfbench
