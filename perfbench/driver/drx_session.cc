/**
 * @file
 * drx-runtime-session: one operation is one functional host session. It
 * builds a runtime::Platform with two accelerators and two
 * default-config DRX cards under a fault plan that injects nothing (so
 * watchdogs and driver notifications are live), pushes 1-8
 * restructuring requests (accelerator -> DRX -> accelerator) through one
 * submission style, and compares every DRX output byte for byte with
 * the restructure::executeOnCpu oracle computed during setup.
 *
 * Requests run catalog kernels from apps::restructureSuite at a
 * seed-drawn divisor. Half the sessions repeat one kernel (program
 * cache hits after the first request), half run distinct kernels
 * (misses).
 */

#include <array>
#include <cstdio>
#include <numeric>

#include "apps/benchmarks.hh"
#include "drx/cache.hh"
#include "fault/fault.hh"
#include "restructure/cpu_exec.hh"
#include "runtime/batch.hh"
#include "runtime/chain.hh"
#include "runtime/runtime.hh"
#include "workloads.hh"

namespace perfbench
{

namespace
{

namespace rt = dmx::runtime;

constexpr std::array<unsigned, 4> divisors{8, 16, 32, 64};
constexpr unsigned max_requests = 8;

/** How a session submits its requests. */
enum class Style : unsigned
{
    Queue, ///< enqueueCopy / enqueueRestructure on in-order queues
    Chain, ///< one enqueueChain per request
    Batch, ///< one submitBatch of every request as a chain member
};
constexpr unsigned num_styles = 3;

/** A catalog kernel, its input and the oracle's output. */
struct Entry
{
    dmx::restructure::Kernel kernel;
    rt::Bytes input;
    rt::Bytes expected;
};

/** One session's inputs. */
struct Session
{
    Style style = Style::Queue;
    bool repeat = false;           ///< one kernel for every request
    std::vector<unsigned> entries; ///< catalog entry per request
};

rt::Bytes
passThrough(const rt::Bytes &in, dmx::kernels::OpCount &ops)
{
    ops.bytes_read += in.size();
    ops.bytes_written += in.size();
    return in;
}

/** Counters a session reads from its platform. */
struct Counters
{
    std::uint64_t commands = 0;
    std::uint64_t events = 0;
    std::uint64_t doorbells = 0;
    std::uint64_t desc_fetches = 0;
    std::uint64_t settle_visits = 0;
    std::uint64_t bytes = 0;
    std::uint64_t interrupts = 0;
    std::uint64_t polls = 0;
    std::uint64_t suppressed = 0;
    std::uint64_t cache_hits = 0;
    std::uint64_t cache_misses = 0;
    std::uint64_t timing_hits = 0;

    Counters &
    operator+=(const Counters &o)
    {
        commands += o.commands;
        events += o.events;
        doorbells += o.doorbells;
        desc_fetches += o.desc_fetches;
        settle_visits += o.settle_visits;
        bytes += o.bytes;
        interrupts += o.interrupts;
        polls += o.polls;
        suppressed += o.suppressed;
        cache_hits += o.cache_hits;
        cache_misses += o.cache_misses;
        timing_hits += o.timing_hits;
        return *this;
    }

    void
    fold(Digest &d) const
    {
        for (const std::uint64_t v :
             {commands, events, doorbells, desc_fetches, settle_visits,
              bytes, interrupts, polls, suppressed, cache_hits,
              cache_misses, timing_hits})
            d.add(v);
    }
};

class DrxRuntimeSession final : public Workload
{
  public:
    explicit DrxRuntimeSession(const WorkloadParams &p) : _p(p)
    {
        Tracer &tr = *_p.tracer;
        _span_oracle = tr.intern("restructure.oracle");
        _span_platform = tr.intern("runtime.platform");
        _span_add = tr.intern("drx.add");
        _span_enqueue = tr.intern("runtime.enqueue");
        _span_finish = tr.intern("runtime.finish");
        _span_check = tr.intern("bench.check");
        _span_teardown = tr.intern("runtime.teardown");
    }

    void
    setup() override
    {
        _entries.clear();
        for (const unsigned div : divisors) {
            for (dmx::apps::NamedRestructure &nr :
                 dmx::apps::restructureSuite(div)) {
                // Some catalog kernels do not scale with the divisor;
                // keep one copy of each distinct kernel.
                bool seen = false;
                for (const Entry &e : _entries)
                    seen = seen || dmx::drx::kernelStructurallyEqual(
                                       e.kernel, nr.kernel);
                if (seen)
                    continue;
                Entry e;
                e.kernel = std::move(nr.kernel);
                e.input = std::move(nr.input);
                {
                    auto s = _p.tracer->span(_span_oracle);
                    e.expected =
                        dmx::restructure::executeOnCpu(e.kernel, e.input);
                }
                if (_p.tracer->enabled())
                    _oracle_bytes += e.input.size() + e.expected.size();
                _entries.push_back(std::move(e));
            }
        }
        if (_p.corrupt_expected)
            _entries[drawSession(0).entries.front()].expected.front() ^= 0x01;
    }

    bool
    run(std::uint64_t i, const OpContext &ctx) override
    {
        const Session ses = drawSession(i);
        if (ctx.inputs) {
            ctx.inputs->add(std::uint64_t{static_cast<unsigned>(ses.style)});
            for (const unsigned e : ses.entries)
                ctx.inputs->add(std::uint64_t{e});
        }

        // A plan that injects nothing still arms the reliability path:
        // per-command watchdogs and driver completion notifications.
        dmx::fault::FaultPlan benign;
        std::unique_ptr<rt::Platform> plat;
        rt::DeviceId axl[2] = {};
        rt::DeviceId drx[2] = {};
        {
            auto s = _p.tracer->span(_span_platform);
            plat = std::make_unique<rt::Platform>();
            plat->setFaultPlan(&benign);
            axl[0] = plat->addAccelerator("axl0", dmx::accel::Domain::FFT,
                                          passThrough);
            axl[1] = plat->addAccelerator("axl1", dmx::accel::Domain::SVM,
                                          passThrough);
        }
        for (unsigned d = 0; d < 2; ++d) {
            auto s = _p.tracer->span(_span_add);
            drx[d] = plat->addDrx("drx" + std::to_string(d),
                                  dmx::drx::DrxConfig{});
        }

        bool ok = true;
        Counters c;
        {
            rt::Context rctx = plat->createContext();
            const std::size_t n = ses.entries.size();
            std::vector<rt::BufferId> in(n), mid(n), out(n), dst(n);
            for (std::size_t r = 0; r < n; ++r) {
                in[r] = rctx.createBuffer(_entries[ses.entries[r]].input);
                mid[r] = rctx.createBuffer();
                out[r] = rctx.createBuffer();
                dst[r] = rctx.createBuffer();
            }
            std::vector<dmx::Tick> settled;
            ok = submit(ses, rctx, axl, drx, in, mid, out, dst, settled,
                        c.commands);
            {
                auto s = _p.tracer->span(_span_check);
                for (std::size_t r = 0; r < n && ok; ++r) {
                    if (rctx.read(dst[r]) !=
                        _entries[ses.entries[r]].expected) {
                        std::fprintf(stderr,
                                     "drx-runtime-session op %llu: request "
                                     "%zu differs from the oracle\n",
                                     static_cast<unsigned long long>(i), r);
                        ok = false;
                    }
                }
            }
            c.events = plat->eventQueue().executedCount();
            c.doorbells = plat->fabric().doorbells();
            c.desc_fetches = plat->fabric().descriptorFetches();
            c.settle_visits = plat->fabric().settleVisits();
            c.bytes = plat->fabric().totalBytes();
            c.interrupts = plat->irq().interruptsDelivered();
            c.polls = plat->irq().pollsDelivered();
            c.suppressed = plat->irq().suppressedNotifications();
            const dmx::drx::CacheCounters &cc = plat->drxCache().counters();
            c.cache_hits = cc.compile_hits;
            c.cache_misses = cc.compile_misses;
            c.timing_hits = cc.timing_hits;
            if (ctx.digest) {
                ctx.digest->add(std::uint64_t{plat->now()});
                for (const dmx::Tick t : settled)
                    ctx.digest->add(std::uint64_t{t});
                c.fold(*ctx.digest);
            }
        }
        {
            auto s = _p.tracer->span(_span_teardown);
            plat.reset();
        }
        if (ctx.traced && ctx.prefix)
            _counts += c;
        if (ctx.traced)
            _events_all += c.events;
        return ok;
    }

    void
    layerMetrics(const std::map<std::string, LayerTime> &layers,
                 std::uint64_t ops, unsigned setups,
                 std::map<std::string, double> &out) const override
    {
        const double n = static_cast<double>(ops);
        out["restructure.oracle_ms"] =
            selfMs(layers, "restructure.oracle", setups);
        const double oracle_ms = selfMs(layers, "restructure.oracle", 1);
        if (oracle_ms > 0)
            out["restructure.oracle_mb_per_s"] =
                static_cast<double>(_oracle_bytes) / 1e6 /
                (oracle_ms / 1e3);
        out["runtime.platform_ms"] = selfMs(layers, "runtime.platform", n);
        out["drx.add_ms"] = selfMs(layers, "drx.add", n);
        out["runtime.enqueue_ms"] = selfMs(layers, "runtime.enqueue", n);
        out["runtime.finish_ms"] = selfMs(layers, "runtime.finish", n);
        out["runtime.teardown_ms"] = selfMs(layers, "runtime.teardown", n);
        out["bench.check_ms"] = selfMs(layers, "bench.check", n);
        const double finish_ms = selfMs(layers, "runtime.finish", 1);
        if (finish_ms > 0)
            out["sim.events_per_s"] =
                static_cast<double>(_events_all) / (finish_ms / 1e3);
        const std::uint64_t lookups =
            _counts.cache_hits + _counts.cache_misses;
        if (lookups)
            out["drx.cache_hit_rate"] =
                static_cast<double>(_counts.cache_hits) /
                static_cast<double>(lookups);
        out["drx.cache_timing_hits"] =
            static_cast<double>(_counts.timing_hits);
        out["runtime.commands"] = static_cast<double>(_counts.commands);
        out["sim.events"] = static_cast<double>(_counts.events);
        out["pcie.doorbells"] = static_cast<double>(_counts.doorbells);
        out["pcie.desc_fetches"] = static_cast<double>(_counts.desc_fetches);
        out["pcie.settle_visits"] =
            static_cast<double>(_counts.settle_visits);
        out["pcie.bytes"] = static_cast<double>(_counts.bytes);
        out["driver.interrupts"] = static_cast<double>(_counts.interrupts);
        out["driver.polls"] = static_cast<double>(_counts.polls);
        out["driver.suppressed"] = static_cast<double>(_counts.suppressed);
    }

  private:
    Session
    drawSession(std::uint64_t i) const
    {
        // Every (style, repeat, request count) cell once per round of
        // 48, in a seeded order; the kernels are drawn from the seed.
        const unsigned combo =
            stratified(_p.seed, i, 2 * num_styles * max_requests);
        Session ses;
        ses.style = static_cast<Style>(combo % num_styles);
        ses.repeat = combo / num_styles % 2 == 1;
        const unsigned n = 1 + combo / (2 * num_styles);
        Rng rng(mix(_p.seed, i));
        if (ses.repeat) {
            ses.entries.assign(
                n, static_cast<unsigned>(rng.below(_entries.size())));
        } else {
            std::vector<unsigned> all(_entries.size());
            std::iota(all.begin(), all.end(), 0u);
            rng.shuffle(all);
            ses.entries.assign(all.begin(), all.begin() + n);
        }
        return ses;
    }

    /**
     * Push every request of @p ses through the platform and drain it.
     * @return true when every submission settled Ok.
     */
    bool
    submit(const Session &ses, rt::Context &ctx, const rt::DeviceId axl[2],
           const rt::DeviceId drx[2], const std::vector<rt::BufferId> &in,
           const std::vector<rt::BufferId> &mid,
           const std::vector<rt::BufferId> &out,
           const std::vector<rt::BufferId> &dst,
           std::vector<dmx::Tick> &settled, std::uint64_t &commands)
    {
        const std::size_t n = ses.entries.size();
        auto kernelOf = [&](std::size_t r) -> const auto & {
            return _entries[ses.entries[r]].kernel;
        };
        auto chainOf = [&](std::size_t r) {
            rt::ChainOp to_drx;
            to_drx.kind = rt::ChainOp::Kind::Copy;
            to_drx.device = axl[0];
            to_drx.dst_device = drx[r % 2];
            to_drx.in = in[r];
            to_drx.out = mid[r];
            rt::ChainOp restructure;
            restructure.kind = rt::ChainOp::Kind::Restructure;
            restructure.device = drx[r % 2];
            restructure.in = mid[r];
            restructure.out = out[r];
            restructure.kernels = {kernelOf(r)};
            rt::ChainOp to_axl;
            to_axl.kind = rt::ChainOp::Kind::Copy;
            to_axl.device = drx[r % 2];
            to_axl.dst_device = axl[1];
            to_axl.in = out[r];
            to_axl.out = dst[r];
            return std::vector<rt::ChainOp>{to_drx, restructure, to_axl};
        };
        auto finish = [&] {
            auto s = _p.tracer->span(_span_finish);
            ctx.finish();
        };

        bool ok = true;
        switch (ses.style) {
          case Style::Queue: {
            std::vector<rt::Event> evs;
            {
                auto s = _p.tracer->span(_span_enqueue);
                for (std::size_t r = 0; r < n; ++r)
                    evs.push_back(ctx.queue(axl[0]).enqueueCopy(
                        in[r], mid[r], drx[r % 2]));
            }
            finish();
            {
                auto s = _p.tracer->span(_span_enqueue);
                for (std::size_t r = 0; r < n; ++r) {
                    rt::CommandQueue &q = ctx.queue(drx[r % 2]);
                    evs.push_back(
                        q.enqueueRestructure(kernelOf(r), mid[r], out[r]));
                    evs.push_back(q.enqueueCopy(out[r], dst[r], axl[1]));
                }
            }
            finish();
            commands += evs.size();
            for (const rt::Event &e : evs) {
                ok = ok && e.ok();
                if (e.complete())
                    settled.push_back(e.completeTime());
            }
            break;
          }
          case Style::Chain: {
            std::vector<rt::ChainEvent> evs;
            {
                auto s = _p.tracer->span(_span_enqueue);
                for (std::size_t r = 0; r < n; ++r)
                    evs.push_back(rt::enqueueChain(ctx, chainOf(r)));
            }
            finish();
            commands += evs.size();
            for (const rt::ChainEvent &e : evs) {
                ok = ok && e.ok();
                if (e.complete())
                    settled.push_back(e.completeTime());
            }
            break;
          }
          case Style::Batch: {
            rt::BatchEvent bev;
            {
                auto s = _p.tracer->span(_span_enqueue);
                std::vector<rt::BatchOp> ops(n);
                for (std::size_t r = 0; r < n; ++r) {
                    ops[r].kind = rt::BatchOp::Kind::Chain;
                    ops[r].chain = chainOf(r);
                }
                bev = rt::submitBatch(ctx, ops);
            }
            finish();
            commands += 1;
            ok = bev.ok();
            if (bev.complete()) {
                settled.push_back(bev.completeTime());
                for (const rt::BatchRecord &rec : bev.records())
                    settled.push_back(rec.at);
            }
            break;
          }
        }
        if (!ok)
            std::fprintf(stderr, "drx-runtime-session: a submission did not "
                                 "settle Ok\n");
        return ok;
    }

    WorkloadParams _p;
    std::vector<Entry> _entries;
    std::uint32_t _span_oracle = 0, _span_platform = 0, _span_add = 0,
                  _span_enqueue = 0, _span_finish = 0, _span_check = 0,
                  _span_teardown = 0;

    std::uint64_t _oracle_bytes = 0; ///< traced oracle input + output
    std::uint64_t _events_all = 0;   ///< events over the traced phase
    Counters _counts;                ///< over the traced digest prefix
};

} // namespace

std::unique_ptr<Workload>
makeDrxRuntimeSession(const WorkloadParams &p)
{
    return std::make_unique<DrxRuntimeSession>(p);
}

} // namespace perfbench
