#include "serve/serve.hh"

#include <algorithm>
#include <memory>
#include <string>
#include <vector>

#include "common/logging.hh"
#include "driver/queues.hh"
#include "robust/credit.hh"
#include "runtime/batch.hh"
#include "runtime/runtime.hh"
#include "trace/trace.hh"

namespace dmx::serve
{

namespace
{

/*
 * The stress kernel is a byte-bound streaming pass (checksum-rotate) so
 * service time scales with request bytes through the device's op-rate
 * model while the functional work stays trivial.
 */
runtime::Bytes
streamKernel(const runtime::Bytes &in, kernels::OpCount &ops)
{
    runtime::Bytes out(in.size());
    std::uint8_t acc = 0;
    for (std::size_t i = 0; i < in.size(); ++i) {
        acc = static_cast<std::uint8_t>(acc + in[i]);
        out[i] = acc;
    }
    ops.int_ops += in.size();
    ops.bytes_read += in.size();
    ops.bytes_written += out.size();
    return out;
}

/** Build the "axl<d>" device bank on @p plat; @return the device ids. */
std::vector<runtime::DeviceId>
addBank(runtime::Platform &plat, unsigned devices)
{
    std::vector<runtime::DeviceId> ids;
    ids.reserve(devices);
    for (unsigned d = 0; d < devices; ++d)
        ids.push_back(plat.addAccelerator("axl" + std::to_string(d),
                                          accel::Domain::Crypto,
                                          streamKernel));
    return ids;
}

/**
 * Service time of one request on an idle, fault-free platform: the
 * saturation yardstick arrivals are spaced against.
 */
Tick
soloServiceTicks(const sys::OverloadConfig &cfg)
{
    runtime::Platform plat;
    const auto ids = addBank(plat, 1);
    runtime::Context ctx = plat.createContext();
    const auto in = ctx.createBuffer(
        runtime::Bytes(cfg.request_bytes, std::uint8_t{1}));
    const auto out = ctx.createBuffer();
    const runtime::Event ev = ctx.queue(ids[0]).enqueueKernel(in, out);
    ctx.finish();
    if (!ev.ok())
        dmx_panic("serve: calibration request did not complete");
    return ev.completeTime();
}

/**
 * The live open-loop run. With `cfg.enabled == false` every serving
 * feature is unreachable and the engine is the plain overload stress
 * point sys::simulateOverload reports.
 */
class ServeSim
{
  public:
    explicit ServeSim(const ServeConfig &cfg) : _cfg(cfg)
    {
        const sys::OverloadConfig &oc = cfg.overload;
        if (oc.devices == 0)
            dmx_fatal("serve: need at least one device");
        if (oc.requests == 0)
            dmx_fatal("serve: need at least one request");
        if (oc.load <= 0)
            dmx_fatal("serve: load must be positive");
        if (oc.request_bytes == 0)
            dmx_fatal("serve: request_bytes must be nonzero");
        if (oc.ring_bytes < oc.request_bytes)
            dmx_fatal("serve: ring_bytes smaller than one request");
        if (oc.batch == 0)
            dmx_fatal("serve: batch must be at least 1");
        if (cfg.fault_hang_fraction < 0 || cfg.fault_hang_fraction > 1)
            dmx_fatal("serve: fault_hang_fraction must be in [0, 1]");
        if (cfg.slo_ls_factor <= 0 || cfg.slo_batch_factor <= 0)
            dmx_fatal("serve: SLO factors must be positive");
    }

    ServeStats
    run()
    {
        const sys::OverloadConfig &oc = _cfg.overload;
        _service = soloServiceTicks(oc);

        _ids = addBank(_plat, oc.devices);
        if (oc.fault_rate > 0) {
            fault::FaultSpec spec;
            spec.seed = oc.seed;
            const double hf =
                _cfg.enabled ? _cfg.fault_hang_fraction : 0.2;
            spec.kernel_fail_prob = (1.0 - hf) * oc.fault_rate;
            spec.kernel_hang_prob = hf * oc.fault_rate;
            if (_cfg.enabled && _cfg.unhealthy_threshold)
                spec.unhealthy_threshold = _cfg.unhealthy_threshold;
            _plan = std::make_unique<fault::FaultPlan>(spec);
            _plat.setFaultPlan(_plan.get());
        }
        robust::RobustConfig rc = oc.robust;
        if (oc.deadline_factor > 0)
            rc.deadline = static_cast<Tick>(
                oc.deadline_factor * static_cast<double>(_service));
        _plat.setRobustConfig(rc);

        for (unsigned d = 0; d < oc.devices; ++d) {
            _rings.emplace_back(
                std::make_unique<driver::DataQueue>(oc.ring_bytes));
            _rings.back()->setLabel("axl" + std::to_string(d) +
                                    ".submit");
            if (oc.robust.backpressure.enabled) {
                driver::DataQueue &ring = *_rings.back();
                if (oc.robust.backpressure.credit_window)
                    ring.setCreditWindow(
                        oc.robust.backpressure.credit_window);
                _gates.push_back(std::make_unique<robust::CreditGate>(
                    ring.label(), ring.creditWindow()));
            }
        }

        // Offered load: one request per `interval` system-wide equals
        // `load` times the bank's aggregate saturation rate.
        const Tick interval = std::max<Tick>(
            1, static_cast<Tick>(
                   static_cast<double>(_service) /
                   (oc.load * static_cast<double>(oc.devices))));
        TraceConfig tc = _cfg.trace;
        if (!_cfg.enabled)
            tc.shape = TraceShape::Steady; // the uniform arrival clock
        _arrivals = generateArrivals(tc, oc.requests, interval,
                                     oc.request_bytes, oc.ring_bytes,
                                     oc.seed);

        if (_cfg.enabled && _cfg.budget.enabled) {
            _budget =
                std::make_unique<RetryBudget>(_cfg.budget, tc.tenants);
            _plat.setRetryPolicy(
                [this](runtime::Context &ctx, runtime::DeviceId,
                       unsigned) {
                    return _budget->tryConsume(
                        static_cast<unsigned>(ctx.tag()));
                });
        }
        if (_cfg.enabled && _cfg.brownout.enabled) {
            if (_cfg.brownout.exit_factor >= _cfg.brownout.enter_factor)
                dmx_fatal("serve: brownout exit_factor must be below "
                          "enter_factor");
            _brownout = std::make_unique<BrownoutController>(
                static_cast<Tick>(_cfg.brownout.enter_factor *
                                  static_cast<double>(_service)),
                static_cast<Tick>(_cfg.brownout.exit_factor *
                                  static_cast<double>(_service)),
                _cfg.brownout.enter_consecutive,
                _cfg.brownout.exit_consecutive);
            // Evaluate once per solo service time: the natural unit
            // the thresholds are expressed in.
            _plat.eventQueue().schedule(_service,
                                        [this] { brownoutTick(); });
        }

        // A partial batch flushes once a full batch's worth of steady
        // arrival intervals has passed with no flush, bounding the
        // queueing delay batching can add to the accumulation window.
        _pending.resize(oc.devices);
        _pending_gen.assign(oc.devices, 0);
        _flush_ticks = std::max<Tick>(
            1, interval * static_cast<Tick>(oc.batch));

        _reqs.resize(oc.requests);
        for (unsigned i = 0; i < oc.requests; ++i) {
            _plat.eventQueue().schedule(_arrivals[i].at,
                                        [this, i] { arrive(i); });
        }
        _plat.drain();
        return collect();
    }

  private:
    struct Request
    {
        std::unique_ptr<runtime::Context> ctx;
        std::unique_ptr<runtime::Context> hedge_ctx;
        Tick start = 0;
        std::size_t dev = 0;
        std::size_t hedge_dev = 0;
        unsigned tenant = 0;
        SloClass cls = SloClass::LatencySensitive;
        std::uint64_t bytes = 0;
        bool arrived = false;
        bool push_ok = false;
        bool hedge_push_ok = false;
        bool hedge_issued = false;
        bool primary_done = false;
        bool hedge_done = false;
        bool degraded = false;
        bool finalized = false;
        runtime::Status primary_status = runtime::Status::Pending;
        sim::EventHandle hedge_timer;
    };

    /** One accumulated (not yet submitted) batch member. */
    struct PendingMember
    {
        unsigned i = 0;
        runtime::BufferId in = 0;
        runtime::BufferId out = 0;
    };

    /** Per-SLO-class accumulation. */
    struct ClassAccum
    {
        std::uint64_t offered = 0;
        std::uint64_t completed = 0;
        std::uint64_t shed = 0;
        std::uint64_t failed = 0;
        std::uint64_t timed_out = 0;
        std::uint64_t degraded = 0;
        std::uint64_t slo_ok = 0;
        std::vector<double> lat_ms;
        std::vector<Tick> lat_ticks; ///< hedge-delay percentile input
    };

    ClassAccum &
    accum(SloClass cls)
    {
        return cls == SloClass::Batch ? _batch : _ls;
    }

    Tick
    sloTicks(SloClass cls) const
    {
        const double f = cls == SloClass::Batch ? _cfg.slo_batch_factor
                                                : _cfg.slo_ls_factor;
        return static_cast<Tick>(f * static_cast<double>(_service));
    }

    void
    arrive(unsigned i)
    {
        Request &r = _reqs[i];
        const Arrival &a = _arrivals[i];
        r.dev = i % _cfg.overload.devices;
        r.start = _plat.now();
        r.tenant = a.tenant;
        r.cls = a.cls;
        r.bytes = a.bytes;
        r.arrived = true;
        ++_offered;
        ++accum(r.cls).offered;
        if (_budget)
            _budget->onOffered(r.tenant);
        if (_brownout) {
            const BrownoutLevel lv = _brownout->level();
            if (lv == BrownoutLevel::FailFast) {
                ++_brownout_shed_all;
                finalize(i, runtime::Status::Shed, false);
                return;
            }
            if (lv >= BrownoutLevel::ShedBatch &&
                r.cls == SloClass::Batch) {
                ++_brownout_shed_batch;
                finalize(i, runtime::Status::Shed, false);
                return;
            }
            if (lv == BrownoutLevel::Degraded &&
                r.cls == SloClass::LatencySensitive) {
                r.bytes = std::max<std::uint64_t>(
                    1, static_cast<std::uint64_t>(
                           _cfg.brownout.degrade_bytes_factor *
                           static_cast<double>(r.bytes)));
                r.degraded = true;
                ++_brownout_degraded;
            }
        }
        if (!_gates.empty()) {
            // Credit-gated submission: blocked producers wait in
            // simulated time (latency keeps accruing from arrival), so
            // an admitted push can never overrun the ring.
            _gates[r.dev]->acquire(r.bytes, _plat.now(),
                                   [this, i](Tick) { submit(i); });
            return;
        }
        submit(i);
    }

    void
    submit(unsigned i)
    {
        Request &r = _reqs[i];
        driver::DataQueue &ring = *_rings[r.dev];
        r.push_ok = ring.push(r.bytes);
        if (!r.push_ok && _plan)
            _plan->onQueueOverflow(ring.label());
        r.ctx = _plat.createContextPtr();
        if (_cfg.enabled) {
            r.ctx->setTag(r.tenant);
            r.ctx->setPriority(r.cls == SloClass::Batch ? 1 : 0);
        }
        const auto in = r.ctx->createBuffer(runtime::Bytes(
            r.bytes, static_cast<std::uint8_t>(i)));
        const auto out = r.ctx->createBuffer();
        if (_cfg.overload.batch > 1) {
            // Primary submissions batch; hedges never do (a hedge
            // exists to dodge latency, parking it in an accumulator
            // would defeat it). The hedge timer arms at join time, so
            // accumulator wait counts against the straggler exactly
            // like queue wait does.
            joinBatch(i, in, out);
        } else {
            const runtime::Event ev =
                r.ctx->queue(_ids[r.dev]).enqueueKernel(in, out);
            runtime::onSettled(
                ev, [this, i, ev] { armSettled(i, false, ev.status()); });
        }
        if (_cfg.enabled && _cfg.hedge.enabled &&
            _cfg.overload.devices > 1) {
            r.hedge_timer = _plat.eventQueue().scheduleIn(
                hedgeDelay(r.cls), [this, i] { maybeHedge(i); });
        }
    }

    /**
     * Batched path: the request joins its device's accumulator (ring
     * bytes and gate credit already held, so nothing downstream can
     * tell accumulated and direct submissions apart at settle). A full
     * accumulator flushes immediately; a partial one when its flush
     * window expires.
     */
    void
    joinBatch(unsigned i, runtime::BufferId in, runtime::BufferId out)
    {
        const std::size_t dev = _reqs[i].dev;
        auto &pend = _pending[dev];
        pend.push_back({i, in, out});
        if (pend.size() >= _cfg.overload.batch) {
            flushBatch(dev);
            return;
        }
        if (pend.size() == 1) {
            const std::uint64_t gen = _pending_gen[dev];
            _plat.eventQueue().scheduleIn(
                _flush_ticks, [this, dev, gen] {
                    if (_pending_gen[dev] == gen &&
                        !_pending[dev].empty())
                        flushBatch(dev);
                });
        }
    }

    void
    flushBatch(std::size_t dev)
    {
        auto pend = std::move(_pending[dev]);
        _pending[dev].clear();
        ++_pending_gen[dev];
        std::vector<runtime::BatchOp> ops;
        ops.reserve(pend.size());
        for (const PendingMember &m : pend) {
            runtime::BatchOp op;
            op.kind = runtime::BatchOp::Kind::Kernel;
            op.device = _ids[dev];
            op.in = m.in;
            op.out = m.out;
            // Tenancy stays per member: each context carries its own
            // admission priority and retry-budget tag into the batch.
            op.ctx = _reqs[m.i].ctx.get();
            ops.push_back(op);
        }
        const runtime::BatchEvent bev =
            runtime::submitBatch(*_reqs[pend.front().i].ctx, ops);
        for (std::size_t j = 0; j < pend.size(); ++j) {
            const unsigned i = pend[j].i;
            const runtime::Event ev = bev.member(j);
            runtime::onSettled(ev, [this, i, ev] {
                armSettled(i, false, ev.status());
            });
        }
    }

    /**
     * Hedge trigger delay for @p cls at this point of the run: the
     * observed class-latency percentile once enough samples exist,
     * floored at initial_factor * the solo service time. The floor is
     * load-bearing: hedge-rescued completions are fast, so an
     * unfloored percentile feeds back on its own successes and decays
     * until every request hedges (and doubles the offered load).
     */
    Tick
    hedgeDelay(SloClass cls)
    {
        const Tick floor = std::max<Tick>(
            1, static_cast<Tick>(_cfg.hedge.initial_factor *
                                 static_cast<double>(_service)));
        const ClassAccum &c = accum(cls);
        const double pct = cls == SloClass::Batch
                               ? _cfg.hedge.batch_percentile
                               : _cfg.hedge.ls_percentile;
        if (c.lat_ticks.size() < _cfg.hedge.min_samples)
            return floor;
        return std::max(
            floor, common::percentileNearestRank(c.lat_ticks, pct));
    }

    /**
     * Healthiest alternate for a hedge: fewest consecutive failures,
     * then fewest outstanding commands, then lowest id — never the
     * primary.
     */
    std::size_t
    healthiestAlternate(std::size_t primary) const
    {
        std::size_t best = primary;
        for (std::size_t d = 0; d < _ids.size(); ++d) {
            if (d == primary)
                continue;
            if (best == primary) {
                best = d;
                continue;
            }
            const auto rank = [this](std::size_t x) {
                return std::make_pair(
                    _plat.deviceHealth(_ids[x]).consecutiveFailures(),
                    _plat.outstandingCommands(_ids[x]));
            };
            if (rank(d) < rank(best))
                best = d;
        }
        return best;
    }

    void
    maybeHedge(unsigned i)
    {
        Request &r = _reqs[i];
        if (r.finalized || r.hedge_issued)
            return;
        if (_budget && !_budget->tryConsume(r.tenant)) {
            ++_hedges_denied;
            if (auto *tb = trace::active())
                tb->count("serve.hedge.denied", _plat.now());
            return;
        }
        r.hedge_issued = true;
        r.hedge_dev = healthiestAlternate(r.dev);
        ++_hedges_issued;
        if (auto *tb = trace::active()) {
            tb->count("serve.hedge.issued", _plat.now());
            tb->span(trace::Category::Serve, "hedge",
                     "axl" + std::to_string(r.hedge_dev), r.start,
                     _plat.now(), i);
        }
        driver::DataQueue &ring = *_rings[r.hedge_dev];
        r.hedge_push_ok = ring.push(r.bytes);
        if (!r.hedge_push_ok && _plan)
            _plan->onQueueOverflow(ring.label());
        r.hedge_ctx = _plat.createContextPtr();
        r.hedge_ctx->setTag(r.tenant);
        r.hedge_ctx->setPriority(r.cls == SloClass::Batch ? 1 : 0);
        const auto in = r.hedge_ctx->createBuffer(runtime::Bytes(
            r.bytes, static_cast<std::uint8_t>(i)));
        const auto out = r.hedge_ctx->createBuffer();
        const runtime::Event ev =
            r.hedge_ctx->queue(_ids[r.hedge_dev]).enqueueKernel(in, out);
        runtime::onSettled(
            ev, [this, i, ev] { armSettled(i, true, ev.status()); });
    }

    /**
     * One arm (primary or hedge) of request @p i settled. Per-arm
     * plumbing (ring credit, gate release) always runs; the *request*
     * finalizes exactly once:
     *
     *  - first Ok settle wins: the request completes, the other arm —
     *    if still in flight — is cancelled (its later outcome is
     *    ignored, so a request can never double-count);
     *  - an error settle with the sibling still active defers to it;
     *  - when both arms fail, the primary's status classifies the
     *    request.
     */
    void
    armSettled(unsigned i, bool is_hedge, runtime::Status status)
    {
        Request &r = _reqs[i];
        if (is_hedge) {
            r.hedge_done = true;
            if (r.hedge_push_ok)
                _rings[r.hedge_dev]->pop(r.bytes);
        } else {
            r.primary_done = true;
            r.primary_status = status;
            if (r.push_ok)
                _rings[r.dev]->pop(r.bytes);
            if (!_gates.empty())
                _gates[r.dev]->release(r.bytes, _plat.now());
        }
        _last_settle = std::max(_last_settle, _plat.now());
        if (r.finalized)
            return; // the cancelled loser reporting in: ignored
        const bool sibling_active =
            is_hedge ? !r.primary_done
                     : (r.hedge_issued && !r.hedge_done);
        if (status == runtime::Status::Ok) {
            if (sibling_active)
                ++_hedges_cancelled;
            if (is_hedge) {
                ++_hedges_won;
                if (auto *tb = trace::active())
                    tb->count("serve.hedge.won", _plat.now());
            }
            finalize(i, runtime::Status::Ok, is_hedge);
            return;
        }
        if (sibling_active)
            return; // the other arm may still rescue the request
        finalize(i, r.primary_done ? r.primary_status : status,
                 false);
    }

    void
    finalize(unsigned i, runtime::Status status, bool won_by_hedge)
    {
        (void)won_by_hedge;
        Request &r = _reqs[i];
        r.finalized = true;
        r.hedge_timer.cancel();
        const Tick sojourn = _plat.now() - r.start;
        const double ms = ticksToMs(sojourn);
        ClassAccum &c = accum(r.cls);
        switch (status) {
          case runtime::Status::Ok:
            ++_completed;
            ++c.completed;
            _latencies_ms.push_back(ms);
            c.lat_ms.push_back(ms);
            c.lat_ticks.push_back(sojourn);
            if (sojourn <= sloTicks(r.cls))
                ++c.slo_ok;
            break;
          case runtime::Status::Shed:
            ++_shed;
            ++c.shed;
            _shed_ms.push_back(ms);
            break;
          case runtime::Status::TimedOut:
            ++_timed_out;
            ++c.timed_out;
            _timeout_ms.push_back(ms);
            break;
          default:
            ++_failed;
            ++c.failed;
            break;
        }
        if (r.degraded)
            ++c.degraded;
        _last_settle = std::max(_last_settle, _plat.now());
        _window.push_back(sojourn);
        ++_finalized;
        // Contexts (buffers, queues) stay alive until collect(): the
        // engine owns them, nothing else references them afterwards.
    }

    void
    brownoutTick()
    {
        // Congestion signal: the worse of the p99 sojourn since the
        // last evaluation and the oldest in-flight request's age —
        // queue growth shows up in the latter before anything settles.
        Tick signal = 0;
        if (!_window.empty()) {
            signal = common::percentileNearestRank(_window, 0.99);
            _window.clear();
        }
        for (const Request &r : _reqs) {
            if (r.arrived && !r.finalized)
                signal = std::max(signal, _plat.now() - r.start);
        }
        const BrownoutLevel before = _brownout->level();
        const BrownoutLevel after = _brownout->evaluate(signal);
        if (after != before) {
            if (static_cast<std::uint8_t>(after) >
                static_cast<std::uint8_t>(before))
                ++_brownout_escalations;
            else
                ++_brownout_deescalations;
            if (auto *tb = trace::active())
                tb->span(trace::Category::Serve,
                         "brownout:" + toString(after), "serve",
                         _plat.now(), _plat.now(), 0);
        }
        if (_finalized < _cfg.overload.requests)
            _plat.eventQueue().scheduleIn(_service,
                                          [this] { brownoutTick(); });
    }

    ServeStats
    collect()
    {
        ServeStats st;
        sys::OverloadStats &b = st.base;
        b.offered = _offered;
        b.completed = _completed;
        b.shed = _shed;
        b.failed = _failed;
        b.timed_out = _timed_out;
        b.makespan_ms = ticksToMs(_last_settle);
        const double makespan_s = ticksToSeconds(_last_settle);
        b.goodput_rps =
            makespan_s > 0 ? static_cast<double>(_completed) / makespan_s
                           : 0;
        b.completed_latency = common::summarizeLatencies(_latencies_ms);
        b.shed_latency = common::summarizeLatencies(_shed_ms);
        b.timeout_latency = common::summarizeLatencies(_timeout_ms);
        b.mean_latency_ms = b.completed_latency.mean_ms;
        b.p99_latency_ms = b.completed_latency.p99_ms;

        for (const auto &ring : _rings) {
            b.queue_overflows += ring->overflows();
            b.max_ring_high_water =
                std::max(b.max_ring_high_water, ring->highWater());
        }
        b.ring_credit_window =
            _rings.empty() ? 0 : _rings.front()->creditWindow();
        for (const auto &gate : _gates) {
            b.backpressure_stalls += gate->stalls();
            b.backpressure_stall_ms += ticksToMs(gate->stallTicks());
        }
        for (const runtime::DeviceId id : _ids) {
            const runtime::DeviceFaultStats &fs = _plat.faultStats(id);
            b.retries += fs.retries;
            b.watchdog_timeouts += fs.timeouts;
            b.breaker_fast_fails += fs.breaker_fast_fails;
            st.total_attempts += fs.attempts;
            st.retries_denied += fs.retries_denied;
            if (const robust::CircuitBreaker *brk =
                    _plat.deviceBreaker(id)) {
                b.breaker_opens += brk->opens();
                b.breaker_open_ms +=
                    ticksToMs(brk->quarantineTicks(_plat.now()));
            }
        }
        // Interrupts plus polls: NAPI may deliver any notification in
        // polled mode, so interrupts alone would undercount.
        b.irq_notifications = _plat.irq().interruptsDelivered() +
                              _plat.irq().pollsDelivered();
        b.irq_suppressed = _plat.irq().suppressedNotifications();

        st.latency_sensitive = classStats(_ls, SloClass::LatencySensitive);
        st.batch = classStats(_batch, SloClass::Batch);

        st.hedges_issued = _hedges_issued;
        st.hedges_won = _hedges_won;
        st.hedges_cancelled = _hedges_cancelled;
        st.hedges_denied = _hedges_denied;
        if (_budget) {
            st.budget_granted = _budget->granted();
            st.budget_denied = _budget->denied();
        }
        st.brownout_escalations = _brownout_escalations;
        st.brownout_deescalations = _brownout_deescalations;
        st.brownout_shed_batch = _brownout_shed_batch;
        st.brownout_shed_all = _brownout_shed_all;
        st.brownout_degraded = _brownout_degraded;
        st.brownout_final =
            _brownout ? _brownout->level() : BrownoutLevel::Normal;
        return st;
    }

    ClassStats
    classStats(const ClassAccum &c, SloClass cls) const
    {
        ClassStats s;
        s.offered = c.offered;
        s.completed = c.completed;
        s.shed = c.shed;
        s.failed = c.failed;
        s.timed_out = c.timed_out;
        s.degraded = c.degraded;
        s.latency = common::summarizeLatencies(c.lat_ms);
        s.slo_target_ms = ticksToMs(sloTicks(cls));
        s.slo_attainment =
            c.offered ? static_cast<double>(c.slo_ok) /
                            static_cast<double>(c.offered)
                      : 0;
        return s;
    }

    ServeConfig _cfg;
    runtime::Platform _plat;
    std::unique_ptr<fault::FaultPlan> _plan;
    std::vector<runtime::DeviceId> _ids;
    std::vector<std::unique_ptr<driver::DataQueue>> _rings;
    std::vector<std::unique_ptr<robust::CreditGate>> _gates;
    std::vector<Arrival> _arrivals;
    std::vector<Request> _reqs;
    std::vector<std::vector<PendingMember>> _pending; ///< per device
    std::vector<std::uint64_t> _pending_gen;
    Tick _flush_ticks = 1;
    std::unique_ptr<RetryBudget> _budget;
    std::unique_ptr<BrownoutController> _brownout;
    Tick _service = 0;

    std::vector<double> _latencies_ms;
    std::vector<double> _shed_ms;
    std::vector<double> _timeout_ms;
    std::vector<Tick> _window; ///< sojourns since the last brownout eval
    ClassAccum _ls;
    ClassAccum _batch;
    std::uint64_t _offered = 0;
    std::uint64_t _completed = 0;
    std::uint64_t _shed = 0;
    std::uint64_t _failed = 0;
    std::uint64_t _timed_out = 0;
    std::uint64_t _finalized = 0;
    std::uint64_t _hedges_issued = 0;
    std::uint64_t _hedges_won = 0;
    std::uint64_t _hedges_cancelled = 0;
    std::uint64_t _hedges_denied = 0;
    std::uint64_t _brownout_escalations = 0;
    std::uint64_t _brownout_deescalations = 0;
    std::uint64_t _brownout_shed_batch = 0;
    std::uint64_t _brownout_shed_all = 0;
    std::uint64_t _brownout_degraded = 0;
    Tick _last_settle = 0;
};

} // namespace

ServeStats
simulateServing(const ServeConfig &cfg)
{
    ServeSim sim(cfg);
    return sim.run();
}

std::vector<double>
flatten(const ServeStats &st)
{
    std::vector<double> v;
    const auto push = [&v](double x) { v.push_back(x); };
    const auto pushSummary = [&push](const common::LatencySummary &s) {
        push(static_cast<double>(s.count));
        push(s.mean_ms);
        push(s.p50_ms);
        push(s.p99_ms);
        push(s.p999_ms);
    };
    const auto pushClass = [&push, &pushSummary](const ClassStats &c) {
        push(static_cast<double>(c.offered));
        push(static_cast<double>(c.completed));
        push(static_cast<double>(c.shed));
        push(static_cast<double>(c.failed));
        push(static_cast<double>(c.timed_out));
        push(static_cast<double>(c.degraded));
        pushSummary(c.latency);
        push(c.slo_target_ms);
        push(c.slo_attainment);
    };

    const sys::OverloadStats &b = st.base;
    push(static_cast<double>(b.offered));
    push(static_cast<double>(b.completed));
    push(static_cast<double>(b.shed));
    push(static_cast<double>(b.failed));
    push(static_cast<double>(b.timed_out));
    push(b.goodput_rps);
    push(b.mean_latency_ms);
    push(b.p99_latency_ms);
    push(b.makespan_ms);
    push(static_cast<double>(b.queue_overflows));
    push(static_cast<double>(b.ring_credit_window));
    push(static_cast<double>(b.max_ring_high_water));
    push(static_cast<double>(b.backpressure_stalls));
    push(b.backpressure_stall_ms);
    push(static_cast<double>(b.breaker_opens));
    push(static_cast<double>(b.breaker_fast_fails));
    push(b.breaker_open_ms);
    push(static_cast<double>(b.retries));
    push(static_cast<double>(b.watchdog_timeouts));
    push(static_cast<double>(b.irq_notifications));
    push(static_cast<double>(b.irq_suppressed));
    pushSummary(b.completed_latency);
    pushSummary(b.shed_latency);
    pushSummary(b.timeout_latency);

    pushClass(st.latency_sensitive);
    pushClass(st.batch);

    push(static_cast<double>(st.hedges_issued));
    push(static_cast<double>(st.hedges_won));
    push(static_cast<double>(st.hedges_cancelled));
    push(static_cast<double>(st.hedges_denied));
    push(static_cast<double>(st.budget_granted));
    push(static_cast<double>(st.budget_denied));
    push(static_cast<double>(st.retries_denied));
    push(static_cast<double>(st.brownout_escalations));
    push(static_cast<double>(st.brownout_deescalations));
    push(static_cast<double>(st.brownout_shed_batch));
    push(static_cast<double>(st.brownout_shed_all));
    push(static_cast<double>(st.brownout_degraded));
    push(static_cast<double>(st.brownout_final));
    push(static_cast<double>(st.total_attempts));
    return v;
}

} // namespace dmx::serve

namespace dmx::sys
{

OverloadStats
simulateOverload(const OverloadConfig &cfg)
{
    serve::ServeConfig sc;
    sc.overload = cfg;
    return serve::simulateServing(sc).base;
}

} // namespace dmx::sys
