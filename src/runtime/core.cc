#include "runtime/core.hh"

#include <utility>

#include "common/logging.hh"
#include "integrity/integrity.hh"
#include "restructure/cpu_exec.hh"
#include "trace/trace.hh"

namespace dmx::runtime::detail
{

const char *
Core::invalid(const Platform &p, const ChainOp &op)
{
    if (op.device >= p._devices.size())
        return "names a bad device";
    const bool drx = p._devices[op.device].is_drx;
    switch (op.kind) {
      case ChainOp::Kind::Copy:
        return op.dst_device < p._devices.size()
                   ? nullptr
                   : "names a bad copy destination";
      case ChainOp::Kind::Kernel:
        return drx ? "is a Kernel on a DRX device (use Restructure)"
                   : nullptr;
      case ChainOp::Kind::Restructure:
        if (!drx)
            return "is a Restructure on an accelerator";
        return op.kernels.empty() ? "is a Restructure with no kernels"
                                  : nullptr;
    }
    return nullptr;
}

Core::Plans
Core::plan(Platform &p, const ChainOp &op)
{
    // Planned once per submission: every attempt - and every later
    // submission with the same kernel structure, through the cache -
    // reinstalls the plan instead of recompiling it.
    Plans plans;
    if (op.kind != ChainOp::Kind::Restructure)
        return plans;
    const drx::DrxConfig &cfg = p._devices[op.device].machine->config();
    for (const restructure::Kernel &k : op.kernels)
        plans.push_back(p.drxCache().lookup(k, cfg).compiled);
    return plans;
}

void
Core::attempt(Context &ctx, const ChainOp &op, const Plans &plans,
              const Doorbell &bell, const bool *over, AttemptResult done)
{
    // The completions below capture @p done, which owns the runner that
    // owns *over, so the flag outlives every callback reading it.
    Platform &p = ctx.platform();
    Platform::Device &d = p._devices[op.device];
    Context *c = &ctx;
    ++d.fstats.attempts;
    switch (op.kind) {
      case ChainOp::Kind::Copy: {
        const auto bytes = static_cast<std::uint64_t>(ctx.read(op.in).size());
        const pcie::NodeId sn = d.node;
        const pcie::NodeId dn = p._devices[op.dst_device].node;
        const bool ring = !bell.programmed || !*bell.programmed;
        const bool ring_again = !bell.programmed;
        if (bell.programmed && bell.claim_at_submit)
            *bell.programmed = true;
        auto deliver = [c, src = op.in, dst = op.out,
                        programmed = bell.programmed, over,
                        done](bool ok) {
            if (*over)
                return;
            if (!ok) {
                done(false);
                return;
            }
            if (programmed)
                *programmed = true;
            c->share(dst, src);
            Platform &plat = c->platform();
            if (plat._integrity) {
                // Silent payload corruption: the DMA completed and
                // reports success, but the delivered copy differs from
                // the source by one flipped bit. Only an end-to-end
                // check can catch this - the flip is deliberately
                // invisible to the command status. It flips a private
                // copy, so the source keeps its bytes.
                const Bytes &got = c->read(dst);
                const auto act = plat._integrity->onPayload(
                    static_cast<std::uint64_t>(got.size()));
                if (act.flip) {
                    Bytes data = got;
                    data[act.bit / 8] ^=
                        static_cast<std::uint8_t>(1u << (act.bit % 8));
                    c->write(dst, std::move(data));
                    if (auto *tb = trace::active()) {
                        tb->instant(trace::Category::Integrity,
                                    "payload_flip", "dma", plat.now(),
                                    act.bit);
                        tb->count("integrity.payload_flips", plat.now());
                    }
                }
            }
            done(true);
        };
        if (p._plan && p._plan->p2pFaulted()) {
            // The switch's p2p forwarding path is down: stage through
            // the root complex as two serial DMAs - honestly slower
            // (twice the traffic, plus the constrained uplink) but it
            // keeps the pipeline flowing.
            ++d.fstats.rerouted_copies;
            if (auto *tb = trace::active())
                tb->count("runtime.rerouted_copies", p.now());
            const pcie::NodeId rc = p._rc;
            p._fabric->startDescriptorFlow(
                {sn, rc, bytes}, ring,
                [c, rc, dn, bytes, ring_again, deliver](bool ok) {
                    if (!ok) {
                        deliver(false);
                        return;
                    }
                    c->platform()._fabric->startDescriptorFlow(
                        {rc, dn, bytes}, ring_again, deliver);
                });
            return;
        }
        p._fabric->startDescriptorFlow({sn, dn, bytes}, ring, deliver);
        return;
      }
      case ChainOp::Kind::Kernel: {
        kernels::OpCount ops;
        Bytes result = d.fn(ctx.read(op.in), ops);
        d.unit->submitChecked(
            accel::kernelCycles(d.spec, ops),
            [c, out = op.out, over, done,
             result = std::move(result)](bool ok) mutable {
                if (*over)
                    return;
                if (ok)
                    c->write(out, std::move(result));
                done(ok);
            });
        return;
      }
      case ChainOp::Kind::Restructure: {
        // The plans run back to back on the machine, and so do their
        // trace spans: one cursor carries on from plan to plan.
        d.machine->resetAlloc();
        drx::RunResult total;
        Tick trace_at = p.now();
        Bytes cur;
        const Bytes *in = &ctx.read(op.in);
        for (std::size_t j = 0; j < plans.size(); ++j) {
            const auto installed = drx::installPlan(plans[j], *d.machine);
            Bytes out;
            const drx::RunResult res =
                drx::runPlanOnDrx(op.kernels[j].name, *installed, *in,
                                  *d.machine, &out, trace_at);
            total += res;
            if (res.faulted) {
                // The machine trapped: charge the trap handling on the
                // unit, then report the device error at that time.
                d.unit->submitChecked(total.total_cycles,
                                      [over, done](bool) {
                                          if (!*over)
                                              done(false);
                                      });
                return;
            }
            cur = std::move(out);
            in = &cur;
        }
        d.unit->submitChecked(
            total.total_cycles,
            [c, out = op.out, over, done,
             result = std::move(cur)](bool ok) mutable {
                if (*over)
                    return;
                if (ok)
                    c->write(out, std::move(result));
                done(ok);
            });
        return;
      }
    }
}

void
Core::runOnCpu(Context &ctx, const ChainOp &op, AttemptResult done)
{
    Platform &p = ctx.platform();
    double core_seconds = 0;
    Bytes cur;
    const Bytes *in = &ctx.read(op.in);
    for (const restructure::Kernel &k : op.kernels) {
        kernels::OpCount ops;
        cur = restructure::executeOnCpu(k, *in, &ops);
        in = &cur;
        core_seconds += cpu::restructureCoreSeconds(ops, p._host_params);
    }
    p._host->submit(
        core_seconds, p._host_params.max_job_cores,
        [c = &ctx, out = op.out, done, cur = std::move(cur)]() mutable {
            c->write(out, std::move(cur));
            done(true);
        });
}

void
Core::attemptOk(Platform &p, DeviceId dev)
{
    Platform::Device &d = p._devices[dev];
    d.health.recordSuccess();
    if (d.breaker)
        d.breaker->recordSuccess(p.now());
}

Core::Retry
Core::retryRule(Context &ctx, DeviceId dev, unsigned n, Status reason,
                Tick deadline_at)
{
    Platform &p = ctx.platform();
    Platform::Device &d = p._devices[dev];
    d.health.recordFailure();
    if (d.breaker)
        d.breaker->recordFailure(p.now());
    ++d.fstats.failures;
    const CommandPolicy &pol = p._policy;
    if (n >= pol.max_retries)
        return {reason};
    double delay = static_cast<double>(pol.backoff_base);
    for (unsigned k = 0; k < n; ++k)
        delay *= pol.backoff_mult;
    delay *= 1.0 + pol.jitter_frac * p._jitter.uniform();
    const Retry retry{Status::Pending, static_cast<Tick>(delay)};
    // Deadline-budgeted retries: when the backoff wait would land at or
    // past the deadline, the budget cannot buy another attempt.
    if (deadline_at && p.now() + retry.delay >= deadline_at) {
        ++d.fstats.deadline_exhausted;
        if (auto *tb = trace::active())
            tb->count("runtime.deadline_exhausted", p.now());
        return {Status::TimedOut};
    }
    // External retry veto (serving-layer retry budgets): the policy
    // can only remove attempts, never add them.
    if (p._retry_policy && !p._retry_policy(ctx, dev, n + 1)) {
        ++d.fstats.retries_denied;
        if (auto *tb = trace::active())
            tb->count("runtime.retries_denied", p.now());
        return {reason};
    }
    ++d.fstats.retries;
    if (auto *tb = trace::active()) {
        tb->count("runtime.retries", p.now());
        tb->span(trace::Category::Retry, "backoff", d.name, p.now(),
                 p.now() + retry.delay, n);
    }
    return retry;
}

void
Core::fire(Event::State &st, Status status, Tick at)
{
    st.status = status;
    st.at = at;
    const auto waiters = std::exchange(st.waiters, {});
    for (const auto &fn : waiters)
        fn();
}

void
Core::whenDone(Event::State *st, std::function<void()> fn)
{
    if (!st || st->status != Status::Pending) {
        fn();
        return;
    }
    st->waiters.push_back(std::move(fn));
}

Core::SettleFn
Core::toHost(Platform &p, std::shared_ptr<Event::State> st)
{
    return [&p, st = std::move(st)](Status status) {
        if (status == Status::Ok && p._plan) {
            // Completion reaches the host through the driver
            // notification path (possibly a recovery poll when the irq
            // was dropped).
            const Tick at = p.now() + p._irq->notifyChecked().latency;
            p._eq.schedule(at, [st, at] { fire(*st, Status::Ok, at); });
            return;
        }
        fire(*st, status, p.now());
    };
}

/**
 * The per-attempt-watchdog runner: one descriptor whose attempts each
 * run under an optional watchdog clipped to the deadline budget. The
 * device work may never report (injected stalls and hangs), which the
 * watchdog turns into a timed-out attempt. A Restructure command on an
 * unhealthy or quarantined DRX degrades to the host CPU instead.
 *
 * Lifetime: scheduled events hold shared_ptrs to the Command; once it
 * settles no further events reference it and it frees itself.
 */
struct Core::Command : std::enable_shared_from_this<Command>
{
    Context *ctx = nullptr;
    ChainOp op;
    Plans plans;
    Doorbell bell;
    std::shared_ptr<Event::State> state;
    SettleFn settled;
    bool counted = true;  ///< holds a slot in Device::outstanding
    Tick submitted = 0;   ///< launch tick (sojourn feedback)
    Tick deadline_at = 0; ///< absolute settle-by tick (0 = none)

    Platform &plat() { return ctx->platform(); }

    Platform::Device &dev() { return plat()._devices[op.device]; }

    /**
     * Drop the command's outstanding-depth slot and feed the admission
     * controller its sojourn sample. Runs exactly once, from whichever
     * terminal settle path fires first.
     */
    void
    release()
    {
        if (!counted)
            return;
        counted = false;
        Platform &p = plat();
        Platform::Device &d = dev();
        if (d.outstanding > 0)
            --d.outstanding;
        if (d.admission)
            d.admission->recordSojourn(p.now() - submitted, p.now());
    }

    void
    settleOk()
    {
        release();
        settled(Status::Ok);
    }

    /** Terminal non-Ok settle shared by every containment path. */
    void
    settleErr(Status reason)
    {
        ++dev().fstats.commands_failed;
        release();
        settled(reason);
    }

    void
    degradeToCpu()
    {
        Platform &p = plat();
        ++dev().fstats.fallbacks;
        state->degraded = true;
        const Tick begin = p.now();
        if (auto *tb = trace::active())
            tb->count("runtime.degraded", begin);
        auto self = shared_from_this();
        runOnCpu(*ctx, op, [self, begin](bool) {
            if (auto *tb = trace::active()) {
                tb->span(trace::Category::Degrade, "cpu_fallback",
                         self->dev().name, begin, self->plat().now());
            }
            self->settleOk();
        });
    }

    void
    beginAttempt(unsigned n)
    {
        Platform &p = plat();
        Platform::Device &d = dev();
        const bool has_fallback = op.kind == ChainOp::Kind::Restructure;

        // Deadline budget spent before this attempt even starts.
        if (deadline_at && p.now() >= deadline_at) {
            ++d.fstats.deadline_exhausted;
            if (auto *tb = trace::active())
                tb->count("runtime.deadline_exhausted", p.now());
            settleErr(Status::TimedOut);
            return;
        }

        // Circuit breaker: a quarantined device fast-fails fresh work
        // up front - to CPU degradation when a fallback exists, to Shed
        // otherwise - instead of burning the full watchdog + retry /
        // backoff budget per command.
        if (d.breaker && !d.breaker->allow(p.now())) {
            ++d.fstats.breaker_fast_fails;
            if (auto *tb = trace::active())
                tb->count("runtime.breaker_fast_fails", p.now());
            if (has_fallback) {
                degradeToCpu();
                return;
            }
            ++d.fstats.shed;
            if (auto *tb = trace::active())
                tb->count("runtime.shed", p.now());
            settleErr(Status::Shed);
            return;
        }

        if (has_fallback && !d.breaker && !d.health.healthy()) {
            // Graceful degradation: the device tripped its unhealthy
            // threshold, so run the work on the host CPU at its
            // honestly worse cost. (With a breaker installed the
            // breaker governs quarantine instead, so HalfOpen probes
            // can reach the device again.)
            degradeToCpu();
            return;
        }

        // Fast-fail: a *fresh* kernel against a device already marked
        // unhealthy settles Failed immediately rather than waiting out
        // a full watchdog timeout against hardware known to be down.
        // Retries of a command already in flight (n > 0) still
        // dispatch. Copies never fast-fail: device health tracks the
        // command engine, while DMA rides the fabric, which may be fine.
        if (n == 0 && op.kind == ChainOp::Kind::Kernel && !d.breaker &&
            !d.health.healthy()) {
            ++d.fstats.fast_fails;
            if (auto *tb = trace::active()) {
                tb->instant(trace::Category::Robust, "fast_fail", d.name,
                            p.now());
                tb->count("runtime.fast_fails", p.now());
            }
            settleErr(Status::Failed);
            return;
        }

        const Tick attempt_begin = p.now();
        auto self = shared_from_this();
        auto over = std::make_shared<bool>(false);
        sim::EventHandle watchdog;
        // The watchdog never outlives the deadline budget: clip it to
        // the remaining budget so the final TimedOut settles at the
        // deadline, not a full timeout later. The subtraction
        // saturates, keeping Tick (unsigned) arithmetic underflow-proof.
        Tick timeout = p._policy.timeout;
        if (deadline_at) {
            const Tick remaining =
                deadline_at > p.now() ? deadline_at - p.now() : 0;
            if (timeout == 0 || remaining < timeout)
                timeout = remaining;
        }
        if (timeout > 0) {
            watchdog = p._eq.scheduleIn(
                timeout, [self, over, n, attempt_begin] {
                    if (*over)
                        return;
                    *over = true;
                    Platform &plat = self->plat();
                    ++self->dev().fstats.timeouts;
                    if (auto *tb = trace::active()) {
                        tb->span(n == 0 ? trace::Category::Command
                                        : trace::Category::Retry,
                                 "attempt_timeout", self->dev().name,
                                 attempt_begin, plat.now(), n);
                        tb->count("runtime.timeouts", plat.now());
                    }
                    self->fail(n, Status::TimedOut);
                });
        }
        attempt(*ctx, op, plans, bell, over.get(),
                [self, over, watchdog, n, attempt_begin](bool ok) mutable {
                    *over = true;
                    watchdog.cancel();
                    if (auto *tb = trace::active()) {
                        tb->span(n == 0 ? trace::Category::Command
                                        : trace::Category::Retry,
                                 "attempt", self->dev().name,
                                 attempt_begin, self->plat().now(), n);
                    }
                    if (!ok) {
                        self->fail(n, Status::Failed);
                        return;
                    }
                    attemptOk(self->plat(), self->op.device);
                    self->settleOk();
                });
    }

    void
    fail(unsigned n, Status reason)
    {
        const Retry r = retryRule(*ctx, op.device, n, reason, deadline_at);
        if (r.settle != Status::Pending) {
            settleErr(r.settle);
            return;
        }
        state->retries = n + 1;
        auto self = shared_from_this();
        plat()._eq.scheduleIn(r.delay,
                              [self, n] { self->beginAttempt(n + 1); });
    }
};

bool
Core::launchCommand(Context &ctx, ChainOp op, Plans plans, Doorbell bell,
                    std::shared_ptr<Event::State> state, SettleFn settled,
                    Event::State *after)
{
    Platform &p = ctx.platform();
    Platform::Device &d = p._devices[op.device];

    // Admission control: shed up front, before the command joins its
    // queue, so a shed neither occupies the device nor cascades an
    // error into its successors.
    if (d.admission &&
        !d.admission->admit(p.now(), d.outstanding, ctx.priority())) {
        ++d.fstats.shed;
        ++d.fstats.commands_failed;
        if (auto *tb = trace::active())
            tb->count("runtime.shed", p.now());
        settled(Status::Shed);
        return false;
    }

    auto cmd = std::make_shared<Command>();
    cmd->ctx = &ctx;
    cmd->op = std::move(op);
    cmd->plans = std::move(plans);
    cmd->bell = std::move(bell);
    cmd->state = std::move(state);
    cmd->settled = std::move(settled);
    cmd->submitted = p.now();
    ++d.outstanding;
    if (p._policy.deadline)
        cmd->deadline_at = p.now() + p._policy.deadline;

    if (auto *tb = trace::active())
        tb->instant(trace::Category::Command, "submit", d.name, p.now());
    // In-order contract: the command starts when its predecessor
    // settles Ok, and settles Failed without touching the device when
    // it did not (its input was never produced). The waiter lives on
    // the predecessor's state, so it holds only a plain pointer to it.
    whenDone(after, [cmd, after] {
        Platform &plat = cmd->plat();
        if (after && after->status != Status::Ok) {
            ++cmd->dev().fstats.cascaded;
            if (auto *tb = trace::active())
                tb->count("runtime.cascaded", plat.now());
            cmd->settleErr(Status::Failed);
            return;
        }
        plat._eq.scheduleIn(0, [cmd] { cmd->beginAttempt(0); });
    });
    return true;
}

} // namespace dmx::runtime::detail
