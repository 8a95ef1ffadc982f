#include "runtime/batch.hh"

#include <utility>

#include "common/logging.hh"
#include "runtime/core.hh"
#include "trace/trace.hh"

namespace dmx::runtime
{

Tick
BatchEvent::completeTime() const
{
    if (!_state)
        dmx_fatal("BatchEvent::completeTime on an invalid "
                  "(default-constructed) event");
    if (_state->status == Status::Pending)
        dmx_fatal("BatchEvent::completeTime on a pending batch; "
                  "finish() first");
    return _state->at;
}

const std::vector<BatchRecord> &
BatchEvent::records() const
{
    if (!_state)
        dmx_fatal("BatchEvent::records on an invalid "
                  "(default-constructed) event");
    return _state->records;
}

namespace detail
{

/**
 * The batch's completion delivery: one Batch per submitBatch call,
 * kept alive by the member callbacks scheduled against it. Members run
 * as core Commands or Chains whose settles route here; the batch owns
 * the shared doorbell flag and delivers completions - coalesced
 * notifications or record polls - across them.
 */
struct Core::Batch : std::enable_shared_from_this<Batch>
{
    Context *ctx = nullptr;
    BatchOptions opts;
    std::shared_ptr<BatchState> state;
    /// The batch's shared doorbell: false until the first fabric
    /// submission of any member rings it (full dma_setup); every later
    /// submission is an engine descriptor fetch.
    std::shared_ptr<bool> programmed = std::make_shared<bool>(false);
    std::size_t n = 0;
    std::size_t settled_count = 0; ///< members device-settled
    std::size_t fired = 0;         ///< member events fired
    /// Ok members awaiting the window's coalesced notification.
    std::vector<std::size_t> window;
    Status first_err = Status::Ok;
    /// Per-member chain states (null unless Kind::Chain).
    std::vector<std::shared_ptr<ChainState>> chains;

    Platform &plat() { return ctx->platform(); }

    std::size_t
    windowSize() const
    {
        return opts.coalesce_threshold
                   ? static_cast<std::size_t>(opts.coalesce_threshold)
                   : n;
    }

    /** Fire member @p i's event at @p at (its completion reached the
     *  host behind a notification or poll). */
    void
    fireAt(std::size_t i, Status st, Tick at)
    {
        auto self = shared_from_this();
        plat()._eq.schedule(at, [self, i, st, at] {
            fire(*self->state->members[i], st, at);
            ++self->fired;
            self->maybeFinish();
        });
    }

    /** Fire member @p i's event immediately (no notification). */
    void
    fireNow(std::size_t i, Status st)
    {
        fire(*state->members[i], st, plat().now());
        ++fired;
        maybeFinish();
    }

    void
    maybeFinish()
    {
        if (fired < n || state->status != Status::Pending)
            return;
        state->status = first_err;
        state->at = plat().now();
    }

    /** Pay ONE coalesced notification for the queued Ok members. */
    void
    flushWindow()
    {
        Platform &p = plat();
        const auto notif =
            p._irq->notifyBatch(static_cast<unsigned>(window.size()));
        ++state->notifications;
        if (auto *tb = trace::active()) {
            tb->instant(trace::Category::Driver,
                        notif.delivered ? "batch_irq" : "batch_irq_lost",
                        "runtime.irq", p.now(),
                        static_cast<std::uint64_t>(window.size()));
            if (window.size() > 1)
                tb->count("driver.suppressed_notifications", p.now(),
                          static_cast<double>(window.size() - 1));
        }
        const Tick at = p.now() + notif.latency;
        for (const std::size_t i : window)
            fireAt(i, Status::Ok, at);
        window.clear();
    }

    /** A member's device work settled (Ok or terminal error). */
    void
    memberSettled(std::size_t i, Status st)
    {
        Platform &p = plat();
        BatchRecord &rec = state->records[i];
        rec.status = st;
        rec.at = p.now();
        if (chains[i]) {
            rec.retries = chains[i]->retries;
            rec.chain_failed_index = chains[i]->failed_index;
        } else {
            rec.retries = state->members[i]->retries;
            rec.degraded = state->members[i]->degraded;
        }
        ++settled_count;
        if (st != Status::Ok) {
            // Errors keep the per-command engine's delivery: the member
            // event fires at device-settle time with no notification,
            // so a failing member neither delays nor poisons its
            // siblings.
            if (first_err == Status::Ok)
                first_err = st;
            fireNow(i, st);
        } else if (!p._plan) {
            // Fault-free platforms keep the seed's immediate host
            // visibility (parity with the per-command delivery).
            fireNow(i, Status::Ok);
        } else if (opts.completion == BatchOptions::CompletionMode::Poll) {
            // Completion-record polling: no interrupt, the host
            // discovers the record at the poll detection latency.
            const auto notif = p._irq->pollRecord();
            if (auto *tb = trace::active())
                tb->instant(trace::Category::Driver, "record_poll",
                            "runtime.irq", p.now());
            fireAt(i, Status::Ok, p.now() + notif.latency);
        } else {
            window.push_back(i);
            if (window.size() >= windowSize())
                flushWindow();
        }
        // The tail window (shrunk by failed members) flushes when the
        // last member settles, so no completion ever waits on a window
        // that cannot fill.
        if (settled_count == n && !window.empty())
            flushWindow();
    }
};

} // namespace detail

Event
BatchEvent::member(std::size_t i) const
{
    if (!_state)
        dmx_fatal("BatchEvent::member on an invalid "
                  "(default-constructed) event");
    if (i >= _state->members.size())
        dmx_fatal("BatchEvent::member: index %zu out of %zu", i,
                  _state->members.size());
    Event ev;
    ev._state = _state->members[i];
    return ev;
}

BatchEvent
submitBatch(Context &ctx, const std::vector<BatchOp> &ops,
            const BatchOptions &opts)
{
    using detail::Core;
    Platform &p = ctx.platform();
    BatchEvent ev;
    ev._state = std::make_shared<detail::BatchState>();
    ev._state->records.resize(ops.size());
    ev._state->members.reserve(ops.size());
    for (std::size_t i = 0; i < ops.size(); ++i)
        ev._state->members.push_back(std::make_shared<Event::State>());
    if (ops.empty()) {
        ev._state->status = Status::Ok;
        ev._state->at = p.now();
        return ev;
    }

    // A non-Chain member is a one-element chain: its descriptor (the
    // first three kinds match ChainOp's value for value) validated and
    // planned up front, so retries reinstall instead of recompiling.
    static_assert(static_cast<int>(BatchOp::Kind::Restructure) ==
                  static_cast<int>(ChainOp::Kind::Restructure));
    std::vector<ChainOp> descs(ops.size());
    std::vector<Core::Plans> plans(ops.size());
    for (std::size_t i = 0; i < ops.size(); ++i) {
        const BatchOp &op = ops[i];
        if (op.ctx && &op.ctx->platform() != &p)
            dmx_fatal("submitBatch: member %zu's context belongs to "
                      "another platform", i);
        if (op.kind == BatchOp::Kind::Chain)
            continue; // validated when its chain launches
        descs[i] = {static_cast<ChainOp::Kind>(op.kind), op.device,
                    op.dst_device, op.in, op.out, op.kernels};
        if (const char *why = Core::invalid(p, descs[i]))
            dmx_fatal("submitBatch: member %zu %s", i, why);
        plans[i] = Core::plan(p, descs[i]);
    }

    auto b = std::make_shared<Core::Batch>();
    b->ctx = &ctx;
    b->opts = opts;
    b->state = ev._state;
    b->n = ops.size();
    b->chains.resize(ops.size());
    if (auto *tb = trace::active()) {
        tb->instant(trace::Category::Command, "batch_submit",
                    "runtime.batch", p.now(),
                    static_cast<std::uint64_t>(ops.size()));
    }
    const Core::Doorbell bell{b->programmed, true};
    for (std::size_t i = 0; i < ops.size(); ++i) {
        Context &mctx = ops[i].ctx ? *ops[i].ctx : ctx;
        auto settled = [b, i](Status st) { b->memberSettled(i, st); };
        if (ops[i].kind == BatchOp::Kind::Chain) {
            b->chains[i] = std::make_shared<detail::ChainState>();
            Core::launchChain(mctx, b->chains[i], ops[i].chain, opts.chain,
                              bell, std::move(settled));
        } else {
            Core::launchCommand(mctx, std::move(descs[i]),
                                std::move(plans[i]), bell,
                                ev._state->members[i], std::move(settled),
                                nullptr);
        }
    }
    return ev;
}

} // namespace dmx::runtime
