#include "runtime/chain.hh"

#include <utility>

#include "common/logging.hh"
#include "integrity/checksum.hh"
#include "runtime/core.hh"
#include "trace/trace.hh"

namespace dmx::runtime
{

Tick
ChainEvent::completeTime() const
{
    if (!_state)
        dmx_fatal("ChainEvent::completeTime on an invalid "
                  "(default-constructed) event");
    if (_state->status == Status::Pending)
        dmx_fatal("ChainEvent::completeTime on a pending chain; "
                  "finish() first");
    return _state->at;
}

const std::vector<DescriptorRecord> &
ChainEvent::records() const
{
    if (!_state)
        dmx_fatal("ChainEvent::records on an invalid "
                  "(default-constructed) event");
    return _state->records;
}

namespace detail
{

/**
 * The per-chain-watchdog runner: one Chain per submission, kept alive
 * by the callbacks scheduled against it. Descriptor i+1 starts when i
 * settles Ok; each descriptor retries under the core's retry rule, and
 * one watchdog covers them all.
 */
struct Core::Chain : std::enable_shared_from_this<Chain>
{
    Context *ctx = nullptr;
    std::vector<ChainOp> ops;
    std::vector<Plans> plans; ///< per descriptor (Restructure only)
    ChainOptions opts;
    Doorbell bell;
    std::shared_ptr<ChainState> state;
    SettleFn settled;
    sim::EventHandle watchdog;
    Tick deadline_at = 0;   ///< absolute settle-by tick (0 = none)
    std::size_t cursor = 0; ///< descriptor currently in flight
    bool over = false;      ///< settled: late completions are dropped

    Platform &plat() { return ctx->platform(); }

    void
    settle(Status st, int failed_i)
    {
        if (over)
            return;
        over = true;
        watchdog.cancel();
        state->failed_index = failed_i;
        settled(st);
    }

    /** Settle the chain non-Ok at descriptor @p i. */
    void
    fail(std::size_t i, Status st)
    {
        Platform &p = plat();
        DescriptorRecord &rec = state->records[i];
        if (rec.status == Status::Pending) {
            rec.status = st;
            rec.at = p.now();
        }
        ++p._devices[ops[i].device].fstats.commands_failed;
        settle(st, static_cast<int>(i));
    }

    void
    opDone(std::size_t i, unsigned n, bool ok)
    {
        if (over)
            return;
        Platform &p = plat();
        auto self = shared_from_this();
        if (ok) {
            attemptOk(p, ops[i].device);
            state->records[i].status = Status::Ok;
            state->records[i].at = p.now();
            if (i + 1 < ops.size())
                p._eq.scheduleIn(0, [self, i] { self->runOp(i + 1, 0); });
            else
                settle(Status::Ok, -1);
            return;
        }
        // Deadline-budgeted retries clip against the chain-wide
        // deadline, not a per-descriptor one.
        const Retry r =
            retryRule(*ctx, ops[i].device, n, Status::Failed, deadline_at);
        if (r.settle != Status::Pending) {
            fail(i, r.settle);
            return;
        }
        ++state->retries;
        p._eq.scheduleIn(r.delay, [self, i, n] { self->runOp(i, n + 1); });
    }

    /**
     * Engine-level hop CRC: generate over the intact producer buffer
     * plus verify over the delivered copy, charged back-to-back before
     * the outcome lands. A mismatch fails this attempt; the retry
     * re-DMAs from the intact source.
     */
    void
    verifyHop(std::size_t i, unsigned n)
    {
        const auto sz = static_cast<double>(ctx->read(ops[i].out).size());
        const Tick cost = secondsToTicks(2.0 * sz / opts.crc_bytes_per_sec);
        auto self = shared_from_this();
        plat()._eq.scheduleIn(cost, [self, i, n] {
            if (self->over)
                return;
            const ChainOp &o = self->ops[i];
            const bool match = integrity::crc32(self->ctx->read(o.in)) ==
                               integrity::crc32(self->ctx->read(o.out));
            if (!match) {
                ++self->state->records[i].crc_mismatches;
                if (auto *tb = trace::active())
                    tb->count("integrity.chain_crc_mismatches",
                              self->plat().now());
            }
            self->opDone(i, n, match);
        });
    }

    void
    runOp(std::size_t i, unsigned n)
    {
        if (over)
            return; // the chain watchdog already fired
        cursor = i;
        ++state->records[i].attempts;
        auto self = shared_from_this();
        attempt(*ctx, ops[i], plans[i], bell, &over,
                [self, i, n](bool ok) {
                    if (ok && self->opts.hop_crc &&
                        self->ops[i].kind == ChainOp::Kind::Copy)
                        self->verifyHop(i, n);
                    else
                        self->opDone(i, n, ok);
                });
    }
};

void
Core::launchChain(Context &ctx, std::shared_ptr<ChainState> st,
                  const std::vector<ChainOp> &ops, const ChainOptions &opts,
                  Doorbell bell, SettleFn settled)
{
    Platform &p = ctx.platform();
    st->records.resize(ops.size());
    if (ops.empty()) {
        settled(Status::Ok);
        return;
    }
    for (std::size_t i = 0; i < ops.size(); ++i)
        if (const char *why = invalid(p, ops[i]))
            dmx_fatal("enqueueChain: op %zu %s", i, why);

    auto run = std::make_shared<Chain>();
    run->ctx = &ctx;
    run->ops = ops;
    run->opts = opts;
    run->bell = std::move(bell);
    run->state = st;
    run->settled = std::move(settled);
    run->plans.reserve(ops.size());
    for (const ChainOp &op : ops)
        run->plans.push_back(plan(p, op));

    // ONE watchdog armed over the whole chain: the per-command timeout
    // scaled by the descriptor count, clipped ONCE by the remaining
    // deadline budget - a chained submission must not re-clip per hop
    // (that would multiply the deadline by the chain length).
    const CommandPolicy &pol = p._policy;
    Tick budget =
        pol.timeout ? pol.timeout * static_cast<Tick>(ops.size()) : 0;
    if (pol.deadline) {
        run->deadline_at = p.now() + pol.deadline;
        if (budget == 0 || pol.deadline < budget) {
            budget = pol.deadline;
            st->deadline_clipped = true;
        }
    }
    if (budget > 0) {
        run->watchdog = p._eq.scheduleIn(budget, [run] {
            if (run->over)
                return;
            Platform &plat = run->plat();
            ++plat._devices[run->ops[run->cursor].device].fstats.timeouts;
            if (auto *tb = trace::active())
                tb->count("runtime.timeouts", plat.now());
            run->fail(run->cursor, Status::TimedOut);
        });
    }

    p._eq.scheduleIn(0, [run] { run->runOp(0, 0); });
}

} // namespace detail

ChainEvent
enqueueChain(Context &ctx, const std::vector<ChainOp> &ops,
             const ChainOptions &opts)
{
    // A standalone chain rings the doorbell with its first copy and
    // marks the engine programmed once that copy delivers; it hears
    // back once, through the same per-submission notification an
    // enqueued command pays. An empty chain completes at submission.
    using detail::Core;
    Platform &p = ctx.platform();
    ChainEvent ev;
    ev._state = std::make_shared<detail::ChainState>();
    if (ops.empty()) {
        Core::fire(*ev._state, Status::Ok, p.now());
        return ev;
    }
    Core::launchChain(ctx, ev._state, ops, opts,
                      {std::make_shared<bool>(false), false},
                      Core::toHost(p, ev._state));
    return ev;
}

} // namespace dmx::runtime
