/**
 * @file
 * The descriptor core of runtime submission (internal header; include
 * it only from src/runtime). DESIGN.md 7g and 7j describe the contract.
 *
 * Every submission runs ChainOp descriptors: enqueueCopy / Kernel /
 * Restructure build one, enqueueChain takes a list, and a non-Chain
 * submitBatch member becomes a one-element list. The core writes each
 * piece of their execution once: the validator, the planner, one
 * attempt function per descriptor kind, the CPU fallback, the
 * admission gate and the retry rule. Its two runners set the watchdog
 * scope: a Command runs one descriptor under a watchdog per attempt
 * (with the per-command admission, breaker fast-fail and CPU
 * fallback), a Chain runs a descriptor list under one watchdog,
 * clipped once by the deadline. The caller hands in the two other
 * things that differ by submission kind - who pays dma_setup (a
 * Doorbell) and how the terminal status reaches the host (a SettleFn)
 * - and the core never asks which caller it serves.
 */

#ifndef DMX_RUNTIME_CORE_HH
#define DMX_RUNTIME_CORE_HH

#include <functional>
#include <memory>
#include <vector>

#include "drx/compiler.hh"
#include "runtime/chain.hh"

namespace dmx::runtime::detail
{

struct Core
{
    /** Reports one attempt's outcome (exactly once, or never). */
    using AttemptResult = std::function<void(bool ok)>;

    /** Receives a submission's terminal status at device-settle time. */
    using SettleFn = std::function<void(Status)>;

    /** Compiled plans of a Restructure descriptor, one per kernel, run
     *  back to back in one attempt (empty for the other kinds). */
    using Plans = std::vector<std::shared_ptr<const drx::CompiledKernel>>;

    /**
     * Who pays dma_setup for a Copy descriptor. With no flag every
     * fabric leg rings its own doorbell (enqueueCopy). With a flag, a
     * leg that finds it clear rings the doorbell and every other leg -
     * a reroute's second leg included - is a descriptor fetch. A
     * delivered copy sets the flag (a standalone chain); a batch also
     * claims it when the attempt submits, so members launched together
     * never ring twice.
     */
    struct Doorbell
    {
        std::shared_ptr<bool> programmed;
        bool claim_at_submit = false;
    };

    /** The retry rule's verdict on a failed attempt. */
    struct Retry
    {
        Status settle = Status::Pending; ///< Pending: retry after delay
        Tick delay = 0;
    };

    /** @return why @p op cannot run on @p p, or nullptr when it can. */
    static const char *invalid(const Platform &p, const ChainOp &op);

    /** Plan a Restructure descriptor's kernels through the platform's
     *  compiled-kernel cache. */
    static Plans plan(Platform &p, const ChainOp &op);

    /**
     * Launch one attempt of @p op's device work (counted on its
     * device). A successful attempt lands its output bytes before
     * reporting; a completion that arrives once *@p over is set - its
     * attempt's or its chain's watchdog fired - is dropped before it
     * touches a buffer.
     */
    static void attempt(Context &ctx, const ChainOp &op, const Plans &plans,
                        const Doorbell &bell, const bool *over,
                        AttemptResult done);

    /** Run a Restructure descriptor's kernels on the host core pool:
     *  byte-identical output, costed like the paper's CPU baseline. */
    static void runOnCpu(Context &ctx, const ChainOp &op,
                         AttemptResult done);

    /** Health and breaker feedback for a successful attempt. */
    static void attemptOk(Platform &p, DeviceId dev);

    /**
     * The retry rule for failed attempt @p n on @p dev: health and
     * breaker feedback, the max_retries budget, jittered exponential
     * backoff, the deadline check (a backoff landing at or past
     * @p deadline_at settles TimedOut) and the platform's retry veto.
     */
    static Retry retryRule(Context &ctx, DeviceId dev, unsigned n,
                           Status reason, Tick deadline_at);

    /** Settle @p st at @p at and run its onSettled waiters. */
    static void fire(Event::State &st, Status status, Tick at);

    /** Run @p fn once @p st settles (at once if it has, or if null). */
    static void whenDone(Event::State *st, std::function<void()> fn);

    /**
     * Completion delivery for one command or one chain: an Ok settle
     * pays a driver notification when a fault plan models interrupts;
     * errors, and every settle on a fault-free platform, reach the
     * host at once.
     */
    static SettleFn toHost(Platform &p, std::shared_ptr<Event::State> st);

    /**
     * Admit and launch a one-descriptor command once @p after settles
     * Ok (null: at once); a failed predecessor cascades Failed into it.
     * @return false when admission shed it (already settled Shed).
     */
    static bool launchCommand(Context &ctx, ChainOp op, Plans plans,
                              Doorbell bell,
                              std::shared_ptr<Event::State> state,
                              SettleFn settled, Event::State *after);

    /** Launch @p st's descriptor chain (validated, planned and under
     *  one watchdog); an empty chain settles Ok at once. */
    static void launchChain(Context &ctx, std::shared_ptr<ChainState> st,
                            const std::vector<ChainOp> &ops,
                            const ChainOptions &opts, Doorbell bell,
                            SettleFn settled);

    struct Command;
    struct Chain;
    struct Batch;
};

} // namespace dmx::runtime::detail

#endif // DMX_RUNTIME_CORE_HH
