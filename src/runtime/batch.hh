/**
 * @file
 * Batched descriptor submission & coalesced completions (DESIGN.md 7j).
 *
 * The legacy submission path pays a full doorbell (pcie dma_setup) per
 * copy and a driver notification per settled command. submitBatch()
 * instead packs N pending commands - copies, kernels, restructures,
 * whole descriptor chains - into one submission the way Intel DSA
 * batches descriptors: the host writes every descriptor, rings ONE
 * doorbell, and completions are delivered coalesced - one driver
 * notification per coalescing window - or discovered by host
 * completion-record polls, never one interrupt per member.
 *
 * A non-Chain member is a one-descriptor command and a Chain member a
 * descriptor chain, both run by the same core as individually enqueued
 * commands and chains (runtime/core.hh): admission control, the
 * watchdog, the retry rule, breaker/health feedback and the CPU
 * fallback apply PER MEMBER, so a batch never widens any budget. Two
 * things differ from individual submission:
 *  - who pays dma_setup: the batch shares one programmed flag, claimed
 *    by its first fabric submission (full dma_setup); every later
 *    member leg, a rerouted second leg included, is a descriptor fetch;
 *  - completion delivery: Ok members ride the coalesced notification
 *    or the record poll; failed members report at device-settle time
 *    with no notification. One member failing never poisons its
 *    siblings: each settles independently and leaves a BatchRecord
 *    (status, settle tick, retries).
 *
 * Default-off: a platform that never calls submitBatch behaves
 * byte-identically to one without it.
 */

#ifndef DMX_RUNTIME_BATCH_HH
#define DMX_RUNTIME_BATCH_HH

#include <cstdint>
#include <memory>
#include <vector>

#include "restructure/ir.hh"
#include "runtime/chain.hh"
#include "runtime/runtime.hh"

namespace dmx::runtime
{

/** One member of a batched submission. */
struct BatchOp
{
    enum class Kind : std::uint8_t
    {
        Copy,        ///< DMA in -> out, device -> dst_device
        Kernel,      ///< accelerator kernel on `device`: out = fn(in)
        Restructure, ///< DRX pipeline on `device`: kernels applied in
                     ///< order
        Chain,       ///< a whole descriptor chain (runtime/chain.hh),
                     ///< sharing the batch's doorbell and notification
    };

    Kind kind = Kind::Copy;
    DeviceId device = 0;     ///< executing device (Copy: the source)
    DeviceId dst_device = 0; ///< Copy only: destination device
    BufferId in = 0;
    BufferId out = 0;
    std::vector<restructure::Kernel> kernels; ///< Restructure only
    std::vector<ChainOp> chain;               ///< Chain only
    /// Per-member context override: buffers, admission priority and
    /// the retry-policy tag come from this context when set (nullptr =
    /// the submitting context), so multi-tenant members keep their own
    /// admission and retry budgets inside a shared batch.
    Context *ctx = nullptr;
};

/** Per-batch completion-delivery knobs. */
struct BatchOptions
{
    enum class CompletionMode : std::uint8_t
    {
        /// One driver notification per coalescing window of member
        /// completions (the DSA batch-interrupt model).
        Coalesced,
        /// No completion interrupts at all: each successful member is
        /// discovered by a host completion-record poll.
        Poll,
    };

    CompletionMode completion = CompletionMode::Coalesced;
    /// Coalescing window in member completions; 0 = the whole batch
    /// settles behind a single notification. A window that cannot
    /// fill (failed members settle outside it) is flushed when the
    /// last member settles.
    unsigned coalesce_threshold = 0;
    /// Options applied to Chain members.
    ChainOptions chain{};
};

/** Per-member completion record (the batch's DescriptorRecords). */
struct BatchRecord
{
    Status status = Status::Pending; ///< Pending = not yet settled
    Tick at = 0;                     ///< device-settle tick
    unsigned retries = 0;            ///< retry attempts consumed
    bool degraded = false;           ///< ran on the CPU fallback
    int chain_failed_index = -1;     ///< Chain members: failed hop
};

namespace detail
{

/** Shared completion state of one batch submission. */
struct BatchState
{
    Status status = Status::Pending; ///< terminal once every member
                                     ///< event fired; the first non-Ok
                                     ///< member's status, else Ok
    Tick at = 0;                     ///< last member-event fire tick
    std::vector<BatchRecord> records;
    /// Per-member event states; fired by the batch after the
    /// coalesced notification (Ok) or at device settle (errors).
    std::vector<std::shared_ptr<Event::State>> members;
    std::uint64_t notifications = 0; ///< coalesced notifications paid
};

} // namespace detail

/** Completion handle of a batch submission (cheap to copy). */
class BatchEvent
{
  public:
    BatchEvent() = default;

    bool valid() const { return _state != nullptr; }

    /** @return true once every member's completion event fired. */
    bool complete() const
    {
        return _state && _state->status != Status::Pending;
    }

    /** @return Ok iff every member settled Ok; else the first non-Ok
     *  member's status; Pending while any member is outstanding. */
    Status status() const
    {
        return _state ? _state->status : Status::Pending;
    }

    bool ok() const { return status() == Status::Ok; }

    /**
     * @return the tick the last member's completion reached the host.
     * Fatal when invalid or pending, matching Event::completeTime.
     */
    Tick completeTime() const;

    /** @return per-member completion records. Fatal when invalid. */
    const std::vector<BatchRecord> &records() const;

    /**
     * @return member @p i's completion event, usable with onSettled
     * like any individually enqueued command's event. Ok members fire
     * when their coalescing window's notification (or record poll)
     * reaches the host; failed members fire at device-settle time.
     */
    Event member(std::size_t i) const;

    /** @return coalesced driver notifications this batch paid. */
    std::uint64_t notifications() const
    {
        return _state ? _state->notifications : 0;
    }

  private:
    friend BatchEvent submitBatch(Context &, const std::vector<BatchOp> &,
                                  const BatchOptions &);
    std::shared_ptr<detail::BatchState> _state;
};

/**
 * Submit @p ops as one batch on @p ctx. Non-blocking: drive the
 * platform (ctx.finish()) and inspect the returned event. Members
 * execute concurrently (a batch owns its own ordering and joins no
 * per-device in-order queue); use a Chain member for ordered stages.
 */
BatchEvent submitBatch(Context &ctx, const std::vector<BatchOp> &ops,
                       const BatchOptions &opts = {});

} // namespace dmx::runtime

#endif // DMX_RUNTIME_BATCH_HH
