/**
 * @file
 * Descriptor-chained command submission (DESIGN.md 7g).
 *
 * The legacy way to run a multi-hop pipeline is one enqueue per hop
 * with a finish() in between: every command pays a full DMA-engine
 * setup, its own watchdog, and a driver notify/settle round trip back
 * to the host. enqueueChain() instead submits the whole pipeline as
 * one linked-list of descriptors, the way STM32 MDMA / XDMA engines
 * chain transfers: the host rings one doorbell, the engine walks the
 * chain autonomously (each follow-on descriptor costs a descriptor
 * fetch, not a doorbell), and the host hears back once, when the last
 * descriptor settles.
 *
 * The descriptors run through the same core as individually enqueued
 * commands (runtime/core.hh): the same device work with its fault and
 * integrity hooks, planning, and retry rule (health/breaker feedback,
 * backoff, deadline, retry veto). Three things differ by submission
 * kind:
 *  - watchdog scope: ONE watchdog covers the whole chain (ops x
 *    per-command timeout), and CommandPolicy::deadline clips that
 *    budget once for the whole chain - never per hop;
 *  - who pays dma_setup: Copy legs ring the doorbell until the
 *    chain's first copy delivers, and every later leg is a descriptor
 *    fetch, as is a rerouted copy's second leg;
 *  - completion delivery: one driver notification per chain (with a
 *    fault plan installed), plus a per-descriptor completion record
 *    (status, settle tick, attempts) so callers can resume from the
 *    failed hop.
 * A chain is admitted as one unit: it bypasses per-command admission,
 * the breaker's fast-fail and the CPU fallback.
 *
 * Default-off: a platform that never calls enqueueChain behaves
 * byte-identically to one without it.
 */

#ifndef DMX_RUNTIME_CHAIN_HH
#define DMX_RUNTIME_CHAIN_HH

#include <cstdint>
#include <memory>
#include <vector>

#include "restructure/ir.hh"
#include "runtime/runtime.hh"

namespace dmx::runtime
{

/** One descriptor of a chain: a copy, a kernel, or a DRX pipeline. */
struct ChainOp
{
    enum class Kind : std::uint8_t
    {
        Copy,        ///< DMA in -> out, device -> dst_device
        Kernel,      ///< accelerator kernel on `device`: out = fn(in)
        Restructure, ///< DRX pipeline on `device`: kernels applied
                     ///< in order
    };

    Kind kind = Kind::Copy;
    DeviceId device = 0;     ///< executing device (Copy: the source)
    DeviceId dst_device = 0; ///< Copy only: destination device
    BufferId in = 0;
    BufferId out = 0;
    /// Restructure only: the restructuring pipeline. Each kernel's
    /// cached plan runs back to back on the DRX in one attempt, and
    /// the descriptor settles once, after the last.
    std::vector<restructure::Kernel> kernels;
};

/** Per-chain execution knobs. */
struct ChainOptions
{
    /// Engine-level hop CRC: generate at the producer and verify at
    /// the consumer of every Copy descriptor (charged in simulated
    /// time at crc_bytes_per_sec); a mismatch fails the attempt and
    /// retries the hop from the intact source buffer.
    bool hop_crc = false;
    double crc_bytes_per_sec = 20e9;
};

/** Per-descriptor completion record. */
struct DescriptorRecord
{
    Status status = Status::Pending; ///< Pending = never attempted
    Tick at = 0;                     ///< settle tick (when settled)
    unsigned attempts = 0;           ///< attempts launched
    unsigned crc_mismatches = 0;     ///< hop-CRC failures detected
};

namespace detail
{

/** Shared completion state of one chain submission (retries count
 *  attempts across all descriptors). */
struct ChainState : Event::State
{
    int failed_index = -1; ///< descriptor that settled the chain non-Ok
    bool deadline_clipped = false; ///< deadline < chain watchdog budget
    std::vector<DescriptorRecord> records;
};

} // namespace detail

/** Completion handle of a chain submission (cheap to copy). */
class ChainEvent
{
  public:
    ChainEvent() = default;

    bool valid() const { return _state != nullptr; }

    bool complete() const
    {
        return _state && _state->status != Status::Pending;
    }

    Status status() const
    {
        return _state ? _state->status : Status::Pending;
    }

    bool ok() const { return status() == Status::Ok; }

    /**
     * @return simulated settle time. Fatal when invalid or pending,
     * matching Event::completeTime.
     */
    Tick completeTime() const;

    /** @return retry attempts consumed across all descriptors. */
    unsigned retries() const { return _state ? _state->retries : 0; }

    /** @return index of the descriptor that failed the chain, or -1. */
    int failedIndex() const
    {
        return _state ? _state->failed_index : -1;
    }

    /** @return true when the deadline clipped the chain watchdog. */
    bool deadlineClipped() const
    {
        return _state && _state->deadline_clipped;
    }

    /** @return per-descriptor completion records. Fatal when invalid. */
    const std::vector<DescriptorRecord> &records() const;

  private:
    friend ChainEvent enqueueChain(Context &, const std::vector<ChainOp> &,
                                   const ChainOptions &);
    std::shared_ptr<detail::ChainState> _state;
};

/**
 * Submit @p ops as one descriptor chain on @p ctx. Non-blocking:
 * drive the platform (ctx.finish()) and inspect the returned event.
 * Descriptors execute strictly in order; descriptor i+1 starts when i
 * settles Ok, the first non-Ok descriptor settles the whole chain
 * with its status. The first Copy descriptor pays the full DMA setup;
 * every later Copy only a descriptor fetch (pcie::FabricParams::
 * desc_fetch_latency).
 *
 * The chain is admitted as one unit: it bypasses per-command
 * admission control and the in-order queue tails (it owns its own
 * ordering), so it composes with - but does not consume slots from -
 * individually enqueued commands.
 */
ChainEvent enqueueChain(Context &ctx, const std::vector<ChainOp> &ops,
                        const ChainOptions &opts = {});

} // namespace dmx::runtime

#endif // DMX_RUNTIME_CHAIN_HH
