/**
 * @file
 * End-to-end protected restructure chains with checkpointed recovery.
 *
 * The paper's central artifact is the multi-hop chain: stage outputs
 * DMA from one accelerator to the next, restructured by DRXs along the
 * way. Every extra hop multiplies the silent-data-corruption exposure,
 * so this runner layers a configurable protection contract on top of
 * the runtime's fail-stop recovery:
 *
 *  - *per-hop checksums* (ProtectionMode::E2eChecksum): a CRC32 is
 *    generated over every stage output and re-verified after each hop,
 *    mirroring the pure-plan split of the DRX compiler - the chain is
 *    pure data (ChainStage vector), and protection slots in as a
 *    transform over stage boundaries rather than a rewrite of stages;
 *  - *mismatch policies*: a failed verification either retransmits the
 *    hop (the producer-side buffer is still intact) or rolls back to
 *    the last verified checkpoint and replays from there;
 *  - *checkpointing + failover*: verified intermediate outputs become
 *    recovery points; a mid-chain device failure or uncorrectable ECC
 *    error re-routes the remaining stages onto alternate placements
 *    (consulting the device health trackers and circuit breakers) and
 *    resumes from the checkpoint instead of replaying the whole chain.
 *
 * Everything is default-off: ProtectionMode::Off with checkpoints
 * disabled is exactly a sequence of enqueueCopy/enqueue{Kernel,
 * Restructure} calls. All decisions are driven by simulated time and
 * the installed (seeded) plans, so runs are deterministic and
 * jobs-invariant under exec::ScenarioRunner.
 */

#ifndef DMX_INTEGRITY_CHAIN_HH
#define DMX_INTEGRITY_CHAIN_HH

#include <cstdint>
#include <vector>

#include "restructure/ir.hh"
#include "runtime/runtime.hh"

namespace dmx::integrity
{

/** End-to-end payload protection applied at stage boundaries. */
enum class ProtectionMode : std::uint8_t
{
    Off,         ///< legacy: no checksums; corruption flows through
    E2eChecksum, ///< CRC32 generated per stage output, verified per hop
};

/** What to do when a hop's checksum verification fails. */
enum class MismatchPolicy : std::uint8_t
{
    HopRetransmit, ///< re-DMA the hop from the intact producer buffer
    RollbackReplay, ///< restore the last verified checkpoint and replay
};

/** How the chain's commands reach the devices. */
enum class ChainMode : std::uint8_t
{
    /// Legacy: one enqueue + finish per hop and per stage; every
    /// command pays its own DMA setup and driver round trip.
    PerHop,
    /// Linked-descriptor submission (runtime::enqueueChain): one
    /// submission drives a whole segment autonomously; hop CRC
    /// verification moves into the engine, checkpoints fall on
    /// descriptor-chain (segment) boundaries, and the host pays one
    /// round trip per segment.
    Descriptor,
};

/** @return human name, e.g. "e2e-checksum". */
const char *toString(ProtectionMode m);
const char *toString(MismatchPolicy p);
const char *toString(ChainMode m);

/**
 * One chain stage: a device plus (for DRX devices) the restructuring
 * kernel it runs. Accelerator devices run their platform-registered
 * kernel function and ignore the kernel field.
 */
struct ChainStage
{
    runtime::DeviceId device = 0;
    restructure::Kernel kernel;
    /// Failover placements tried in order when the mapped device is
    /// unhealthy / quarantined or a stage command settles non-Ok.
    std::vector<runtime::DeviceId> alternates;
};

/** Protection and recovery knobs of one chain execution. */
struct ChainConfig
{
    ProtectionMode protection = ProtectionMode::Off;
    MismatchPolicy policy = MismatchPolicy::HopRetransmit;

    /// Record verified stage outputs as recovery points. When off,
    /// every rollback and failover replays the chain from its input.
    bool checkpoints = false;

    /// Total recovery-action budget (hop retransmits + rollbacks +
    /// failovers) before the chain gives up; bounds termination under
    /// pathological corruption rates.
    unsigned max_recoveries = 32;

    /// Modeled host-side checksum throughput: generation and
    /// verification each charge bytes / rate of simulated time.
    double checksum_bytes_per_sec = 20e9;

    /// Submission mode. Default PerHop is the legacy path, byte- and
    /// tick-identical to before ChainMode existed.
    ChainMode mode = ChainMode::PerHop;

    /// Descriptor mode only: run adjacent same-device DRX stages as
    /// one Restructure descriptor, whose kernels' plans run back to
    /// back in one attempt. A fused group retries as a whole and
    /// counts once toward the chain watchdog's descriptor budget.
    bool fuse = false;

    /// Descriptor mode only: stages per descriptor-chain segment
    /// (checkpoint/recovery boundary). 0 = the whole chain is one
    /// segment.
    unsigned segment_stages = 0;
};

/** Outcome and recovery accounting of one chain execution. */
struct ChainReport
{
    runtime::Bytes output;    ///< final bytes (empty when !ok)
    bool ok = false;
    runtime::Status status = runtime::Status::Pending;
    Tick makespan = 0;        ///< simulated ticks start to settle

    unsigned stages_run = 0;          ///< stage executions incl. replays
    unsigned hops_run = 0;            ///< DMA hops incl. retransmits
    unsigned mismatches_detected = 0; ///< e2e checksum failures caught
    unsigned hop_retransmits = 0;
    unsigned rollbacks = 0;
    unsigned failovers = 0;
    unsigned checkpoints_taken = 0;
    /// Host/driver round trips paid: one per command in PerHop mode,
    /// one per descriptor-chain segment in Descriptor mode.
    unsigned round_trips = 0;
    unsigned descriptor_chains = 0; ///< enqueueChain submissions made
    /// Stages grouped into another stage's Restructure descriptor:
    /// each attempted group of k stages contributes k-1 (0 in PerHop
    /// mode or with fusion off).
    unsigned fused_stages = 0;

    /** @return recovery actions consumed (vs max_recoveries). */
    unsigned
    recoveries() const
    {
        return hop_retransmits + rollbacks + failovers;
    }
};

/**
 * Execute @p stages over @p input on @p plat.
 *
 * Synchronous: drives the platform's event queue to completion after
 * every hop and stage, so verification and recovery decisions happen
 * at well-defined simulated times. Stage i's input reaches its device
 * via an enqueueCopy hop from stage i-1's device (skipped when both
 * stages map to the same device); stage 0 consumes the input where it
 * already resides.
 */
ChainReport runChain(runtime::Platform &plat,
                     const std::vector<ChainStage> &stages,
                     const runtime::Bytes &input,
                     const ChainConfig &cfg = {});

} // namespace dmx::integrity

#endif // DMX_INTEGRITY_CHAIN_HH
