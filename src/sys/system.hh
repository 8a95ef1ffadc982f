/**
 * @file
 * The multi-accelerator system simulator.
 *
 * Composes the PCIe fabric, host core pool, accelerator units, DRX
 * units and the driver notification model into one closed-loop
 * simulation: n_apps applications each execute requests through their
 * kernel pipeline with the data-motion strategy of the configured
 * placement:
 *
 *  - AllCpu:         kernels and restructuring on the host cores;
 *  - MultiAxl:       kernels on accelerators, data staged through the
 *                    host, restructuring on the host cores (the
 *                    paper's baseline);
 *  - IntegratedDrx:  like MultiAxl but restructuring on one DRX at the
 *                    CPU (Figure 4(a));
 *  - StandaloneDrx:  DRX PCIe cards shared by pairs of applications,
 *                    peer-to-peer DMA under the switch (Figure 4(b));
 *  - BumpInTheWire:  one DRX in front of every accelerator; local DMA
 *                    into the DRX, p2p DMA out through the switch
 *                    (Figure 4(d));
 *  - PcieIntegrated: restructuring at line rate inside the switch
 *                    (Figure 4(c)).
 */

#ifndef DMX_SYS_SYSTEM_HH
#define DMX_SYS_SYSTEM_HH

#include <memory>
#include <string>
#include <vector>

#include "accel/accelerator.hh"
#include "cpu/core_pool.hh"
#include "driver/interrupts.hh"
#include "driver/queues.hh"
#include "drx/machine.hh"
#include "fault/fault.hh"
#include "integrity/integrity.hh"
#include "pcie/fabric.hh"
#include "robust/robust.hh"
#include "sys/app_model.hh"
#include "sys/energy.hh"

namespace dmx::sys
{

/** DRX placement alternatives (paper Sec. III) plus the two baselines. */
enum class Placement
{
    AllCpu,
    MultiAxl,
    IntegratedDrx,
    StandaloneDrx,
    BumpInTheWire,
    PcieIntegrated,
};

/** @return human name, e.g. "bump-in-the-wire". */
std::string toString(Placement p);

/** How the closed loop drives a request's multi-hop chain. */
enum class ChainSubmission : std::uint8_t
{
    /// Legacy: a driver notify/doorbell round trip between every
    /// pipeline step (kernel -> motion, restructure -> next hop).
    PerHop,
    /// Linked-descriptor chaining: the host programs the whole chain
    /// up front; between steps the engine fetches the next descriptor
    /// (pcie::FabricParams::desc_fetch_latency) instead of
    /// interrupting the host. Only the final completion still
    /// notifies.
    Descriptor,
};

/** @return human name, e.g. "descriptor". */
std::string toString(ChainSubmission c);

/** Full system configuration. */
struct SystemConfig
{
    Placement placement = Placement::BumpInTheWire;
    unsigned n_apps = 1;
    /// PCIe generation. It also sets the upstream (switch-to-CPU)
    /// width: Gen3 CPUs expose x8 uplinks, Gen4/Gen5 CPUs provide
    /// enough lanes for x16 uplinks (the paper's Fig. 19 discussion).
    pcie::Generation gen = pcie::Generation::Gen3;
    drx::DrxConfig drx;              ///< DRX hardware configuration
    cpu::HostParams host;
    driver::InterruptParams irq;
    unsigned requests_per_app = 3;   ///< closed-loop requests simulated
    /// Optional fault plan (not owned; must outlive the run). Flow
    /// faults are recovered by link-level retransmission - the closed
    /// loop has no per-command watchdog, so a stalled TLP is detected
    /// and replayed like a corrupted one - and dropped completion
    /// interrupts cost the driver's recovery-poll latency.
    fault::FaultPlan *fault_plan = nullptr;
    /// Optional corruption plan (not owned; must outlive the run). The
    /// closed loop is statistical - it moves no real payload bytes and
    /// replays pre-timed DRX cycles - so only the *link CRC* site is
    /// exercised here (each hit delays the flow by a deterministic
    /// replay). Payload flips and scratchpad ECC live in the functional
    /// runtime (runtime::Platform::setIntegrityPlan) and the chain
    /// runner (integrity::runChain).
    integrity::IntegrityPlan *integrity_plan = nullptr;
    /// Overload protection (backpressure / admission / deadline); all
    /// default-off, preserving byte-identical legacy behaviour.
    robust::RobustConfig robust;
    /// Optional per-app admission priorities (0 = highest); apps past
    /// the end of the vector default to priority 0.
    std::vector<unsigned> priorities;
    /// Chain submission mode. Default PerHop is byte- and tick-
    /// identical to the pre-chaining closed loop.
    ChainSubmission chain = ChainSubmission::PerHop;
    /// Batched submission window (DESIGN.md 7j), per app: each app
    /// rings one full doorbell per `batch` flow submissions (the rest
    /// are engine descriptor fetches) and takes one completion
    /// interrupt per `batch` pipeline steps (the suppressed steps are
    /// discovered by completion-record polls at polling_latency).
    /// Default 1 is byte- and tick-identical to the unbatched loop.
    unsigned batch = 1;
};

/** Per-request time split (averaged), in milliseconds. */
struct PhaseBreakdown
{
    double kernel_ms = 0;
    double restructure_ms = 0;
    double movement_ms = 0;

    double
    total() const
    {
        return kernel_ms + restructure_ms + movement_ms;
    }
};

/** Results of one system simulation. */
struct RunStats
{
    double avg_latency_ms = 0;        ///< mean end-to-end request latency
    PhaseBreakdown breakdown;         ///< mean per-request split
    double avg_throughput_rps = 0;    ///< per-app pipeline throughput
    double bottleneck_stage_ms = 0;   ///< slowest pipeline stage
    double makespan_ms = 0;
    EnergyReport energy;
    std::uint64_t interrupts = 0;
    std::uint64_t polls = 0;
    std::uint64_t pcie_bytes = 0;
    std::uint64_t flow_retries = 0;   ///< link-level retransmissions
    std::uint64_t dropped_irqs = 0;   ///< notifications recovered by poll

    /// Exact integer-tick phase totals summed over every request of
    /// every application (the ms breakdown above is these, averaged).
    /// With tracing enabled they equal the trace's per-category span
    /// totals tick for tick.
    Tick kernel_ticks = 0;
    Tick restructure_ticks = 0;
    Tick movement_ticks = 0;
    Tick makespan_ticks = 0;

    /// Mean request latency of each application instance (size n_apps);
    /// avg_latency_ms is the mean of these. The multi-tenant stress
    /// mode reads per-tenant service quality out of this.
    std::vector<double> per_app_latency_ms;

    /// p99 (nearest-rank) request latency per application instance,
    /// over that app's *completed* requests.
    std::vector<double> per_app_p99_latency_ms;

    /// Requests shed by admission control, per app and in total. A
    /// shed request terminates immediately (observed like a timeout)
    /// and the closed loop re-issues after the configured shed_retry.
    std::vector<std::uint64_t> per_app_shed;
    std::uint64_t shed_requests = 0;

    /// Completed requests whose latency exceeded robust.deadline.
    std::vector<std::uint64_t> per_app_deadline_misses;
    std::uint64_t deadline_misses = 0;

    /// DataQueue pushes rejected for lack of space (per-queue detail
    /// lands in the fault plan's stats / trace).
    std::uint64_t queue_overflows = 0;

    /// Credit-gate producer stalls and total stalled simulated ticks
    /// (zero unless robust.backpressure is enabled).
    std::uint64_t backpressure_stalls = 0;
    Tick backpressure_stall_ticks = 0;

    /// Peak concurrently in-flight fabric flows (overload depth).
    std::uint64_t peak_active_flows = 0;

    /// DRX compiled-kernel cache activity attributed to this run:
    /// deltas of the calling thread's drx::ProgramCache::process()
    /// counters across the simulation. The closed loops replay
    /// pre-timed drx_cycles, so these are 0 for them by construction
    /// (the cache works at AppModel build time; those totals live in
    /// drx::ProgramCache::globalCounters()); any future engine that
    /// interprets DRX programs inside the loop reports here.
    std::uint64_t drx_cache_hits = 0;
    std::uint64_t drx_cache_misses = 0;

    /// Data-integrity taxonomy (deltas of the installed integrity
    /// plan's counters across this run; all 0 without a plan):
    /// injected = every corruption event the plan fired; detected =
    /// events a hardware checker saw (scratch ECC, link CRC); corrected
    /// = detected events transparently fixed in place (SEC scrubs, link
    /// replays); uncorrected = detected but fatal to their operation;
    /// sdc_escapes = silent payload flips no layer in this run could
    /// see (only an end-to-end checksum catches those).
    std::uint64_t integrity_injected = 0;
    std::uint64_t integrity_detected = 0;
    std::uint64_t integrity_corrected = 0;
    std::uint64_t integrity_uncorrected = 0;
    std::uint64_t integrity_sdc_escapes = 0;
    std::uint64_t link_crc_replays = 0; ///< fabric CRC replay events

    /// Driver round trips paid between pipeline steps (notify +
    /// doorbell pairs). Under ChainSubmission::Descriptor the
    /// mid-chain trips become engine descriptor fetches instead.
    std::uint64_t driver_round_trips = 0;
    std::uint64_t descriptor_fetches = 0;

    /// Batched submission observability (SystemConfig::batch). With
    /// batch == 1: doorbells counts every full-setup fabric submission
    /// and the other two are 0. With batch > 1: suppressed completion
    /// notifications are replaced by completion-record polls (counted
    /// in `polls`), and coalesced_bursts reports the driver's own
    /// burst coalescing on the interrupts that remain.
    std::uint64_t doorbells = 0;
    std::uint64_t notifications_suppressed = 0;
    std::uint64_t coalesced_bursts = 0;

    /// @return hits / (hits + misses), 0 when idle.
    double
    drxCacheHitRate() const
    {
        const std::uint64_t total = drx_cache_hits + drx_cache_misses;
        return total
                   ? static_cast<double>(drx_cache_hits) / total
                   : 0.0;
    }
};

/**
 * Build and run one system.
 *
 * @param cfg  configuration (placement, scale, PCIe generation, ...)
 * @param apps application models; instance i runs apps[i % apps.size()]
 * @return aggregated latency/throughput/energy statistics
 */
RunStats simulateSystem(const SystemConfig &cfg,
                        const std::vector<AppModel> &apps);

} // namespace dmx::sys

#endif // DMX_SYS_SYSTEM_HH
