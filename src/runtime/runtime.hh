/**
 * @file
 * The DMX host runtime (paper Sec. V): an OpenCL-style programming
 * model with a host program, per-device in-order command queues, and
 * kernels running on accelerators or DRXs.
 *
 * The runtime is fully functional *and* fully timed: enqueued kernels
 * execute their real C++ implementations on real bytes, while the
 * simulated clock advances according to the device latency models and
 * the PCIe fabric. Examples use this API end-to-end; the figure
 * harnesses use the lower-level sys:: simulator for statistical runs.
 *
 * Typical use:
 *   Platform plat;
 *   DeviceId fft  = plat.addAccelerator("fft0", Domain::FFT, fn);
 *   DeviceId drx  = plat.addDrx("drx0", drx_cfg);
 *   Context ctx   = plat.createContext();
 *   BufferId in   = ctx.createBuffer(bytes);
 *   CommandQueue& q = ctx.queue(fft);
 *   Event e = q.enqueueKernel(in, out);          // non-blocking
 *   ctx.finish();                                // drain all queues
 *
 * Every submission - the enqueue* calls here, enqueueChain
 * (runtime/chain.hh) and submitBatch (runtime/batch.hh) - runs
 * descriptors through one internal core (runtime/core.hh) that holds
 * the device work, planning, admission and retry rule. An enqueued
 * command is one descriptor under its own per-attempt watchdog; every
 * copy leg rings a doorbell (pays dma_setup), and each command's
 * completion is its own notification.
 *
 * Reliability model: with a fault::FaultPlan installed
 * (Platform::setFaultPlan), every command runs under a simulated-time
 * watchdog and a retry policy (exponential backoff with jitter, bounded
 * retry budget). Commands that exhaust their budget settle as Failed or
 * TimedOut, and that error cascades down the in-order queue: commands
 * behind a failed one settle Failed without touching the device, so
 * finish() always terminates. A DRX that fails enough consecutive
 * commands is marked unhealthy and its restructuring work transparently
 * degrades to the host CPU (byte-identical output, honestly slower);
 * p2p copies re-route through the root complex while the switch's
 * forwarding path is faulted. With no plan installed none of this
 * machinery is reachable (hooks are null checks), and timing is
 * identical to the fault-free runtime.
 */

#ifndef DMX_RUNTIME_RUNTIME_HH
#define DMX_RUNTIME_RUNTIME_HH

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "accel/accelerator.hh"
#include "common/random.hh"
#include "cpu/core_pool.hh"
#include "cpu/host_model.hh"
#include "driver/interrupts.hh"
#include "drx/cache.hh"
#include "drx/compiler.hh"
#include "drx/machine.hh"
#include "fault/fault.hh"
#include "fault/health.hh"
#include "pcie/fabric.hh"
#include "restructure/ir.hh"
#include "robust/admission.hh"
#include "robust/breaker.hh"
#include "robust/robust.hh"
#include "sim/eventq.hh"

namespace dmx::integrity
{
class IntegrityPlan;
}

namespace dmx::runtime
{

using Bytes = std::vector<std::uint8_t>;

/** Functional kernel body: consumes input bytes, reports its work. */
using KernelFn =
    std::function<Bytes(const Bytes &, kernels::OpCount &)>;

/** Opaque device handle. */
using DeviceId = std::size_t;

/** Opaque buffer handle. */
using BufferId = std::size_t;

/** Terminal status of a command (Pending until it settles). */
enum class Status : std::uint8_t
{
    Pending,  ///< not yet settled (still queued or executing)
    Ok,       ///< completed successfully
    Failed,   ///< device error, retry budget exhausted, or cascaded
    TimedOut, ///< final attempt's watchdog expired, or deadline budget
              ///< exhausted across retries
    Shed,     ///< rejected by admission control or an open circuit
              ///< breaker; terminal, observed exactly like TimedOut
};

/** @return human name, e.g. "timed-out". */
std::string toString(Status s);

/**
 * Per-command reliability policy (meaningful once a fault plan is
 * installed; without one commands cannot fail and never retry).
 */
struct CommandPolicy
{
    /// Watchdog per attempt, in ticks; 0 disables the watchdog.
    /// setFaultPlan() raises 0 to a default so injected stalls and
    /// hangs are always detected rather than wedging finish().
    Tick timeout = 0;
    /// Retry budget: a command makes at most 1 + max_retries attempts.
    unsigned max_retries = 3;
    /// First retry delay; doubles (backoff_mult) per further retry.
    Tick backoff_base = 200 * tick_per_us;
    double backoff_mult = 2.0;
    /// Uniform jitter fraction added on top of the backoff delay
    /// (delay *= 1 + jitter_frac * U[0,1)), decorrelating retries.
    double jitter_frac = 0.25;
    /// End-to-end deadline budget per command, in ticks; 0 disables it.
    /// Watchdogs, retries and backoff all draw down this one budget
    /// (watchdogs are clipped to the remaining budget, and a retry
    /// whose backoff would land past the deadline settles TimedOut
    /// immediately), so a command never spends longer than
    /// submit + deadline across all recovery attempts.
    Tick deadline = 0;
};

namespace detail
{
struct Core;
}

struct ChainOp;

/** Completion state shared with the host program. */
class Event
{
  public:
    Event() = default;

    /** @return true for events returned by an enqueue (default-
     *  constructed events are invalid placeholders). */
    bool valid() const { return _state != nullptr; }

    /** @return true once the command settled (in simulated time). */
    bool complete() const
    {
        return _state && _state->status != Status::Pending;
    }

    /** @return terminal status; Pending while incomplete or invalid. */
    Status status() const
    {
        return _state ? _state->status : Status::Pending;
    }

    /** @return true once the command settled successfully. */
    bool ok() const { return status() == Status::Ok; }

    /**
     * @return simulated settle time.
     * Fatal when the event is invalid or still pending: a time of "0"
     * for an unfinished command is a silent lie, so the accessor
     * refuses rather than guessing (satellite: unambiguous Event API).
     */
    Tick completeTime() const;

    /** @return retry attempts consumed (0 on the first-try path). */
    unsigned retries() const { return _state ? _state->retries : 0; }

    /** @return true when the command degraded to the CPU fallback. */
    bool degraded() const { return _state && _state->degraded; }

    /** Shared completion record (public for the runtime internals). */
    struct State
    {
        Status status = Status::Pending;
        Tick at = 0;
        unsigned retries = 0;
        bool degraded = false;
        /// onSettled callbacks, dropped once they ran; a waiter that
        /// holds its own Event keeps the state alive until it settles.
        std::vector<std::function<void()>> waiters;
    };

  private:
    friend class CommandQueue;
    friend class BatchEvent;
    friend struct detail::Core;
    friend void onSettled(const Event &, std::function<void()>);
    std::shared_ptr<State> _state;
};

/**
 * Register @p fn to run (at the settle tick, on the simulation thread)
 * when @p ev settles; runs immediately when the event already settled.
 * This is the public completion hook higher layers use to return
 * credits / collect latencies without polling.
 */
void onSettled(const Event &ev, std::function<void()> fn);

class Context;
class Platform;

/** An in-order command queue bound to one device. */
class CommandQueue
{
  public:
    /**
     * Run the device's kernel on @p in, producing @p out.
     * For accelerator devices the platform-registered KernelFn runs;
     * for DRX devices @p restructure is compiled and executed.
     */
    Event enqueueKernel(BufferId in, BufferId out);

    /** DRX devices only: enqueue a restructuring kernel. */
    Event enqueueRestructure(const restructure::Kernel &kernel,
                             BufferId in, BufferId out);

    /**
     * Enqueue a DMA of @p src's contents to @p dst residing on
     * @p dst_device (p2p when both are devices; staged via host root
     * complex only if the placement demands it - the runtime always
     * uses p2p, mirroring DMX, unless the plan reports the switch's
     * p2p path faulted, in which case the copy stages through the
     * root complex at its honestly worse cost).
     */
    Event enqueueCopy(BufferId src, BufferId dst, DeviceId dst_device);

    /** Block (drive simulation) until everything enqueued settled. */
    void finish();

  private:
    friend class Context;
    CommandQueue(Context &ctx, DeviceId dev)
        : _ctx(&ctx), _device(dev)
    {
    }

    /** Validate, plan and launch @p op behind the queue's tail. */
    Event enqueue(ChainOp op);

    Context *_ctx;
    DeviceId _device;
    Event _last; ///< in-order chaining: tail of the queue
};

/**
 * Execution context: buffers plus one command queue per device.
 *
 * Each buffer holds an immutable payload. A delivered copy points its
 * destination at the source's payload, as a dma-buf import does, so
 * no bytes move on the host; a host write(), a device's output or an
 * injected payload flip replaces that one buffer's payload and leaves
 * every buffer sharing the old one unchanged. A read() reference
 * lives until that buffer is next written.
 */
class Context
{
  public:
    // Queues hold back-pointers to this context: initialize with
    // `Context ctx = platform.createContext();` (guaranteed elision)
    // and do not move it afterwards.
    Context(const Context &) = delete;
    Context &operator=(const Context &) = delete;
    Context(Context &&) = delete;
    Context &operator=(Context &&) = delete;

    /** Allocate a buffer and optionally initialize its contents. */
    BufferId createBuffer(Bytes data = {});

    /** @return buffer contents (host view; call finish() first),
     *  valid until @p id is next written. */
    const Bytes &read(BufferId id) const;

    /** Replace buffer contents from the host (this buffer only). */
    void write(BufferId id, Bytes data);

    /** @return the in-order queue of @p dev. */
    CommandQueue &queue(DeviceId dev);

    /** Drive the simulation until all queues drain. */
    void finish();

    Platform &platform() { return *_platform; }

    /**
     * Set the tenant priority admission control uses for commands from
     * this context (0 = highest; see robust::AdmissionController).
     */
    void setPriority(unsigned p) { _priority = p; }

    unsigned priority() const { return _priority; }

    /**
     * Opaque caller tag carried by every command enqueued from this
     * context. The serving layer stores the tenant id here so its
     * retry-budget policy hook can charge runtime retries to the right
     * bucket; the runtime itself never interprets the value.
     */
    void setTag(std::uint64_t t) { _tag = t; }

    std::uint64_t tag() const { return _tag; }

  private:
    friend class Platform;
    friend class CommandQueue;
    friend struct detail::Core;
    explicit Context(Platform &p);

    /** Deliver a copy: point @p dst at @p src's payload. */
    void share(BufferId dst, BufferId src);

    Platform *_platform;
    std::vector<std::shared_ptr<const Bytes>> _buffers;
    std::vector<std::unique_ptr<CommandQueue>> _queues;
    unsigned _priority = 0;
    std::uint64_t _tag = 0;
};

/** Per-device fault and recovery counters. */
struct DeviceFaultStats
{
    std::uint64_t attempts = 0;        ///< attempts launched
    std::uint64_t failures = 0;        ///< attempts failed (any cause)
    std::uint64_t timeouts = 0;        ///< watchdog expiries
    std::uint64_t retries = 0;         ///< retry attempts scheduled
    std::uint64_t commands_failed = 0; ///< commands settled non-Ok
    std::uint64_t cascaded = 0;        ///< commands failed by a
                                       ///< predecessor's error
    std::uint64_t fallbacks = 0;       ///< commands degraded to host CPU
    std::uint64_t rerouted_copies = 0; ///< p2p copies staged via the RC
    std::uint64_t shed = 0;            ///< commands shed (admission or
                                       ///< open breaker without fallback)
    std::uint64_t fast_fails = 0;      ///< fresh commands failed
                                       ///< immediately on an unhealthy
                                       ///< device (no watchdog burned)
    std::uint64_t breaker_fast_fails = 0; ///< commands rejected by an
                                          ///< open/probing breaker
    std::uint64_t deadline_exhausted = 0; ///< commands settled TimedOut
                                          ///< by the deadline budget
    std::uint64_t retries_denied = 0;     ///< retries vetoed by the
                                          ///< installed retry policy
                                          ///< (command settled instead)
};

/**
 * External veto over each retry the runtime is about to schedule: the
 * command at @p ctx (whose tag identifies the tenant) on device @p dev
 * wants to launch attempt number @p next_attempt (1 = first retry).
 * Return false to deny: the command settles with its current error
 * immediately (fail-fast) instead of backing off. The hook runs after
 * the max_retries and deadline checks, so it only ever *removes*
 * attempts - a policy cannot extend the runtime's own budget.
 */
using RetryPolicyFn =
    std::function<bool(Context &ctx, DeviceId dev, unsigned next_attempt)>;

/** The platform: devices, fabric and the simulated clock. */
class Platform
{
  public:
    Platform();
    ~Platform();

    Platform(const Platform &) = delete;
    Platform &operator=(const Platform &) = delete;

    /**
     * Register an accelerator device.
     *
     * @param name   instance name
     * @param domain latency-model domain (Table I)
     * @param fn     functional kernel body
     */
    DeviceId addAccelerator(const std::string &name, accel::Domain domain,
                            KernelFn fn);

    /** Register a DRX device with its hardware configuration. */
    DeviceId addDrx(const std::string &name, const drx::DrxConfig &cfg);

    /** Create an execution context spanning all devices. */
    Context createContext();

    /**
     * Heap-allocating variant for callers that manage many short-lived
     * contexts (one per request) whose addresses must stay stable.
     */
    std::unique_ptr<Context> createContextPtr();

    /** @return current simulated time. */
    Tick now() const { return _eq.now(); }

    /** @return number of registered devices. */
    std::size_t deviceCount() const { return _devices.size(); }

    /** @return device name. */
    const std::string &deviceName(DeviceId id) const;

    /** @return true when @p id is a DRX (restructuring) device. */
    bool deviceIsDrx(DeviceId id) const;

    /** Drive the simulation until the event queue drains. */
    void drain() { _eq.run(); }

    /**
     * @return the platform's event queue. Open-loop drivers (the
     * overload stress engine) use this to schedule request arrivals at
     * absolute simulated times between drains.
     */
    sim::EventQueue &eventQueue() { return _eq; }

    // --------------------------------------------- fault & reliability

    /**
     * Install (or clear, with nullptr) a fault plan. The plan is not
     * owned and must outlive the platform's use of it. Installing a
     * plan wires its decision hooks into the fabric, every accelerator
     * unit, every DRX machine and the completion-interrupt controller,
     * resets per-device health to the plan's unhealthy threshold, and
     * raises a zero command timeout to a default watchdog so stalls
     * and hangs are detected.
     */
    void setFaultPlan(fault::FaultPlan *plan);

    /** @return the installed plan (nullptr when fault-free). */
    fault::FaultPlan *faultPlan() const { return _plan; }

    /** Replace the command reliability policy. */
    void setCommandPolicy(const CommandPolicy &policy);

    const CommandPolicy &commandPolicy() const { return _policy; }

    /**
     * Install (or clear, with nullptr) a retry veto policy consulted
     * before every retry the runtime schedules (see RetryPolicyFn).
     * With no policy installed behaviour is byte-identical to the
     * legacy retry path.
     */
    void setRetryPolicy(RetryPolicyFn policy)
    {
        _retry_policy = std::move(policy);
    }

    const RetryPolicyFn &retryPolicy() const { return _retry_policy; }

    /**
     * Install (or clear, with nullptr) a corruption plan. The plan is
     * not owned and must outlive the platform's use of it. Installing
     * a plan wires its decision hooks into the fabric (link-CRC
     * replays), every DRX machine (scratchpad SEC-DED ECC) and the
     * copy delivery path (silent payload bit flips). With no plan
     * installed none of this machinery is reachable and behaviour is
     * byte-identical to a platform that never heard of integrity.
     */
    void setIntegrityPlan(integrity::IntegrityPlan *plan);

    /** @return the installed plan (nullptr when corruption-free). */
    integrity::IntegrityPlan *integrityPlan() const { return _integrity; }

    // ---------------------------------------- overload protection

    /**
     * Install the overload-protection feature set. Creates (or tears
     * down) per-device circuit breakers and admission controllers and
     * copies the end-to-end deadline into the command policy. The
     * default-constructed RobustConfig restores legacy behaviour.
     */
    void setRobustConfig(const robust::RobustConfig &cfg);

    const robust::RobustConfig &robustConfig() const { return _robust; }

    // ------------------------------------------------- performance

    /**
     * The platform's compiled-kernel cache, through which every DRX
     * submission is planned. One instance is safe for every queue:
     * commands execute on the single simulated event-loop thread.
     */
    drx::ProgramCache &drxCache() { return _drx_cache; }

    /** @return the breaker of @p id (nullptr when breakers are off). */
    const robust::CircuitBreaker *deviceBreaker(DeviceId id) const;

    /** @return the admission gate of @p id (nullptr when off). */
    const robust::AdmissionController *deviceAdmission(DeviceId id) const;

    /** @return commands admitted on @p id and not yet settled. */
    std::uint64_t outstandingCommands(DeviceId id) const;

    /** @return false once a device tripped the unhealthy threshold. */
    bool deviceHealthy(DeviceId id) const;

    /** @return the health tracker of @p id (streaks, threshold). */
    const fault::HealthTracker &deviceHealth(DeviceId id) const;

    /** @return fault/recovery counters of @p id. */
    const DeviceFaultStats &faultStats(DeviceId id) const;

    /** @return completion notifications lost and recovered by poll. */
    std::uint64_t droppedInterrupts() const
    {
        return _irq->droppedInterrupts();
    }

    /** @return the host core pool running degraded restructuring. */
    const cpu::CorePool &hostPool() const { return *_host; }

    /** @return the platform's PCIe fabric (doorbell/fetch counters). */
    const pcie::Fabric &fabric() const { return *_fabric; }

    /** @return the completion-interrupt controller (notify counters). */
    const driver::InterruptController &irq() const { return *_irq; }

  private:
    friend class Context;
    friend struct detail::Core;

    struct Device
    {
        std::string name;
        bool is_drx = false;
        accel::AcceleratorSpec spec{};
        KernelFn fn;
        std::unique_ptr<accel::DeviceUnit> unit;
        std::unique_ptr<drx::DrxMachine> machine;
        pcie::NodeId node = 0;
        fault::HealthTracker health;
        DeviceFaultStats fstats;
        std::uint64_t outstanding = 0; ///< admitted, not yet settled
        std::unique_ptr<robust::CircuitBreaker> breaker;
        std::unique_ptr<robust::AdmissionController> admission;
    };

    /** Wire the installed plan's hooks into one device. */
    void wireDevice(Device &dev);

    /** Wire the installed integrity plan's hooks into one device. */
    void wireIntegrity(Device &dev);

    /** (Re)build one device's breaker/admission from _robust. */
    void wireRobust(Device &dev);

    sim::EventQueue _eq;
    std::unique_ptr<pcie::Fabric> _fabric;
    pcie::NodeId _rc = 0;
    pcie::NodeId _switch = 0;
    std::vector<Device> _devices;

    fault::FaultPlan *_plan = nullptr;
    integrity::IntegrityPlan *_integrity = nullptr;
    CommandPolicy _policy;
    RetryPolicyFn _retry_policy;
    robust::RobustConfig _robust;
    drx::ProgramCache _drx_cache;
    Rng _jitter; ///< backoff jitter stream (reseeded per plan)
    cpu::HostParams _host_params;
    std::unique_ptr<cpu::CorePool> _host;
    std::unique_ptr<driver::InterruptController> _irq;
};

} // namespace dmx::runtime

#endif // DMX_RUNTIME_RUNTIME_HH
