#include "runtime/runtime.hh"

#include <utility>

#include "common/logging.hh"
#include "integrity/integrity.hh"
#include "runtime/core.hh"

namespace dmx::runtime
{

namespace
{

/** Default link for runtime devices: Gen3 x16 under one switch. */
constexpr pcie::Generation runtime_gen = pcie::Generation::Gen3;

/**
 * Watchdog installed when a fault plan raises a zero policy timeout:
 * generously above any healthy command in the runtime's operating
 * range (multi-MB flows at Gen3 take ~1 ms; kernels a few ms), so it
 * only ever fires for injected stalls and hangs.
 */
constexpr Tick default_fault_timeout = 50 * tick_per_ms;

} // namespace

std::string
toString(Status s)
{
    switch (s) {
      case Status::Pending: return "pending";
      case Status::Ok: return "ok";
      case Status::Failed: return "failed";
      case Status::TimedOut: return "timed-out";
      case Status::Shed: return "shed";
    }
    return "?";
}

// --------------------------------------------------------------- Event

void
onSettled(const Event &ev, std::function<void()> fn)
{
    detail::Core::whenDone(ev._state.get(), std::move(fn));
}

Tick
Event::completeTime() const
{
    if (!_state)
        dmx_fatal("Event::completeTime on an invalid "
                  "(default-constructed) event");
    if (_state->status == Status::Pending)
        dmx_fatal("Event::completeTime on a pending command; "
                  "finish() the queue first");
    return _state->at;
}

// ------------------------------------------------------------ Platform

Platform::Platform()
{
    _fabric = std::make_unique<pcie::Fabric>(_eq, "runtime.pcie");
    _rc = _fabric->addNode(pcie::NodeKind::RootComplex, "rc");
    _switch = _fabric->addNode(pcie::NodeKind::Switch, "sw0");
    _fabric->connect(_rc, _switch, runtime_gen, 8);
    _host = std::make_unique<cpu::CorePool>(
        _eq, "runtime.host", _host_params.cores,
        _host_params.max_job_cores);
    _irq = std::make_unique<driver::InterruptController>(
        _eq, "runtime.irq", driver::InterruptParams{}, _host.get());
}

Platform::~Platform() = default;

DeviceId
Platform::addAccelerator(const std::string &name, accel::Domain domain,
                         KernelFn fn)
{
    Device dev;
    dev.name = name;
    dev.spec = accel::specFor(domain);
    dev.fn = std::move(fn);
    dev.unit =
        std::make_unique<accel::DeviceUnit>(_eq, name, dev.spec.freq_hz);
    dev.node = _fabric->addNode(pcie::NodeKind::EndPoint, name);
    _fabric->connect(_switch, dev.node, runtime_gen, 16);
    _devices.push_back(std::move(dev));
    if (_plan)
        wireDevice(_devices.back());
    if (_integrity)
        wireIntegrity(_devices.back());
    wireRobust(_devices.back());
    return _devices.size() - 1;
}

DeviceId
Platform::addDrx(const std::string &name, const drx::DrxConfig &cfg)
{
    Device dev;
    dev.name = name;
    dev.is_drx = true;
    dev.machine = std::make_unique<drx::DrxMachine>(cfg);
    dev.unit =
        std::make_unique<accel::DeviceUnit>(_eq, name, cfg.freq_hz);
    dev.node = _fabric->addNode(pcie::NodeKind::EndPoint, name);
    _fabric->connect(_switch, dev.node, runtime_gen, 16);
    _devices.push_back(std::move(dev));
    if (_plan)
        wireDevice(_devices.back());
    if (_integrity)
        wireIntegrity(_devices.back());
    wireRobust(_devices.back());
    return _devices.size() - 1;
}

Context
Platform::createContext()
{
    return Context(*this);
}

std::unique_ptr<Context>
Platform::createContextPtr()
{
    return std::unique_ptr<Context>(new Context(*this));
}

const std::string &
Platform::deviceName(DeviceId id) const
{
    if (id >= _devices.size())
        dmx_fatal("Platform::deviceName: bad device id %zu", id);
    return _devices[id].name;
}

bool
Platform::deviceIsDrx(DeviceId id) const
{
    if (id >= _devices.size())
        dmx_fatal("Platform::deviceIsDrx: bad device id %zu", id);
    return _devices[id].is_drx;
}

void
Platform::setFaultPlan(fault::FaultPlan *plan)
{
    _plan = plan;
    if (!plan) {
        _fabric->setFaultHook(nullptr);
        _irq->setFaultHook(nullptr);
        for (auto &dev : _devices) {
            if (dev.unit)
                dev.unit->setFaultHook(nullptr);
            if (dev.machine)
                dev.machine->setFaultHook(nullptr);
        }
        return;
    }
    // Jitter draws from its own plan-derived stream so retries are
    // reproducible and do not consume the plan's decision streams.
    _jitter = Rng(plan->spec().seed ^ 0x7261f3b9d4a1c8e5ull);
    if (_policy.timeout == 0)
        _policy.timeout = default_fault_timeout;
    _fabric->setFaultHook(
        [plan](std::uint32_t src, std::uint32_t dst,
               std::uint64_t bytes) {
            return plan->onFlow(src, dst, bytes);
        });
    _irq->setFaultHook([plan] { return plan->onIrq(); });
    for (auto &dev : _devices)
        wireDevice(dev);
}

void
Platform::wireDevice(Device &dev)
{
    fault::FaultPlan *plan = _plan;
    dev.health = fault::HealthTracker(plan->spec().unhealthy_threshold);
    if (dev.is_drx) {
        // DRX failures are decided at the machine (program) level; the
        // serving unit stays unhooked so the fault probability is not
        // charged twice per submission.
        dev.machine->setFaultHook([plan] { return plan->onMachine(); });
        dev.unit->setFaultHook(nullptr);
    } else {
        dev.unit->setFaultHook([plan] { return plan->onKernel(); });
    }
}

void
Platform::setIntegrityPlan(integrity::IntegrityPlan *plan)
{
    _integrity = plan;
    if (plan) {
        _fabric->setLinkCrcHook(
            [plan](std::uint32_t src, std::uint32_t dst,
                   std::uint64_t bytes) {
                return plan->onLink(src, dst, bytes);
            });
    } else {
        _fabric->setLinkCrcHook(nullptr);
    }
    for (auto &dev : _devices)
        wireIntegrity(dev);
}

void
Platform::wireIntegrity(Device &dev)
{
    if (!dev.machine)
        return;
    if (integrity::IntegrityPlan *plan = _integrity) {
        dev.machine->setEccHook([plan] { return plan->onScratch(); });
    } else {
        dev.machine->setEccHook(nullptr);
    }
}

void
Platform::setCommandPolicy(const CommandPolicy &policy)
{
    _policy = policy;
    if (_plan && _policy.timeout == 0)
        _policy.timeout = default_fault_timeout;
}

void
Platform::setRobustConfig(const robust::RobustConfig &cfg)
{
    _robust = cfg;
    if (cfg.deadline)
        _policy.deadline = cfg.deadline;
    for (auto &dev : _devices)
        wireRobust(dev);
}

void
Platform::wireRobust(Device &dev)
{
    if (_robust.breaker.enabled) {
        robust::BreakerConfig bc = _robust.breaker;
        if (bc.failure_threshold == 0) {
            // Default the trip threshold to the device's configured
            // unhealthy threshold so breaker and health agree on what
            // "keeps failing" means.
            bc.failure_threshold = dev.health.threshold();
        }
        dev.breaker =
            std::make_unique<robust::CircuitBreaker>(dev.name, bc);
    } else {
        dev.breaker.reset();
    }
    if (_robust.admission.policy != robust::AdmissionPolicy::Unbounded) {
        dev.admission = std::make_unique<robust::AdmissionController>(
            dev.name, _robust.admission);
    } else {
        dev.admission.reset();
    }
}

const robust::CircuitBreaker *
Platform::deviceBreaker(DeviceId id) const
{
    if (id >= _devices.size())
        dmx_fatal("Platform::deviceBreaker: bad device id %zu", id);
    return _devices[id].breaker.get();
}

const robust::AdmissionController *
Platform::deviceAdmission(DeviceId id) const
{
    if (id >= _devices.size())
        dmx_fatal("Platform::deviceAdmission: bad device id %zu", id);
    return _devices[id].admission.get();
}

std::uint64_t
Platform::outstandingCommands(DeviceId id) const
{
    if (id >= _devices.size())
        dmx_fatal("Platform::outstandingCommands: bad device id %zu", id);
    return _devices[id].outstanding;
}

bool
Platform::deviceHealthy(DeviceId id) const
{
    if (id >= _devices.size())
        dmx_fatal("Platform::deviceHealthy: bad device id %zu", id);
    return _devices[id].health.healthy();
}

const fault::HealthTracker &
Platform::deviceHealth(DeviceId id) const
{
    if (id >= _devices.size())
        dmx_fatal("Platform::deviceHealth: bad device id %zu", id);
    return _devices[id].health;
}

const DeviceFaultStats &
Platform::faultStats(DeviceId id) const
{
    if (id >= _devices.size())
        dmx_fatal("Platform::faultStats: bad device id %zu", id);
    return _devices[id].fstats;
}

// ------------------------------------------------------------- Context

Context::Context(Platform &p) : _platform(&p)
{
    for (std::size_t d = 0; d < p._devices.size(); ++d) {
        _queues.emplace_back(
            std::unique_ptr<CommandQueue>(new CommandQueue(*this, d)));
    }
}

BufferId
Context::createBuffer(Bytes data)
{
    _buffers.push_back(std::move(data));
    return _buffers.size() - 1;
}

const Bytes &
Context::read(BufferId id) const
{
    if (id >= _buffers.size())
        dmx_fatal("Context::read: bad buffer id %zu", id);
    return _buffers[id];
}

void
Context::write(BufferId id, Bytes data)
{
    if (id >= _buffers.size())
        dmx_fatal("Context::write: bad buffer id %zu", id);
    _buffers[id] = std::move(data);
}

CommandQueue &
Context::queue(DeviceId dev)
{
    if (dev >= _queues.size())
        dmx_fatal("Context::queue: bad device id %zu", dev);
    return *_queues[dev];
}

void
Context::finish()
{
    _platform->drain();
}

// -------------------------------------------------------- CommandQueue

Event
CommandQueue::enqueue(ChainOp op)
{
    using detail::Core;
    Platform &p = _ctx->platform();
    if (const char *why = Core::invalid(p, op))
        dmx_fatal("enqueue on '%s': the command %s",
                  p.deviceName(_device).c_str(), why);
    Core::Plans plans = Core::plan(p, op);
    Event ev;
    ev._state = std::make_shared<Event::State>();
    // Every enqueued copy leg rings its own doorbell (no shared flag),
    // and each command pays its own completion notification.
    if (Core::launchCommand(*_ctx, std::move(op), std::move(plans), {},
                            ev._state, Core::toHost(p, ev._state),
                            _last._state.get()))
        _last = ev;
    return ev;
}

Event
CommandQueue::enqueueKernel(BufferId in, BufferId out)
{
    return enqueue({ChainOp::Kind::Kernel, _device, 0, in, out, {}});
}

Event
CommandQueue::enqueueRestructure(const restructure::Kernel &kernel,
                                 BufferId in, BufferId out)
{
    return enqueue(
        {ChainOp::Kind::Restructure, _device, 0, in, out, {kernel}});
}

Event
CommandQueue::enqueueCopy(BufferId src, BufferId dst, DeviceId dst_device)
{
    return enqueue({ChainOp::Kind::Copy, _device, dst_device, src, dst, {}});
}

void
CommandQueue::finish()
{
    _ctx->platform().drain();
}

} // namespace dmx::runtime
