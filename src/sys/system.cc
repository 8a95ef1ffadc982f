#include "sys/system.hh"

#include <algorithm>
#include <cmath>

#include "common/logging.hh"
#include "common/percentile.hh"
#include "robust/admission.hh"
#include "robust/credit.hh"
#include "sim/eventq.hh"
#include "sys/calibration.hh"
#include "trace/trace.hh"

namespace dmx::sys
{

std::string
toString(Placement p)
{
    switch (p) {
      case Placement::AllCpu:         return "all-cpu";
      case Placement::MultiAxl:       return "multi-axl";
      case Placement::IntegratedDrx:  return "integrated";
      case Placement::StandaloneDrx:  return "standalone";
      case Placement::BumpInTheWire:  return "bump-in-the-wire";
      case Placement::PcieIntegrated: return "pcie-integrated";
    }
    return "?";
}

std::string
toString(ChainSubmission c)
{
    switch (c) {
      case ChainSubmission::PerHop:     return "per-hop";
      case ChainSubmission::Descriptor: return "descriptor";
    }
    return "?";
}

namespace
{

/** Time phases attributed per request. */
enum class Phase { Kernel, Restructure, Movement };

/** The whole live simulation state. */
class SystemSim
{
  public:
    SystemSim(const SystemConfig &cfg, const std::vector<AppModel> &apps);

    /** Run the closed loop to completion and aggregate its stats. */
    RunStats run();

  private:
    struct AppInstance
    {
        const AppModel *model = nullptr;
        std::vector<accel::DeviceUnit *> accel_units;
        std::vector<pcie::NodeId> accel_nodes;
        std::vector<pcie::NodeId> drx_nodes;          ///< BitW: per accel
        std::vector<accel::DeviceUnit *> drx_units;   ///< per motion site
        std::vector<pcie::NodeId> switch_drx_nodes;   ///< PcieIntegrated
        std::unique_ptr<driver::DrxQueues> queues;    ///< BitW occupancy

        unsigned requests_done = 0;
        Tick request_start = 0;
        Tick phase_start = 0;
        Tick flow_start = 0;
        Tick time_ticks[3] = {0, 0, 0};          ///< per Phase totals
        std::vector<Tick> stage_ticks;           ///< 2K-1 stage totals
        double latency_ms_sum = 0;

        unsigned priority = 0;                   ///< admission priority
        std::uint64_t shed = 0;                  ///< admission-shed requests
        std::uint64_t deadline_misses = 0;
        std::vector<double> latencies_ms;        ///< completed, for p99
        /// Credit gates in front of the BitW per-stage RX rings,
        /// indexed by motion k (gate k guards rx(k+1, Accelerator)).
        std::vector<std::unique_ptr<robust::CreditGate>> gates;
        /// Whether the in-flight motion's RX push was accepted; a
        /// rejected (overflowed) push must not be popped later.
        bool push_ok = true;
        /// Batched-submission cursors (SystemConfig::batch > 1), per
        /// app: flow submission seq (one doorbell per `batch`
        /// submissions) and pipeline-step completion seq (one
        /// interrupt per `batch` steps, the rest discovered by
        /// completion-record polls).
        std::uint64_t submission_seq = 0;
        std::uint64_t completion_seq = 0;
    };

    void startRequest(std::size_t a);
    void startKernel(std::size_t a, std::size_t k);
    void kernelDone(std::size_t a, std::size_t k);
    void startMotion(std::size_t a, std::size_t k);
    void restructureDone(std::size_t a, std::size_t k);
    void deliverToNext(std::size_t a, std::size_t k);
    void requestDone(std::size_t a);

    /** Close the current phase, attributing elapsed time. */
    void closePhase(AppInstance &app, Phase phase, std::size_t stage);

    /** @return the app's trace track label, e.g. "app0". */
    std::string trackName(const AppInstance &app) const;

    /**
     * Record the driver-notification wait since the last phase close as
     * a Driver span, so an app track's spans tile its whole timeline.
     */
    void traceGap(AppInstance &app);

    /** Driver notification latency then continue with @p next. */
    void notifyThen(std::size_t a, std::function<void()> next);

    /**
     * Continue a mid-chain pipeline step: a full notify/doorbell round
     * trip in PerHop mode, a linked-descriptor fetch by the engine in
     * Descriptor mode (the host is never involved).
     */
    void chainThen(std::size_t a, std::function<void()> next);

    /**
     * A flow that survives injected faults: corrupted (or stalled,
     * mapped to corrupted by the installed hook) transfers are
     * retransmitted until delivered, each replay re-paying the full
     * transfer under current contention.
     */
    void startFlowReliable(std::size_t a, pcie::NodeId src,
                           pcie::NodeId dst, std::uint64_t bytes,
                           std::function<void()> done);

    /**
     * Batched-submission leg of startFlowReliable: submit @p d as a
     * descriptor (full dma_setup only when @p first), retransmitting
     * corrupted deliveries like the legacy path. Replays re-fetch
     * their descriptor - the doorbell was already rung.
     */
    void startDescriptorReliable(pcie::DmaDescriptor d, bool first,
                                 std::function<void()> done);

    /** @return app a's credit gate for motion k, or nullptr. */
    robust::CreditGate *gateFor(std::size_t a, std::size_t k);

    /** Account a rejected DataQueue push against the offending queue. */
    void reportOverflow(const driver::DataQueue &q);

    const SystemConfig &_cfg;
    sim::EventQueue _eq;
    std::unique_ptr<pcie::Fabric> _fabric;
    std::unique_ptr<cpu::CorePool> _pool;
    std::unique_ptr<driver::InterruptController> _irq;
    std::vector<std::unique_ptr<accel::DeviceUnit>> _units;
    std::vector<AppInstance> _apps;
    pcie::NodeId _rc = 0;
    pcie::NodeId _hostmem = 0; ///< DRAM staging behind the root complex
    std::uint64_t _flow_retries = 0;
    std::uint64_t _dropped_irqs = 0;
    std::uint64_t _driver_round_trips = 0;
    std::uint64_t _desc_fetches = 0;
    std::uint64_t _suppressed_notifications = 0;
    /// System-level admission: depth is the system-wide in-flight
    /// request count; sojourn feedback is end-to-end request latency.
    std::unique_ptr<robust::AdmissionController> _admission;
    std::uint64_t _inflight = 0;
    std::uint64_t _queue_overflows = 0;
    Tick _last_done = 0;
    /// Per-accelerator active watts in creation order. run() sums
    /// these and the busy times below in that order; another order
    /// would move the energy goldens in their last bits.
    std::vector<double> _accel_watts;
    unsigned _drx_unit_count = 0;
    std::vector<accel::DeviceUnit *> _accel_unit_ptrs;
    std::vector<accel::DeviceUnit *> _drx_unit_ptrs;
};

SystemSim::SystemSim(const SystemConfig &cfg,
                     const std::vector<AppModel> &apps)
    : _cfg(cfg)
{
    if (apps.empty())
        dmx_fatal("simulateSystem: no application models");
    if (cfg.n_apps == 0)
        dmx_fatal("simulateSystem: need at least one application");

    _pool = std::make_unique<cpu::CorePool>(
        _eq, "host.pool", cfg.host.cores, cfg.host.max_job_cores);
    _irq = std::make_unique<driver::InterruptController>(
        _eq, "host.irq", cfg.irq, _pool.get());

    const bool uses_fabric = cfg.placement != Placement::AllCpu;
    if (uses_fabric) {
        pcie::FabricParams fparams;
        fparams.switch_latency = switch_port_latency;
        _fabric = std::make_unique<pcie::Fabric>(_eq, "pcie", fparams);
        _rc = _fabric->addNode(pcie::NodeKind::RootComplex, "rc");
        // Host-staged transfers land in DRAM: that path's bandwidth is
        // shared across all applications and does not scale with the
        // PCIe generation.
        _hostmem = _fabric->addNode(pcie::NodeKind::EndPoint, "hostmem");
        _fabric->connectCustom(_rc, _hostmem,
                               host_staging_bytes_per_sec);
    }

    if (cfg.fault_plan) {
        if (_fabric) {
            _fabric->setFaultHook(
                [plan = cfg.fault_plan](std::uint32_t s, std::uint32_t d,
                                        std::uint64_t b) {
                    // No per-command watchdog in the closed loop: a
                    // stalled TLP is detected by link-level replay and
                    // retransmitted just like a corrupted one.
                    const fault::FlowAction a = plan->onFlow(s, d, b);
                    return a == fault::FlowAction::Stall
                               ? fault::FlowAction::Corrupt
                               : a;
                });
        }
        _irq->setFaultHook(
            [plan = cfg.fault_plan] { return plan->onIrq(); });
    }

    if (cfg.integrity_plan && _fabric) {
        _fabric->setLinkCrcHook(
            [plan = cfg.integrity_plan](std::uint32_t s, std::uint32_t d,
                                        std::uint64_t b) {
                return plan->onLink(s, d, b);
            });
    }

    // Shared DRX units. The on-CPU DRX serves the whole socket, so it
    // integrates several RE-array contexts (each equivalent to one
    // bump-in-the-wire unit); jobs from different applications land on
    // different contexts, but each job runs at single-unit speed.
    std::vector<accel::DeviceUnit *> integrated_units;
    if (cfg.placement == Placement::IntegratedDrx) {
        constexpr unsigned contexts = 4;
        for (unsigned c = 0; c < contexts; ++c) {
            _units.push_back(std::make_unique<accel::DeviceUnit>(
                _eq, "drx.integrated" + std::to_string(c),
                cfg.drx.freq_hz));
            integrated_units.push_back(_units.back().get());
            _drx_unit_ptrs.push_back(_units.back().get());
        }
        _drx_unit_count = 1; // one physical on-CPU device
    }
    std::vector<accel::DeviceUnit *> standalone_cards;
    std::vector<pcie::NodeId> standalone_nodes;

    // Switch packing.
    pcie::NodeId cur_switch = 0;
    unsigned cur_ports = ports_per_switch; // force a switch on first app
    unsigned switch_count = 0;
    const unsigned up_lanes =
        cfg.gen == pcie::Generation::Gen3 ? upstream_lanes : 16;
    auto ensure_ports = [&](unsigned needed) {
        if (!uses_fabric)
            return;
        if (cur_ports + needed > ports_per_switch) {
            cur_switch = _fabric->addNode(
                pcie::NodeKind::Switch,
                "sw" + std::to_string(switch_count++));
            _fabric->connect(_rc, cur_switch, cfg.gen, up_lanes);
            cur_ports = 0;
            if (cfg.placement == Placement::PcieIntegrated) {
                // In-switch DRX: fat internal attach (line rate).
                const pcie::NodeId n = _fabric->addNode(
                    pcie::NodeKind::EndPoint,
                    "swdrx" + std::to_string(switch_count - 1));
                _fabric->connect(cur_switch, n,
                                 pcie::Generation::Gen5, 16);
            }
        }
        cur_ports += needed;
    };

    for (unsigned g = 0; g < cfg.n_apps; ++g) {
        AppInstance inst;
        inst.model = &apps[g % apps.size()];
        const std::size_t kcount = inst.model->kernels.size();
        if (kcount < 2 || inst.model->motions.size() != kcount - 1)
            dmx_fatal("AppModel '%s': malformed pipeline",
                      inst.model->name.c_str());
        inst.stage_ticks.assign(2 * kcount - 1, 0);

        // Port demand: K accelerator chains, plus possibly a new
        // Standalone card serving this and the next app.
        unsigned needed = static_cast<unsigned>(kcount);
        const bool new_card =
            cfg.placement == Placement::StandaloneDrx &&
            g % apps_per_standalone_card == 0;
        if (new_card)
            ++needed;
        ensure_ports(needed);

        if (new_card) {
            const unsigned card_id =
                static_cast<unsigned>(standalone_cards.size());
            standalone_nodes.push_back(_fabric->addNode(
                pcie::NodeKind::EndPoint,
                "drxcard" + std::to_string(card_id)));
            // Standalone cards carry the same single-DDR4-channel cap
            // as any DRX.
            _fabric->connectCustom(
                cur_switch, standalone_nodes.back(),
                std::min(pcie::linkBandwidth(cfg.gen, downstream_lanes),
                         cfg.drx.dram_bytes_per_sec));
            _units.push_back(std::make_unique<accel::DeviceUnit>(
                _eq,
                "drx.card" + std::to_string(card_id),
                standalone_drx_freq_hz));
            standalone_cards.push_back(_units.back().get());
            _drx_unit_ptrs.push_back(standalone_cards.back());
            ++_drx_unit_count;
        }

        for (std::size_t k = 0; k < kcount; ++k) {
            const KernelTiming &kt = inst.model->kernels[k];
            _units.push_back(std::make_unique<accel::DeviceUnit>(
                _eq,
                "app" + std::to_string(g) + ".accel" + std::to_string(k),
                kt.accel_freq_hz));
            inst.accel_units.push_back(_units.back().get());
            if (cfg.placement != Placement::AllCpu) {
                // All-CPU has no accelerator hardware to power.
                _accel_unit_ptrs.push_back(_units.back().get());
                _accel_watts.push_back(kt.accel_active_watts);
            }

            if (!uses_fabric)
                continue;
            if (cfg.placement == Placement::BumpInTheWire) {
                // Chain: switch - DRX - accelerator. Traffic in and out
                // of a DRX is additionally capped by its single DDR4
                // channel (the paper sizes it to match an x8 Gen4
                // link), so DRX-side links stop scaling past Gen4.
                const auto drx_link_bw = std::min(
                    pcie::linkBandwidth(cfg.gen, downstream_lanes),
                    cfg.drx.dram_bytes_per_sec);
                const pcie::NodeId drx_node = _fabric->addNode(
                    pcie::NodeKind::EndPoint,
                    "app" + std::to_string(g) + ".drx" +
                        std::to_string(k));
                _fabric->connectCustom(cur_switch, drx_node,
                                       drx_link_bw);
                const pcie::NodeId accel_node = _fabric->addNode(
                    pcie::NodeKind::EndPoint,
                    "app" + std::to_string(g) + ".accel" +
                        std::to_string(k));
                _fabric->connectCustom(drx_node, accel_node,
                                       drx_link_bw);
                inst.drx_nodes.push_back(drx_node);
                inst.accel_nodes.push_back(accel_node);
                _units.push_back(std::make_unique<accel::DeviceUnit>(
                    _eq,
                    "app" + std::to_string(g) + ".drxunit" +
                        std::to_string(k),
                    cfg.drx.freq_hz));
                inst.drx_units.push_back(_units.back().get());
                _drx_unit_ptrs.push_back(_units.back().get());
                ++_drx_unit_count;
            } else {
                const pcie::NodeId accel_node = _fabric->addNode(
                    pcie::NodeKind::EndPoint,
                    "app" + std::to_string(g) + ".accel" +
                        std::to_string(k));
                _fabric->connect(cur_switch, accel_node, cfg.gen,
                                 downstream_lanes);
                inst.accel_nodes.push_back(accel_node);
            }
        }

        if (cfg.placement == Placement::BumpInTheWire) {
            inst.queues = std::make_unique<driver::DrxQueues>(
                drx_queue_mem_bytes, drx_queue_pair_bytes,
                static_cast<unsigned>(kcount));
            inst.queues->labelQueues("app" + std::to_string(g));
            if (cfg.robust.backpressure.enabled) {
                for (std::size_t k = 0; k + 1 < kcount; ++k) {
                    driver::DataQueue &q = inst.queues->rx(
                        static_cast<unsigned>(k + 1),
                        driver::PeerKind::Accelerator);
                    if (cfg.robust.backpressure.credit_window)
                        q.setCreditWindow(
                            cfg.robust.backpressure.credit_window);
                    inst.gates.push_back(
                        std::make_unique<robust::CreditGate>(
                            q.label(), q.creditWindow()));
                }
            }
        }
        if (cfg.placement == Placement::IntegratedDrx) {
            inst.drx_units.assign(
                kcount, integrated_units[g % integrated_units.size()]);
        }
        if (cfg.placement == Placement::StandaloneDrx) {
            inst.drx_units.assign(kcount, standalone_cards.back());
            inst.drx_nodes.assign(kcount, standalone_nodes.back());
        }
        if (cfg.placement == Placement::PcieIntegrated) {
            // The in-switch DRX node for this app's switch is the node
            // added right after the switch itself; recover it by name
            // order: it is the last "swdrx" created at ensure_ports.
            // Store the switch id; flows route accel->accel directly.
            inst.switch_drx_nodes.assign(kcount, cur_switch);
        }

        inst.priority =
            g < cfg.priorities.size() ? cfg.priorities[g] : 0;
        _apps.push_back(std::move(inst));
    }

    if (cfg.robust.admission.policy != robust::AdmissionPolicy::Unbounded)
        _admission = std::make_unique<robust::AdmissionController>(
            "sys.admission", cfg.robust.admission);
}

void
SystemSim::closePhase(AppInstance &app, Phase phase, std::size_t stage)
{
    const Tick at = _eq.now();
    const Tick dt = at - app.phase_start;
    app.time_ticks[static_cast<int>(phase)] += dt;
    if (stage < app.stage_ticks.size())
        app.stage_ticks[stage] += dt;
    if (auto *tb = trace::active()) {
        static constexpr trace::Category phase_cat[3] = {
            trace::Category::Kernel, trace::Category::Restructure,
            trace::Category::Movement};
        static constexpr const char *phase_name[3] = {
            "kernel", "restructure", "movement"};
        tb->span(phase_cat[static_cast<int>(phase)],
                 phase_name[static_cast<int>(phase)], trackName(app),
                 app.phase_start, at, stage);
    }
    app.phase_start = at;
}

std::string
SystemSim::trackName(const AppInstance &app) const
{
    return "app" +
           std::to_string(static_cast<unsigned>(&app - _apps.data()));
}

void
SystemSim::traceGap(AppInstance &app)
{
    if (auto *tb = trace::active()) {
        if (_eq.now() > app.phase_start)
            tb->span(trace::Category::Driver, "notify_wait",
                     trackName(app), app.phase_start, _eq.now());
    }
}

void
SystemSim::notifyThen(std::size_t a, std::function<void()> next)
{
    if (_cfg.batch > 1) {
        // Coalesced completions: only every batch-th pipeline step of
        // this app raises an interrupt; the suppressed steps write a
        // completion record the host discovers by polling (the poll's
        // CPU work and detection latency are charged by the driver).
        // A suppressed step is NOT a driver round trip - no doorbell
        // returns to the device.
        AppInstance &app = _apps[a];
        ++app.completion_seq;
        if (app.completion_seq % _cfg.batch != 0) {
            ++_suppressed_notifications;
            const driver::InterruptController::Notification n =
                _irq->pollRecord();
            if (auto *tb = trace::active()) {
                tb->instant(trace::Category::Driver, "record_poll",
                            "host.irq", _eq.now());
                tb->count("sys.suppressed_notifications", _eq.now());
            }
            _eq.scheduleIn(n.latency, std::move(next));
            return;
        }
    }
    (void)a;
    ++_driver_round_trips;
    const driver::InterruptController::Notification n =
        _irq->notifyChecked();
    if (!n.delivered) {
        ++_dropped_irqs;
        if (auto *tb = trace::active())
            tb->count("sys.dropped_irqs", _eq.now());
    }
    if (auto *tb = trace::active())
        tb->instant(trace::Category::Driver,
                    n.delivered ? "irq" : "poll", "host.irq", _eq.now());
    _eq.scheduleIn(n.latency, std::move(next));
}

void
SystemSim::chainThen(std::size_t a, std::function<void()> next)
{
    if (_cfg.chain != ChainSubmission::Descriptor || !_fabric) {
        notifyThen(a, std::move(next));
        return;
    }
    (void)a;
    // The engine pulls the next linked descriptor out of host memory
    // itself; no interrupt reaches the host and no doorbell returns.
    ++_desc_fetches;
    if (auto *tb = trace::active()) {
        tb->instant(trace::Category::Driver, "desc_fetch", "host.irq",
                    _eq.now());
        tb->count("sys.descriptor_fetches", _eq.now());
    }
    _eq.scheduleIn(_fabric->params().desc_fetch_latency,
                   std::move(next));
}

void
SystemSim::startFlowReliable(std::size_t a, pcie::NodeId src,
                             pcie::NodeId dst, std::uint64_t bytes,
                             std::function<void()> done)
{
    if (_cfg.batch > 1) {
        // Batched submission: the app rings one full doorbell per
        // `batch` flows; the others are engine descriptor fetches of
        // pre-written descriptors (the DSA batch-descriptor model).
        AppInstance &app = _apps[a];
        const bool first = app.submission_seq % _cfg.batch == 0;
        ++app.submission_seq;
        startDescriptorReliable({src, dst, bytes}, first,
                                std::move(done));
        return;
    }
    _fabric->startFlowChecked(
        src, dst, bytes,
        [this, a, src, dst, bytes,
         done = std::move(done)](bool ok) mutable {
            if (ok) {
                done();
                return;
            }
            ++_flow_retries;
            if (auto *tb = trace::active()) {
                tb->count("sys.flow_retries", _eq.now());
                tb->instant(trace::Category::Retry, "flow_retry", "pcie",
                            _eq.now());
            }
            startFlowReliable(a, src, dst, bytes, std::move(done));
        });
}

void
SystemSim::startDescriptorReliable(pcie::DmaDescriptor d, bool first,
                                   std::function<void()> done)
{
    _fabric->startDescriptorFlow(
        d, first, [this, d, done = std::move(done)](bool ok) mutable {
            if (ok) {
                done();
                return;
            }
            ++_flow_retries;
            if (auto *tb = trace::active()) {
                tb->count("sys.flow_retries", _eq.now());
                tb->instant(trace::Category::Retry, "flow_retry", "pcie",
                            _eq.now());
            }
            startDescriptorReliable(d, false, std::move(done));
        });
}

robust::CreditGate *
SystemSim::gateFor(std::size_t a, std::size_t k)
{
    AppInstance &app = _apps[a];
    return k < app.gates.size() ? app.gates[k].get() : nullptr;
}

void
SystemSim::reportOverflow(const driver::DataQueue &q)
{
    ++_queue_overflows;
    if (_cfg.fault_plan)
        _cfg.fault_plan->onQueueOverflow(q.label());
    if (auto *tb = trace::active()) {
        tb->instant(trace::Category::Robust, "queue_overflow",
                    q.label().empty() ? "queue" : q.label(), _eq.now());
        tb->count("sys.queue_overflows", _eq.now());
    }
}

void
SystemSim::startRequest(std::size_t a)
{
    AppInstance &app = _apps[a];
    if (_admission &&
        !_admission->admit(_eq.now(), _inflight, app.priority)) {
        // Shed: the request terminates immediately (observed like a
        // timeout) and still counts toward the closed loop's quota;
        // the re-issue is delayed so the loop cannot spin in place.
        ++app.shed;
        ++app.requests_done;
        _last_done = std::max(_last_done, _eq.now());
        if (app.requests_done < _cfg.requests_per_app)
            _eq.scheduleIn(_cfg.robust.admission.shed_retry,
                           [this, a] { startRequest(a); });
        return;
    }
    ++_inflight;
    app.request_start = _eq.now();
    app.phase_start = _eq.now();
    startKernel(a, 0);
}

void
SystemSim::startKernel(std::size_t a, std::size_t k)
{
    AppInstance &app = _apps[a];
    const KernelTiming &kt = app.model->kernels[k];
    traceGap(app); // PcieIntegrated delivers behind a doorbell notify
    app.phase_start = _eq.now();
    if (_cfg.placement == Placement::AllCpu) {
        _pool->submit(kt.cpu_core_seconds, kt.max_host_cores,
                      [this, a, k] { kernelDone(a, k); });
    } else {
        app.accel_units[k]->submit(kt.accel_cycles,
                                   [this, a, k] { kernelDone(a, k); });
    }
}

void
SystemSim::kernelDone(std::size_t a, std::size_t k)
{
    AppInstance &app = _apps[a];
    closePhase(app, Phase::Kernel, 2 * k);
    if (k + 1 == app.model->kernels.size()) {
        if (_cfg.placement == Placement::AllCpu) {
            requestDone(a);
        } else {
            // Final completion interrupt back to the host program.
            notifyThen(a, [this, a] { requestDone(a); });
        }
        return;
    }
    if (_cfg.placement == Placement::AllCpu) {
        startMotion(a, k);
        return;
    }
    // Completion interrupt; the driver then programs the DMA. Under
    // descriptor chaining the engine already holds the next transfer's
    // descriptor, so chainThen replaces the round trip with a fetch.
    chainThen(a, [this, a, k] { startMotion(a, k); });
}

void
SystemSim::startMotion(std::size_t a, std::size_t k)
{
    AppInstance &app = _apps[a];
    const MotionTiming &mt = app.model->motions[k];
    switch (_cfg.placement) {
      case Placement::AllCpu:
        // No movement: restructure directly on the host.
        app.phase_start = _eq.now();
        _pool->submit(mt.cpu_core_seconds,
                      [this, a, k] { restructureDone(a, k); });
        return;
      case Placement::MultiAxl:
      case Placement::IntegratedDrx:
        // Stage through host memory.
        startFlowReliable(a, app.accel_nodes[k], _hostmem, mt.in_bytes,
                          [this, a, k] {
            AppInstance &ap = _apps[a];
            closePhase(ap, Phase::Movement, 2 * k + 1);
            const MotionTiming &m = ap.model->motions[k];
            if (_cfg.placement == Placement::MultiAxl) {
                _pool->submit(m.cpu_core_seconds, [this, a, k] {
                    restructureDone(a, k);
                });
            } else {
                ap.drx_units[k]->submit(m.drx_cycles, [this, a, k] {
                    restructureDone(a, k);
                });
            }
        });
        return;
      case Placement::StandaloneDrx:
      case Placement::BumpInTheWire: {
        const auto flow_in = [this, a, k] {
            AppInstance &ap = _apps[a];
            startFlowReliable(a, ap.accel_nodes[k], ap.drx_nodes[k],
                              ap.model->motions[k].in_bytes,
                              [this, a, k] {
                AppInstance &ap2 = _apps[a];
                closePhase(ap2, Phase::Movement, 2 * k + 1);
                ap2.drx_units[k]->submit(
                    ap2.model->motions[k].drx_cycles,
                    [this, a, k] { restructureDone(a, k); });
            });
        };
        if (app.queues) {
            driver::DataQueue &q = app.queues->rx(
                static_cast<unsigned>(k + 1),
                driver::PeerKind::Accelerator);
            if (robust::CreditGate *gate = gateFor(a, k)) {
                // Credit-gated producer: the accelerator may not push
                // until the RX ring has window room; a blocked push
                // waits in simulated time and is traced as
                // backpressure. Grants are clamped to the ring's
                // capacity, so a granted push can never overflow.
                gate->acquire(app.model->motions[k].in_bytes, _eq.now(),
                              [this, a, k, flow_in](Tick) {
                    AppInstance &ap = _apps[a];
                    ap.queues
                        ->rx(static_cast<unsigned>(k + 1),
                             driver::PeerKind::Accelerator)
                        .push(ap.model->motions[k].in_bytes);
                    ap.push_ok = true;
                    flow_in();
                });
                return;
            }
            app.push_ok = q.push(mt.in_bytes);
            if (!app.push_ok)
                reportOverflow(q);
        }
        flow_in();
        return;
      }
      case Placement::PcieIntegrated: {
        // Single flow through the switch; restructuring streams at line
        // rate inside it, so only its residual latency is exposed.
        app.flow_start = _eq.now();
        startFlowReliable(a, app.accel_nodes[k], app.accel_nodes[k + 1],
                          mt.in_bytes, [this, a, k] {
            AppInstance &ap = _apps[a];
            closePhase(ap, Phase::Movement, 2 * k + 1);
            const Tick elapsed = _eq.now() - ap.flow_start;
            const Tick drx_time = ClockDomain{_cfg.drx.freq_hz}
                                      .cyclesToTicks(
                                          ap.model->motions[k].drx_cycles);
            const Tick extra =
                drx_time > elapsed ? drx_time - elapsed : 0;
            _eq.scheduleIn(extra,
                           [this, a, k] { restructureDone(a, k); });
        });
        return;
      }
    }
}

void
SystemSim::restructureDone(std::size_t a, std::size_t k)
{
    AppInstance &app = _apps[a];
    closePhase(app, Phase::Restructure, 2 * k + 1);
    if (_cfg.placement == Placement::AllCpu) {
        startKernel(a, k + 1);
        return;
    }
    if (_cfg.placement == Placement::PcieIntegrated) {
        // Data already arrived with the flow; only the doorbell remains.
        chainThen(a, [this, a, k] { deliverToNext(a, k); });
        return;
    }
    // Restructure-complete interrupt, then p2p DMA to the next device
    // (a descriptor fetch instead under descriptor chaining).
    chainThen(a, [this, a, k] {
        AppInstance &ap = _apps[a];
        const MotionTiming &mt = ap.model->motions[k];
        pcie::NodeId src;
        switch (_cfg.placement) {
          case Placement::MultiAxl:
          case Placement::IntegratedDrx:
            src = _hostmem;
            break;
          default:
            src = ap.drx_nodes[k];
            break;
        }
        // The notify latency stays inside the Movement phase.
        startFlowReliable(a, src, ap.accel_nodes[k + 1], mt.out_bytes,
                          [this, a, k] {
            AppInstance &ap2 = _apps[a];
            closePhase(ap2, Phase::Movement, 2 * k + 1);
            if (ap2.queues) {
                driver::DataQueue &q = ap2.queues->rx(
                    static_cast<unsigned>(k + 1),
                    driver::PeerKind::Accelerator);
                const std::uint64_t bytes =
                    ap2.model->motions[k].in_bytes;
                if (robust::CreditGate *gate = gateFor(a, k)) {
                    q.pop(bytes);
                    gate->release(bytes, _eq.now());
                } else if (ap2.push_ok) {
                    // A rejected push left nothing to pop.
                    q.pop(bytes);
                }
            }
            deliverToNext(a, k);
        });
    });
}

void
SystemSim::deliverToNext(std::size_t a, std::size_t k)
{
    startKernel(a, k + 1);
}

void
SystemSim::requestDone(std::size_t a)
{
    AppInstance &app = _apps[a];
    traceGap(app); // the final completion interrupt's latency
    const Tick lat_ticks = _eq.now() - app.request_start;
    app.latency_ms_sum += ticksToMs(lat_ticks);
    app.latencies_ms.push_back(ticksToMs(lat_ticks));
    if (_inflight > 0)
        --_inflight;
    if (_admission)
        _admission->recordSojourn(lat_ticks, _eq.now());
    if (_cfg.robust.deadline && lat_ticks > _cfg.robust.deadline) {
        ++app.deadline_misses;
        if (auto *tb = trace::active())
            tb->count("sys.deadline_misses", _eq.now());
    }
    ++app.requests_done;
    _last_done = std::max(_last_done, _eq.now());
    if (app.requests_done < _cfg.requests_per_app)
        startRequest(a);
}

RunStats
SystemSim::run()
{
    // Stagger application start times: real deployments do not launch
    // every pipeline in the same microsecond, and lock-step starts
    // artificially synchronize the contention on the host pool.
    for (std::size_t a = 0; a < _apps.size(); ++a) {
        _eq.schedule(static_cast<Tick>(a) * 250 * tick_per_us,
                     [this, a] { startRequest(a); });
    }
    _eq.run();

    RunStats stats;
    const double n_reqs = static_cast<double>(_cfg.requests_per_app) *
                          static_cast<double>(_apps.size());
    double tput_sum = 0;
    double bottleneck = 0;
    for (const AppInstance &app : _apps) {
        if (app.requests_done != _cfg.requests_per_app)
            dmx_panic("system: app '%s' finished %u of %u requests",
                      app.model->name.c_str(), app.requests_done,
                      _cfg.requests_per_app);
        // Latency means are over *completed* requests; shed requests
        // never started, so they carry no latency. With admission off
        // (shed == 0) this is the legacy divisor bit for bit.
        const double completed =
            static_cast<double>(_cfg.requests_per_app - app.shed);
        stats.per_app_latency_ms.push_back(
            completed > 0 ? app.latency_ms_sum / completed : 0.0);
        stats.avg_latency_ms += stats.per_app_latency_ms.back();
        stats.per_app_p99_latency_ms.push_back(
            common::percentileNearestRank(app.latencies_ms, 0.99));
        stats.per_app_shed.push_back(app.shed);
        stats.shed_requests += app.shed;
        stats.per_app_deadline_misses.push_back(app.deadline_misses);
        stats.deadline_misses += app.deadline_misses;
        for (const auto &gate : app.gates) {
            stats.backpressure_stalls += gate->stalls();
            stats.backpressure_stall_ticks += gate->stallTicks();
        }
        stats.kernel_ticks += app.time_ticks[0];
        stats.restructure_ticks += app.time_ticks[1];
        stats.movement_ticks += app.time_ticks[2];

        double worst_stage_ms = 0;
        for (Tick s : app.stage_ticks) {
            worst_stage_ms = std::max(
                worst_stage_ms,
                completed > 0 ? ticksToMs(s) / completed : 0.0);
        }
        bottleneck = std::max(bottleneck, worst_stage_ms);
        if (worst_stage_ms > 0)
            tput_sum += 1000.0 / worst_stage_ms;
    }
    stats.interrupts = _irq->interruptsDelivered();
    stats.polls = _irq->pollsDelivered();
    stats.pcie_bytes = _fabric ? _fabric->totalBytes() : 0;
    stats.flow_retries = _flow_retries;
    stats.dropped_irqs = _dropped_irqs;
    stats.queue_overflows = _queue_overflows;
    stats.peak_active_flows = _fabric ? _fabric->peakActiveFlows() : 0;
    stats.driver_round_trips = _driver_round_trips;
    stats.descriptor_fetches = _desc_fetches;
    stats.doorbells = _fabric ? _fabric->doorbells() : 0;
    stats.notifications_suppressed = _suppressed_notifications;
    stats.coalesced_bursts = _irq->coalescedBursts();

    const double n_apps = static_cast<double>(_apps.size());
    stats.avg_latency_ms /= n_apps;
    stats.breakdown.kernel_ms = ticksToMs(stats.kernel_ticks) / n_reqs;
    stats.breakdown.restructure_ms =
        ticksToMs(stats.restructure_ticks) / n_reqs;
    stats.breakdown.movement_ms = ticksToMs(stats.movement_ticks) / n_reqs;
    stats.avg_throughput_rps = tput_sum / n_apps;
    stats.bottleneck_stage_ms = bottleneck;
    stats.makespan_ms = ticksToMs(_last_done);
    stats.makespan_ticks = _last_done;

    // Energy: per-unit inputs summed in unit-creation order.
    EnergyInputs ein;
    ein.makespan_seconds = ticksToSeconds(_last_done);
    ein.host_busy_core_seconds = _pool->busyCoreSeconds();
    for (const accel::DeviceUnit *u : _accel_unit_ptrs)
        ein.accel_busy_seconds += u->busySeconds();
    double accel_watts_sum = 0;
    for (double w : _accel_watts)
        accel_watts_sum += w;
    for (const accel::DeviceUnit *u : _drx_unit_ptrs)
        ein.drx_busy_seconds += u->busySeconds();
    ein.drx_count = _drx_unit_count;
    ein.accel_count = static_cast<unsigned>(_accel_watts.size());
    if (ein.accel_count > 0)
        ein.accel_active_watts = accel_watts_sum / ein.accel_count;
    ein.accel_idle_watts = watts_accel_idle;
    switch (_cfg.placement) {
      case Placement::BumpInTheWire:
        ein.drx_static_watts_per_unit = watts_bitw_static;
        break;
      case Placement::StandaloneDrx:
        ein.drx_static_watts_per_unit = watts_standalone_static;
        break;
      case Placement::IntegratedDrx:
        ein.drx_static_watts_per_unit = watts_integrated_static;
        break;
      default:
        break;
    }
    ein.pcie_bytes = stats.pcie_bytes;
    stats.energy = computeEnergy(ein);
    return stats;
}

} // namespace

RunStats
simulateSystem(const SystemConfig &cfg, const std::vector<AppModel> &apps)
{
    const integrity::IntegrityStats ibefore =
        cfg.integrity_plan ? cfg.integrity_plan->stats()
                           : integrity::IntegrityStats{};
    SystemSim sim(cfg, apps);
    RunStats stats = sim.run();
    if (cfg.integrity_plan) {
        const integrity::IntegrityStats &iafter =
            cfg.integrity_plan->stats();
        stats.integrity_injected =
            iafter.injected() - ibefore.injected();
        stats.integrity_detected =
            iafter.detected() - ibefore.detected();
        stats.integrity_corrected =
            iafter.corrected() - ibefore.corrected();
        stats.integrity_uncorrected =
            iafter.uncorrected() - ibefore.uncorrected();
        stats.integrity_sdc_escapes =
            iafter.payload_flips - ibefore.payload_flips;
        stats.link_crc_replays =
            iafter.link_crc_replays - ibefore.link_crc_replays;
    }
    return stats;
}

} // namespace dmx::sys
