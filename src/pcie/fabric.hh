/**
 * @file
 * Flow-level PCIe fabric simulator.
 *
 * The fabric is a tree of nodes (one root complex, switches, endpoints)
 * connected by full-duplex links. Data movement is modelled at flow
 * granularity: a flow carries N bytes from one node to another along the
 * unique tree path, sharing each directed link's capacity with all other
 * concurrent flows under max-min fairness. Whenever the set of active
 * flows changes, rates are re-solved and the earliest completion is
 * rescheduled. This reproduces the paper's central contention effect:
 * many accelerators oversubscribing the x8 upstream link of a switch.
 *
 * Latency model per flow: a fixed start latency (DMA engine setup and
 * doorbell) plus 110 ns port-to-port latency per switch traversed plus
 * the bandwidth-determined streaming time.
 */

#ifndef DMX_PCIE_FABRIC_HH
#define DMX_PCIE_FABRIC_HH

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "fault/hooks.hh"
#include "pcie/generation.hh"
#include "sim/sim_object.hh"

namespace dmx::pcie
{

/** Index of a node in the fabric. */
using NodeId = std::uint32_t;

/** Index of an active flow. */
using FlowId = std::uint64_t;

/** What a node is; affects traversal latency accounting. */
enum class NodeKind { RootComplex, Switch, EndPoint };

/** Per-link static counters exposed for energy accounting. */
struct LinkStats
{
    std::uint64_t bytes = 0;          ///< payload bytes moved (both dirs)
    double busy_byte_seconds = 0;     ///< integral of rate/capacity dt
};

/** Completion callback: invoked at the simulated completion time. */
using FlowCallback = std::function<void()>;

/**
 * Status-carrying completion callback: @p ok is false when the flow was
 * delivered but failed its end-to-end check (injected corruption).
 * Stalled flows never invoke their callback; callers that can see
 * stalls own a watchdog (the runtime's per-command timeout).
 */
using FlowStatusCallback = std::function<void(bool ok)>;

/** Tunable fabric constants. */
struct FabricParams
{
    /// Switch port-to-port forwarding latency (paper: 110 ns).
    Tick switch_latency = 110 * tick_per_ns;
    /// Root-complex traversal latency.
    Tick root_latency = 150 * tick_per_ns;
    /// Fixed software/DMA-engine setup cost charged to each flow.
    Tick dma_setup = 500 * tick_per_ns;
    /// Delay charged per link-CRC replay event (replay-timer expiry
    /// plus TLP retransmission) before the flow may start streaming.
    Tick crc_replay_latency = 600 * tick_per_ns;
    /// Cost of the DMA engine fetching the *next* linked-list
    /// descriptor out of host memory: one small read across the
    /// fabric, far cheaper than a full software doorbell + engine
    /// setup (dma_setup). Charged instead of dma_setup for every
    /// descriptor of a chain after the first.
    Tick desc_fetch_latency = 100 * tick_per_ns;
};

/**
 * One linked-list DMA descriptor: a (src, dst, bytes) transfer the
 * engine executes autonomously. In a chain of descriptors the first
 * pays the full dma_setup (doorbell + engine programming), each
 * successor only the desc_fetch_latency of pulling the next descriptor
 * from memory (see startDescriptorFlow).
 */
struct DmaDescriptor
{
    NodeId src = 0;
    NodeId dst = 0;
    std::uint64_t bytes = 0;
};

/**
 * The PCIe interconnect.
 *
 * Build the topology first (addNode/connect), then start flows. The
 * topology must be a tree; connect() enforces acyclicity.
 */
class Fabric : public sim::SimObject
{
  public:
    /** Back-compat alias: fabric parameters. */
    using Params = FabricParams;

    Fabric(sim::EventQueue &eq, std::string name, Params params = {});

    /** Add a node of the given kind; @return its id. */
    NodeId addNode(NodeKind kind, std::string name);

    /**
     * Connect two nodes with a full-duplex link.
     *
     * @param a     one node
     * @param b     other node
     * @param gen   PCIe generation of the link
     * @param lanes lane count
     */
    void connect(NodeId a, NodeId b, Generation gen, unsigned lanes);

    /**
     * Connect two nodes with an arbitrary-bandwidth link (used for
     * non-PCIe resources such as the host DRAM staging path, whose
     * bandwidth does not scale with the PCIe generation).
     */
    void connectCustom(NodeId a, NodeId b, BytesPerSec bandwidth);

    /**
     * Begin moving @p bytes from @p src to @p dst.
     *
     * @param src      source node
     * @param dst      destination node (must differ from src)
     * @param bytes    payload size
     * @param callback invoked when the last byte arrives
     * @return flow id (also passed to nothing else; useful for debugging)
     */
    FlowId startFlow(NodeId src, NodeId dst, std::uint64_t bytes,
                     FlowCallback callback);

    /**
     * Like startFlow, but the callback learns whether the payload
     * arrived intact. Under an installed fault hook the flow may stall
     * (callback never fires) or arrive corrupted (callback fires with
     * ok == false at the normal completion time).
     */
    FlowId startFlowChecked(NodeId src, NodeId dst, std::uint64_t bytes,
                            FlowStatusCallback callback);

    /**
     * Start one descriptor of a linked-list DMA chain. Identical to
     * startFlowChecked - same fault-hook consultation, same link-CRC
     * replays, same contention model - except for the setup cost:
     * @p first_descriptor charges the full dma_setup (the host rang
     * the doorbell), a follow-on descriptor charges only
     * desc_fetch_latency (the engine pulled the next descriptor out
     * of memory itself).
     */
    FlowId startDescriptorFlow(const DmaDescriptor &desc,
                               bool first_descriptor,
                               FlowStatusCallback callback);

    /**
     * @return doorbell rings: submissions that paid the full dma_setup
     * (startFlow/startFlowChecked, and the first descriptor of a batch
     * or chain). Follow-on descriptors are engine-fetched and counted
     * by descriptorFetches() instead. A stalled submission still rang
     * its doorbell. Pure observability; never affects timing.
     */
    std::uint64_t doorbells() const { return _doorbells; }

    /** @return non-first descriptors fetched by the engine itself. */
    std::uint64_t descriptorFetches() const { return _descriptor_fetches; }

    /**
     * Install (or clear, with nullptr) the fault-injection hook
     * consulted by every subsequent flow start.
     */
    void setFaultHook(fault::FlowHook hook) { _fault_hook = std::move(hook); }

    /**
     * Install (or clear, with nullptr) the link-CRC hook consulted by
     * every flow that actually starts. Each reported replay event
     * deterministically delays the flow's streaming eligibility by
     * params().crc_replay_latency: the error is detected and recovered
     * at the link layer, so it costs time but never data.
     */
    void setLinkCrcHook(fault::LinkCrcHook hook)
    {
        _crc_hook = std::move(hook);
    }

    /** @return flows that stalled (wedged, never completing). */
    std::uint64_t stalledFlows() const { return _stalled_flows; }

    /** @return flows delivered with an injected corruption. */
    std::uint64_t corruptedFlows() const { return _corrupted_flows; }

    /** @return link-CRC replay events charged to flows. */
    std::uint64_t crcReplays() const { return _crc_replays; }

    /** @return number of in-flight flows. */
    std::size_t activeFlows() const { return _active.size(); }

    /**
     * @return peak number of concurrently in-flight flows observed.
     * Pure observability for overload diagnosis: how deep did the
     * fabric's contention ever get? Never affects timing.
     */
    std::size_t peakActiveFlows() const { return _peak_active_flows; }

    /** @return nodes in the fabric. */
    std::size_t nodeCount() const { return _nodes.size(); }

    /** @return hops (links) on the unique path between two nodes. */
    unsigned pathLength(NodeId src, NodeId dst) const;

    /** @return switches traversed on the path between two nodes. */
    unsigned switchesOnPath(NodeId src, NodeId dst) const;

    /** @return cumulative per-link statistics, indexed by link id. */
    const std::vector<LinkStats> &linkStats() const { return _link_stats; }

    /** @return total payload bytes moved through the fabric. */
    std::uint64_t totalBytes() const { return _total_bytes; }

    /** @return total switch traversals (for energy accounting). */
    std::uint64_t switchTraversals() const { return _switch_traversals; }

    /**
     * @return flow-record visits performed by completion reaping. Pure
     * observability: a completion check visits only the flows whose
     * residual crossed the completion epsilon, never the whole flow
     * table, so draining n flows costs O(n) visits. The core suite
     * pins that linear scaling with this counter.
     */
    std::uint64_t settleVisits() const { return _settle_visits; }

    /** @return capacity of link @p link in bytes/second. */
    BytesPerSec linkCapacity(std::size_t link) const;

    const Params &params() const { return _params; }

  private:
    struct Node
    {
        NodeKind kind;
        std::string name;
        std::vector<std::uint32_t> links; ///< incident link ids
    };

    struct Link
    {
        NodeId a, b;
        BytesPerSec capacity;
    };

    /** A directed use of a link: link id + direction flag (a->b?). */
    struct DirectedLink
    {
        std::uint32_t link;
        bool forward;

        bool
        operator<(const DirectedLink &o) const
        {
            return link != o.link ? link < o.link : forward < o.forward;
        }
    };

    /**
     * Cached path between a (src, dst) pair with the interior-node
     * latency pre-summed. Flows hold a shared_ptr so a topology
     * mutation can drop the cache without invalidating in-flight
     * flows.
     */
    struct PathEntry
    {
        std::vector<DirectedLink> path;
        Tick interior_latency = 0;  ///< sum of switch/root traversal fees
        unsigned n_switches = 0;    ///< switches on the path
    };

    /** Cold per-flow state (off the settle loop). */
    struct FlowCold
    {
        FlowId id = 0;
        NodeId src = 0, dst = 0;
        Tick trace_begin = 0;
        std::uint64_t bytes = 0;
        bool corrupt = false;
        bool in_reap = false;       ///< queued on the reap-candidate list
        std::shared_ptr<const PathEntry> path;
        FlowStatusCallback callback;
    };

    /** Find the unique tree path between two nodes (directed links). */
    std::vector<DirectedLink> findPath(NodeId src, NodeId dst) const;

    /** Look up (or build) the cached PathEntry for (src, dst). */
    const std::shared_ptr<const PathEntry> &cachedPath(NodeId src,
                                                       NodeId dst);

    /** Shared flow-start body; @p setup is the charged setup latency. */
    FlowId startFlowInternal(NodeId src, NodeId dst, std::uint64_t bytes,
                             Tick setup, FlowStatusCallback callback);

    /** Charge progress to all flows for time elapsed since last update. */
    void advanceProgress();

    /** Re-solve max-min fair rates for all eligible flows. */
    void solveRates();

    /** (Re)schedule the completion-check event. */
    void scheduleNextCompletion();

    /** Handle the completion-check event. */
    void onCompletionCheck();

    Params _params;
    fault::FlowHook _fault_hook;
    fault::LinkCrcHook _crc_hook;
    std::uint64_t _stalled_flows = 0;
    std::uint64_t _corrupted_flows = 0;
    std::uint64_t _crc_replays = 0;
    std::size_t _peak_active_flows = 0;
    std::vector<Node> _nodes;
    std::vector<Link> _links;
    std::vector<LinkStats> _link_stats;
    FlowId _next_flow = 0;
    Tick _last_update = 0;
    sim::EventHandle _pending_check;
    std::uint64_t _total_bytes = 0;
    std::uint64_t _switch_traversals = 0;
    std::uint64_t _descriptor_fetches = 0;
    std::uint64_t _doorbells = 0;
    std::uint64_t _settle_visits = 0;

    // Flow state is structure-of-arrays over slot indices with a free
    // list; _active keeps live slots in FlowId-ascending order, which
    // pins every order-sensitive accumulation (link busy integrals,
    // solver round increments, reap/callback order) to flow start
    // order.
    std::vector<double> _f_remaining;       ///< [slot] bytes left
    std::vector<double> _f_rate;            ///< [slot] bytes/second
    std::vector<Tick> _f_eligible;          ///< [slot] streaming-eligible at
    std::vector<FlowCold> _f_cold;          ///< [slot] everything else
    std::vector<std::uint32_t> _free_slots; ///< vacant slot indices
    std::vector<std::uint32_t> _active;     ///< live slots, FlowId asc
    std::vector<std::uint32_t> _reap_cand;  ///< slots at/below epsilon
    std::map<std::pair<NodeId, NodeId>, std::shared_ptr<const PathEntry>>
        _path_cache;

    // Solver scratch, persistent across solves (epoch-stamped so no
    // per-solve clearing): one entry per directed link (link*2+forward).
    std::vector<double> _cap_residual;
    std::vector<std::uint32_t> _cap_live;
    std::vector<std::uint64_t> _cap_epoch;
    std::vector<std::uint32_t> _caps_used;
    std::vector<std::uint32_t> _unfrozen;   ///< eligible slots, id asc
    std::vector<std::uint8_t> _f_frozen;    ///< [slot] solver freeze flag
    std::uint64_t _solve_epoch = 0;
};

} // namespace dmx::pcie

#endif // DMX_PCIE_FABRIC_HH
