#include "pcie/fabric.hh"

#include <algorithm>
#include <cmath>
#include <deque>
#include <limits>

#include "common/logging.hh"
#include "trace/trace.hh"

namespace dmx::pcie
{

namespace
{

/// A flow is considered drained when fewer than this many bytes remain.
constexpr double completion_epsilon = 1.0;

} // namespace

Fabric::Fabric(sim::EventQueue &eq, std::string name, Params params)
    : sim::SimObject(eq, std::move(name)), _params(params)
{
}

NodeId
Fabric::addNode(NodeKind kind, std::string name)
{
    _nodes.push_back(Node{kind, std::move(name), {}});
    return static_cast<NodeId>(_nodes.size() - 1);
}

void
Fabric::connect(NodeId a, NodeId b, Generation gen, unsigned lanes)
{
    connectCustom(a, b, linkBandwidth(gen, lanes));
}

void
Fabric::connectCustom(NodeId a, NodeId b, BytesPerSec bandwidth)
{
    if (a >= _nodes.size() || b >= _nodes.size())
        dmx_fatal("connect: node id out of range");
    if (a == b)
        dmx_fatal("connect: cannot self-connect node %u", a);
    if (bandwidth <= 0)
        dmx_fatal("connect: need positive bandwidth");
    // Tree invariant: the two nodes must not already be connected.
    if (!findPath(a, b).empty())
        dmx_fatal("connect: %s and %s are already connected (tree only)",
                  _nodes[a].name.c_str(), _nodes[b].name.c_str());

    const auto link_id = static_cast<std::uint32_t>(_links.size());
    _links.push_back(Link{a, b, bandwidth});
    _link_stats.emplace_back();
    _nodes[a].links.push_back(link_id);
    _nodes[b].links.push_back(link_id);
    // Topology changed: cached paths are stale. In-flight flows keep
    // their shared PathEntry (tree growth never reroutes an existing
    // path, and removal does not exist).
    _path_cache.clear();
}

std::vector<Fabric::DirectedLink>
Fabric::findPath(NodeId src, NodeId dst) const
{
    if (src == dst)
        return {};
    // BFS over the tree; parent[] records the directed link taken.
    std::vector<std::int64_t> parent_link(_nodes.size(), -1);
    std::vector<NodeId> parent_node(_nodes.size(), src);
    std::vector<bool> seen(_nodes.size(), false);
    std::deque<NodeId> frontier{src};
    seen[src] = true;
    while (!frontier.empty()) {
        const NodeId cur = frontier.front();
        frontier.pop_front();
        if (cur == dst)
            break;
        for (std::uint32_t link_id : _nodes[cur].links) {
            const Link &link = _links[link_id];
            const NodeId other = link.a == cur ? link.b : link.a;
            if (seen[other])
                continue;
            seen[other] = true;
            parent_link[other] = link_id;
            parent_node[other] = cur;
            frontier.push_back(other);
        }
    }
    if (!seen[dst])
        return {};
    std::vector<DirectedLink> path;
    for (NodeId cur = dst; cur != src; cur = parent_node[cur]) {
        const auto link_id = static_cast<std::uint32_t>(parent_link[cur]);
        const Link &link = _links[link_id];
        // forward == the flow moves a -> b on this link.
        const bool forward = link.b == cur;
        path.push_back(DirectedLink{link_id, forward});
    }
    std::reverse(path.begin(), path.end());
    return path;
}

const std::shared_ptr<const Fabric::PathEntry> &
Fabric::cachedPath(NodeId src, NodeId dst)
{
    const auto key = std::make_pair(src, dst);
    auto it = _path_cache.find(key);
    if (it != _path_cache.end())
        return it->second;

    auto entry = std::make_shared<PathEntry>();
    entry->path = findPath(src, dst);
    // Pre-sum the interior traversal fees: one fee per switch or root
    // complex strictly inside the path.
    NodeId cur = src;
    for (std::size_t i = 0; i + 1 < entry->path.size(); ++i) {
        const Link &link = _links[entry->path[i].link];
        cur = entry->path[i].forward ? link.b : link.a;
        if (_nodes[cur].kind == NodeKind::Switch) {
            entry->interior_latency += _params.switch_latency;
            ++entry->n_switches;
        } else if (_nodes[cur].kind == NodeKind::RootComplex) {
            entry->interior_latency += _params.root_latency;
        }
    }
    return _path_cache.emplace(key, std::move(entry)).first->second;
}

unsigned
Fabric::pathLength(NodeId src, NodeId dst) const
{
    return static_cast<unsigned>(findPath(src, dst).size());
}

unsigned
Fabric::switchesOnPath(NodeId src, NodeId dst) const
{
    const auto path = findPath(src, dst);
    if (path.empty())
        return 0;
    unsigned switches = 0;
    // Interior nodes of the path are every node except src and dst.
    NodeId cur = src;
    for (std::size_t i = 0; i + 1 < path.size(); ++i) {
        const Link &link = _links[path[i].link];
        cur = path[i].forward ? link.b : link.a;
        if (_nodes[cur].kind == NodeKind::Switch ||
            _nodes[cur].kind == NodeKind::RootComplex) {
            ++switches;
        }
    }
    (void)cur;
    return switches;
}

BytesPerSec
Fabric::linkCapacity(std::size_t link) const
{
    if (link >= _links.size())
        dmx_fatal("linkCapacity: link id out of range");
    return _links[link].capacity;
}

FlowId
Fabric::startFlow(NodeId src, NodeId dst, std::uint64_t bytes,
                  FlowCallback callback)
{
    // The status-blind entry point: completion means delivery.
    return startFlowChecked(
        src, dst, bytes,
        [callback = std::move(callback)](bool ok) {
            (void)ok;
            if (callback)
                callback();
        });
}

FlowId
Fabric::startFlowChecked(NodeId src, NodeId dst, std::uint64_t bytes,
                         FlowStatusCallback callback)
{
    ++_doorbells;
    return startFlowInternal(src, dst, bytes, _params.dma_setup,
                             std::move(callback));
}

FlowId
Fabric::startDescriptorFlow(const DmaDescriptor &desc,
                            bool first_descriptor,
                            FlowStatusCallback callback)
{
    if (first_descriptor) {
        ++_doorbells;
    } else {
        ++_descriptor_fetches;
        if (auto *tb = trace::active())
            tb->count("fabric.descriptor_fetches", now());
    }
    return startFlowInternal(desc.src, desc.dst, desc.bytes,
                             first_descriptor
                                 ? _params.dma_setup
                                 : _params.desc_fetch_latency,
                             std::move(callback));
}

FlowId
Fabric::startFlowInternal(NodeId src, NodeId dst, std::uint64_t bytes,
                          Tick setup, FlowStatusCallback callback)
{
    if (src >= _nodes.size() || dst >= _nodes.size())
        dmx_fatal("startFlow: node id out of range");
    if (src == dst)
        dmx_fatal("startFlow: src == dst (%s)", _nodes[src].name.c_str());

    fault::FlowAction action = fault::FlowAction::None;
    if (_fault_hook)
        action = _fault_hook(src, dst, bytes);
    if (action == fault::FlowAction::Stall) {
        // The link wedged mid-transfer: the DMA engine never raises its
        // completion. The flow is dropped rather than parked so a
        // wedged transfer does not consume fair-share bandwidth; the
        // caller's watchdog is responsible for detecting the loss.
        ++_stalled_flows;
        if (auto *tb = trace::active())
            tb->count("fabric.stalled", now());
        return _next_flow++;
    }

    const auto &path = cachedPath(src, dst);
    if (path->path.empty())
        dmx_fatal("startFlow: no path between %s and %s",
                  _nodes[src].name.c_str(), _nodes[dst].name.c_str());
    const bool corrupt = action == fault::FlowAction::Corrupt;
    if (corrupt) {
        ++_corrupted_flows;
        if (auto *tb = trace::active())
            tb->count("fabric.corrupted", now());
    }

    // Start latency: the setup fee (full DMA-engine setup, or a linked
    // descriptor fetch) plus the pre-summed interior traversal fees.
    Tick latency = setup + path->interior_latency;
    _switch_traversals += path->n_switches;

    // Link-CRC replay: wire errors detected by the link CRC are
    // recovered by deterministic TLP retransmission before streaming
    // becomes eligible - the payload stays intact, only time is lost.
    if (_crc_hook) {
        if (const unsigned replays = _crc_hook(src, dst, bytes)) {
            const Tick extra = replays * _params.crc_replay_latency;
            _crc_replays += replays;
            if (auto *tb = trace::active()) {
                tb->span(trace::Category::Integrity, "crc_replay",
                         "fabric", now() + latency,
                         now() + latency + extra, replays);
                tb->count("fabric.crc_replays", now(),
                          static_cast<double>(replays));
            }
            latency += extra;
        }
    }
    _total_bytes += bytes;

    advanceProgress();
    const FlowId id = _next_flow++;

    std::uint32_t slot;
    if (!_free_slots.empty()) {
        slot = _free_slots.back();
        _free_slots.pop_back();
    } else {
        slot = static_cast<std::uint32_t>(_f_remaining.size());
        _f_remaining.emplace_back();
        _f_rate.emplace_back();
        _f_eligible.emplace_back();
        _f_cold.emplace_back();
        _f_frozen.emplace_back();
    }
    _f_remaining[slot] = static_cast<double>(bytes);
    _f_rate[slot] = 0;
    _f_eligible[slot] = now() + latency;
    FlowCold &cold = _f_cold[slot];
    cold.id = id;
    cold.src = src;
    cold.dst = dst;
    cold.trace_begin = now();
    cold.bytes = bytes;
    cold.corrupt = corrupt;
    cold.in_reap = false;
    cold.path = path;
    cold.callback = std::move(callback);

    // New ids are strictly increasing, so appending keeps _active in
    // FlowId-ascending order - the iteration order every float
    // accumulation below is pinned to.
    _active.push_back(slot);
    if (_active.size() > _peak_active_flows)
        _peak_active_flows = _active.size();

    // Flows born at or below the completion epsilon never cross it in
    // advanceProgress, so they become reap candidates immediately.
    if (_f_remaining[slot] <= completion_epsilon) {
        cold.in_reap = true;
        _reap_cand.push_back(slot);
    }

    solveRates();
    scheduleNextCompletion();
    return id;
}

void
Fabric::advanceProgress()
{
    const Tick t = now();
    if (t <= _last_update) {
        _last_update = t;
        return;
    }
    const double dt_sec = ticksToSeconds(t - _last_update);
    // FlowId-ascending: link busy integrals accumulate in flow start
    // order.
    for (const std::uint32_t slot : _active) {
        const double rate = _f_rate[slot];
        if (rate <= 0)
            continue;
        double &remaining = _f_remaining[slot];
        const double moved = std::min(remaining, rate * dt_sec);
        remaining -= moved;
        for (const DirectedLink &dl : _f_cold[slot].path->path) {
            LinkStats &ls = _link_stats[dl.link];
            ls.bytes += static_cast<std::uint64_t>(moved);
            ls.busy_byte_seconds +=
                (rate / _links[dl.link].capacity) * dt_sec;
        }
        // Epsilon crossing: this flow is done streaming - queue it for
        // the reaper so completion checks never rescan the whole flow
        // table.
        if (remaining <= completion_epsilon && !_f_cold[slot].in_reap) {
            _f_cold[slot].in_reap = true;
            _reap_cand.push_back(slot);
        }
    }
    _last_update = t;
}

void
Fabric::solveRates()
{
    // Progressive filling (max-min fairness) over dense arrays. Each
    // *direction* of a link has the full link capacity (PCIe is full
    // duplex). Every round raises all unfrozen flows by the tightest
    // direction's fair share, charges the directions they cross, and
    // freezes the flows on directions that saturated. Live counts are
    // maintained incrementally rather than recounted each round.
    const std::size_t ncaps = _links.size() * 2;
    if (_cap_residual.size() < ncaps) {
        _cap_residual.resize(ncaps);
        _cap_live.resize(ncaps);
        _cap_epoch.resize(ncaps, 0);
    }
    const std::uint64_t epoch = ++_solve_epoch;
    _caps_used.clear();
    _unfrozen.clear();

    const Tick t = now();
    for (const std::uint32_t slot : _active) {
        _f_rate[slot] = 0;
        if (_f_eligible[slot] > t || _f_remaining[slot] <= 0)
            continue;
        _unfrozen.push_back(slot);
        _f_frozen[slot] = 0;
        for (const DirectedLink &dl : _f_cold[slot].path->path) {
            const std::uint32_t idx = dl.link * 2 + (dl.forward ? 1 : 0);
            if (_cap_epoch[idx] != epoch) {
                _cap_epoch[idx] = epoch;
                _cap_residual[idx] = _links[dl.link].capacity;
                _cap_live[idx] = 0;
                _caps_used.push_back(idx);
            }
            ++_cap_live[idx];
        }
    }

    std::size_t remaining_flows = _unfrozen.size();
    while (remaining_flows > 0) {
        double min_share = std::numeric_limits<double>::infinity();
        for (const std::uint32_t idx : _caps_used) {
            if (_cap_live[idx] == 0)
                continue;
            min_share = std::min(
                min_share,
                _cap_residual[idx] / static_cast<double>(_cap_live[idx]));
        }
        if (!std::isfinite(min_share))
            break; // no constrained flows left (should not happen)

        for (const std::uint32_t idx : _caps_used) {
            _cap_residual[idx] -=
                min_share * static_cast<double>(_cap_live[idx]);
        }
        for (const std::uint32_t slot : _unfrozen) {
            if (!_f_frozen[slot])
                _f_rate[slot] += min_share;
        }
        // Freeze flows that touch a saturated direction; drop their
        // contribution from every cap they cross.
        for (const std::uint32_t slot : _unfrozen) {
            if (_f_frozen[slot])
                continue;
            const auto &path = _f_cold[slot].path->path;
            bool saturated = false;
            for (const DirectedLink &dl : path) {
                const std::uint32_t idx =
                    dl.link * 2 + (dl.forward ? 1 : 0);
                if (_cap_residual[idx] <= 1e-3) {
                    saturated = true;
                    break;
                }
            }
            if (!saturated)
                continue;
            _f_frozen[slot] = 1;
            --remaining_flows;
            for (const DirectedLink &dl : path) {
                const std::uint32_t idx =
                    dl.link * 2 + (dl.forward ? 1 : 0);
                --_cap_live[idx];
            }
        }
    }
}

void
Fabric::scheduleNextCompletion()
{
    _pending_check.cancel();
    if (_active.empty())
        return;

    const Tick t = now();
    Tick earliest = max_tick;
    for (const std::uint32_t slot : _active) {
        Tick candidate;
        if (_f_eligible[slot] > t) {
            candidate = _f_eligible[slot];
        } else if (_f_remaining[slot] <= completion_epsilon) {
            candidate = t;
        } else if (_f_rate[slot] > 0) {
            const double sec = _f_remaining[slot] / _f_rate[slot];
            candidate = t + secondsToTicks(sec) + 1;
        } else {
            continue; // stalled; will be re-solved on the next change
        }
        earliest = std::min(earliest, candidate);
    }
    if (earliest == max_tick)
        return;
    earliest = std::max(earliest, t + 1);
    _pending_check = eventq().schedule(
        earliest, [this] { onCompletionCheck(); });
}

void
Fabric::onCompletionCheck()
{
    advanceProgress();

    // Only reap candidates - flows whose residual crossed the epsilon -
    // are visited, in FlowId order (the order of trace emission and
    // callback firing). Collect finished flows first, then fire
    // callbacks once the fabric state is consistent (callbacks often
    // start follow-on flows). Candidates that are not yet
    // streaming-eligible stay queued; remaining never increases, so a
    // candidate can never leave the list except by completing.
    std::vector<std::pair<FlowStatusCallback, bool>> done;
    const Tick t = now();
    std::vector<std::uint32_t> dead;
    if (!_reap_cand.empty()) {
        std::sort(_reap_cand.begin(), _reap_cand.end(),
                  [this](std::uint32_t a, std::uint32_t b) {
                      return _f_cold[a].id < _f_cold[b].id;
                  });
        std::size_t keep = 0;
        for (const std::uint32_t slot : _reap_cand) {
            ++_settle_visits;
            FlowCold &cold = _f_cold[slot];
            if (_f_eligible[slot] <= t &&
                _f_remaining[slot] <= completion_epsilon) {
                if (auto *tb = trace::active()) {
                    const std::string label = _nodes[cold.src].name +
                                              "->" + _nodes[cold.dst].name;
                    tb->span(trace::Category::Flow, label, name(),
                             cold.trace_begin, t, cold.bytes);
                    // Per-hop spans: one lane per directed link, so
                    // Perfetto shows each physical link's occupancy.
                    for (const DirectedLink &dl : cold.path->path) {
                        const Link &link = _links[dl.link];
                        const NodeId from = dl.forward ? link.a : link.b;
                        const NodeId to = dl.forward ? link.b : link.a;
                        tb->span(trace::Category::Flow, label,
                                 name() + "." + _nodes[from].name + "->" +
                                     _nodes[to].name,
                                 cold.trace_begin, t, cold.bytes);
                    }
                }
                done.emplace_back(std::move(cold.callback), !cold.corrupt);
                dead.push_back(slot);
            } else {
                _reap_cand[keep++] = slot;
            }
        }
        _reap_cand.resize(keep);
    }

    if (!dead.empty()) {
        // Both lists are FlowId-sorted: remove with one merge pass.
        std::size_t di = 0, w = 0;
        for (std::size_t r = 0; r < _active.size(); ++r) {
            if (di < dead.size() && _active[r] == dead[di]) {
                ++di;
                continue;
            }
            _active[w++] = _active[r];
        }
        _active.resize(w);
        for (const std::uint32_t slot : dead) {
            _f_cold[slot].path.reset();
            _f_cold[slot].in_reap = false;
            _free_slots.push_back(slot);
        }
    }

    solveRates();
    scheduleNextCompletion();

    for (auto &[cb, ok] : done) {
        if (cb)
            cb(ok);
    }
}

} // namespace dmx::pcie
