/**
 * @file
 * The simulator-core suite (ctest label: core).
 *
 * Each core engine - the slot-arena event queue, the SoA max-min
 * fabric, the system closed loop, the DRX interpreter - is checked
 * against an independent reference or a pinned result:
 *
 *  1. Event queue: the (when, prio, seq) FIFO tie-break order against
 *     a naive linear-scan reference queue (and a sorted list) under
 *     randomized schedule/cancel/run interleavings, including events
 *     that schedule children while firing.
 *  2. Fabric: completion ticks of random trees with staggered flows
 *     that share uplinks against a textbook bottleneck (water-filling)
 *     max-min fluid model.
 *  3. System: 200 randomized scenarios (random placement, app mix,
 *     request count; a quarter under a FaultPlan, a quarter under an
 *     IntegrityPlan) must reproduce a pinned digest of their integer
 *     RunStats and of every trace span and counter sample.
 *  4. DRX interpreter: every catalog restructuring kernel at random
 *     shapes, and 500 random stage chains on 16 ablation configs, must
 *     be byte-equal to restructure::executeOnCpu.
 *  5. Settle visits: completion reaping scales linearly with flow
 *     count, pinned via Fabric::settleVisits().
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstring>
#include <functional>
#include <iterator>
#include <limits>
#include <map>
#include <string>
#include <tuple>
#include <vector>

#include "common/random.hh"
#include "common/units.hh"
#include "drx/compiler.hh"
#include "drx/machine.hh"
#include "fault/fault.hh"
#include "integrity/integrity.hh"
#include "pcie/fabric.hh"
#include "restructure/catalog.hh"
#include "restructure/cpu_exec.hh"
#include "restructure/ir.hh"
#include "sim/eventq.hh"
#include "sys/system.hh"
#include "trace/trace.hh"
#include "util_random_chain.hh"

using namespace dmx;

namespace
{

// ------------------------------------------------------------------
// 1. Event-queue ordering properties

/**
 * Reference event queue: a flat list searched linearly for the least
 * (when, prio, seq) on every step. Supports cancel and scheduling from
 * inside a firing event.
 */
class NaiveQueue
{
  public:
    Tick now() const { return _now; }

    std::uint64_t
    schedule(Tick when, std::function<void()> fn,
             sim::Priority prio = sim::Priority::Default)
    {
        _events.push_back({when, static_cast<int>(prio), _seq,
                           std::move(fn)});
        return _seq++;
    }

    void
    scheduleIn(Tick delay, std::function<void()> fn,
               sim::Priority prio = sim::Priority::Default)
    {
        schedule(_now + delay, std::move(fn), prio);
    }

    void
    cancel(std::uint64_t seq)
    {
        std::erase_if(_events,
                      [seq](const Event &e) { return e.seq == seq; });
    }

    std::size_t pendingCount() const { return _events.size(); }

    void
    run()
    {
        while (!_events.empty()) {
            const auto next = std::min_element(
                _events.begin(), _events.end(),
                [](const Event &a, const Event &b) {
                    return std::tie(a.when, a.prio, a.seq) <
                           std::tie(b.when, b.prio, b.seq);
                });
            _now = next->when;
            const std::function<void()> fn = std::move(next->fn);
            _events.erase(next);
            fn();
        }
    }

  private:
    struct Event
    {
        Tick when;
        int prio;
        std::uint64_t seq;
        std::function<void()> fn;
    };

    std::vector<Event> _events;
    Tick _now = 0;
    std::uint64_t _seq = 0;
};

/**
 * Events that schedule children while firing; child delays are a pure
 * function of the parent id, so any queue builds the same tree.
 * @return the (tick, id) firing log.
 */
template <typename Queue>
std::vector<std::pair<Tick, int>>
nestedSchedulingLog(std::uint64_t seed)
{
    Queue eq;
    std::vector<std::pair<Tick, int>> log;
    std::function<void(int, int)> fire = [&](int id, int depth) {
        log.emplace_back(eq.now(), id);
        if (depth >= 3)
            return;
        const int kids = (id + depth) % 3;
        for (int c = 0; c < kids; ++c) {
            const int cid = id * 7 + c + 1;
            eq.scheduleIn(10 + static_cast<Tick>((id + c) % 5) * 10,
                          [&fire, cid, depth] { fire(cid, depth + 1); },
                          c % 2 ? sim::Priority::Stat
                                : sim::Priority::Default);
        }
    };
    Rng rng(seed * 31 + 7);
    for (int i = 0; i < 12; ++i) {
        const int id = static_cast<int>(i + rng.below(100));
        eq.schedule(50 + rng.below(20) * 10, [&fire, id] { fire(id, 0); });
    }
    eq.run();
    return log;
}

} // namespace

TEST(EventQueueOrder, FifoTieBreakAtEqualTickAndPriority)
{
    sim::EventQueue eq;
    std::vector<int> fired;
    for (int i = 0; i < 64; ++i)
        eq.schedule(1000, [&fired, i] { fired.push_back(i); });
    eq.run();
    ASSERT_EQ(fired.size(), 64u);
    for (int i = 0; i < 64; ++i)
        EXPECT_EQ(fired[i], i) << "insertion order must be preserved";
}

TEST(EventQueueOrder, PriorityBeatsSeqAndTickBeatsPriority)
{
    sim::EventQueue eq;
    std::vector<int> fired;
    eq.schedule(2000, [&] { fired.push_back(0); },
                sim::Priority::Interrupt);
    eq.schedule(1000, [&] { fired.push_back(1); }, sim::Priority::Stat);
    eq.schedule(1000, [&] { fired.push_back(2); },
                sim::Priority::Interrupt);
    eq.schedule(1000, [&] { fired.push_back(3); });
    eq.run();
    // Tick first (1000 before 2000), then priority
    // (Interrupt < Default < Stat), then insertion order.
    EXPECT_EQ(fired, (std::vector<int>{2, 3, 1, 0}));
}

TEST(EventQueueOrder, FuzzVsSortedListReference)
{
    // Random schedule/cancel interleavings against the naive queue and
    // a stable-sorted list of (when, prio, seq). No nested scheduling
    // here so the sorted list stays exact.
    for (std::uint64_t seed = 0; seed < 40; ++seed) {
        struct RefEvent
        {
            Tick when;
            int prio;
            std::uint64_t seq;
            int id;
        };
        std::vector<RefEvent> ref;
        std::vector<int> expected;

        sim::EventQueue eq;
        NaiveQueue naive;
        std::vector<int> fired, fired_naive;
        std::vector<sim::EventHandle> handles;
        std::vector<std::uint64_t> naive_ids;

        Rng rng(seed * 7717 + 5);
        const int n = 40 + static_cast<int>(rng.below(80));
        std::uint64_t seq = 0;
        for (int i = 0; i < n; ++i) {
            if (!handles.empty() && rng.below(5) == 0) {
                // Cancel a random outstanding event in all three.
                const std::size_t pick = rng.below(handles.size());
                handles[pick].cancel();
                naive.cancel(naive_ids[pick]);
                const int id = static_cast<int>(pick);
                std::erase_if(ref,
                              [id](const RefEvent &e) { return e.id == id; });
                continue;
            }
            const Tick when = 100 + rng.below(50) * 10;
            static constexpr sim::Priority prios[3] = {
                sim::Priority::Interrupt, sim::Priority::Default,
                sim::Priority::Stat};
            const sim::Priority prio = prios[rng.below(3)];
            const int id = static_cast<int>(handles.size());
            handles.push_back(eq.schedule(
                when, [&fired, id] { fired.push_back(id); }, prio));
            naive_ids.push_back(naive.schedule(
                when, [&fired_naive, id] { fired_naive.push_back(id); },
                prio));
            ref.push_back({when, static_cast<int>(prio), seq++, id});
            ASSERT_EQ(eq.pendingCount(), naive.pendingCount());
            ASSERT_EQ(eq.pendingCount(), ref.size());
        }

        std::stable_sort(ref.begin(), ref.end(),
                         [](const RefEvent &a, const RefEvent &b) {
                             return std::tie(a.when, a.prio, a.seq) <
                                    std::tie(b.when, b.prio, b.seq);
                         });
        for (const RefEvent &e : ref)
            expected.push_back(e.id);

        eq.run();
        naive.run();
        EXPECT_EQ(fired, expected) << "seed " << seed;
        EXPECT_EQ(fired_naive, expected) << "seed " << seed;
        EXPECT_EQ(eq.executedCount(), expected.size());
    }
}

TEST(EventQueueOrder, NestedSchedulingDifferential)
{
    // Parents and the children they schedule while firing must
    // interleave exactly as in the naive reference queue.
    for (std::uint64_t seed = 0; seed < 10; ++seed) {
        EXPECT_EQ(nestedSchedulingLog<sim::EventQueue>(seed),
                  nestedSchedulingLog<NaiveQueue>(seed))
            << "seed " << seed;
    }
}

TEST(EventQueueHandles, StaleHandleCannotCancelRecycledSlot)
{
    sim::EventQueue eq;
    int fired = 0;
    sim::EventHandle h1 = eq.schedule(100, [&] { ++fired; });
    eq.run();
    EXPECT_EQ(fired, 1);
    EXPECT_FALSE(h1.pending());
    // The next event recycles h1's slot (free list); the stale handle
    // must observe a sequence mismatch and do nothing.
    sim::EventHandle h2 = eq.scheduleIn(100, [&] { ++fired; });
    h1.cancel();
    EXPECT_TRUE(h2.pending());
    EXPECT_EQ(eq.pendingCount(), 1u);
    eq.run();
    EXPECT_EQ(fired, 2);
}

TEST(EventQueueHandles, ResetInvalidatesOldEpochHandles)
{
    sim::EventQueue eq;
    int fired = 0;
    sim::EventHandle h = eq.schedule(100, [&] { ++fired; });
    eq.reset();
    EXPECT_EQ(eq.pendingCount(), 0u);
    sim::EventHandle h2 = eq.schedule(100, [&] { ++fired; });
    h.cancel(); // stale epoch: must not touch the new event
    EXPECT_TRUE(h2.pending());
    eq.run();
    EXPECT_EQ(fired, 1);
}

// ------------------------------------------------------------------
// 2. Fabric max-min contention vs. a fluid reference model

namespace
{

/** One flow of the reference model. */
struct RefFlow
{
    double eligible;           ///< tick streaming may begin
    double remaining;          ///< bytes left
    std::vector<int> links;    ///< directed links crossed
    double rate = 0;           ///< current bytes/second
    double done = -1;          ///< completion tick, once finished
};

/**
 * Textbook bottleneck max-min: repeatedly take the directed link with
 * the smallest fair share of its residual capacity, fix every flow
 * still unfixed on it at that share, and charge those flows to every
 * link they cross.
 */
void
maxMinRates(std::vector<RefFlow *> &flows, const std::vector<double> &cap)
{
    std::vector<double> residual = cap;
    std::vector<RefFlow *> unfixed = flows;
    while (!unfixed.empty()) {
        std::vector<int> users(cap.size(), 0);
        for (const RefFlow *f : unfixed)
            for (const int l : f->links)
                ++users[l];
        int bottleneck = -1;
        double share = std::numeric_limits<double>::infinity();
        for (std::size_t l = 0; l < cap.size(); ++l) {
            if (users[l] && residual[l] / users[l] < share) {
                share = residual[l] / users[l];
                bottleneck = static_cast<int>(l);
            }
        }
        std::vector<RefFlow *> still;
        for (RefFlow *f : unfixed) {
            if (std::find(f->links.begin(), f->links.end(), bottleneck) ==
                f->links.end()) {
                still.push_back(f);
                continue;
            }
            f->rate = share;
            for (const int l : f->links)
                residual[l] -= share;
        }
        unfixed = std::move(still);
    }
}

/**
 * Fluid simulation: rates are re-solved whenever a flow becomes
 * eligible or finishes, and every flow streams at its max-min rate in
 * between. Fills in each flow's exact completion tick.
 * @return the slowest rate any flow streamed at.
 */
double
fluidCompletions(std::vector<RefFlow> &flows, const std::vector<double> &cap)
{
    double t = 0;
    double slowest = std::numeric_limits<double>::infinity();
    for (;;) {
        std::vector<RefFlow *> active;
        double next = std::numeric_limits<double>::infinity();
        for (RefFlow &f : flows) {
            if (f.done >= 0)
                continue;
            if (f.eligible > t)
                next = std::min(next, f.eligible);
            else
                active.push_back(&f);
        }
        if (active.empty() && !std::isfinite(next))
            return slowest;
        maxMinRates(active, cap);
        for (const RefFlow *f : active) {
            slowest = std::min(slowest, f->rate);
            next = std::min(next, t + f->remaining / f->rate *
                                          static_cast<double>(tick_per_s));
        }
        const double dt = (next - t) / static_cast<double>(tick_per_s);
        for (RefFlow *f : active) {
            f->remaining -= f->rate * dt;
            if (f->remaining <= 1e-6)
                f->done = next;
        }
        t = next;
    }
}

} // namespace

TEST(FabricMaxMin, FluidReferencePredictsCompletionTicks)
{
    // A root complex, 2-3 switches on x4/x8 uplinks, 2-4 endpoints per
    // switch on x8/x16 links; 4-12 flows start at staggered ticks
    // between random endpoints (or the root complex), so cross-switch
    // flows contend on the switch uplinks.
    //
    // Tolerance: the fabric is the fluid model plus tick
    // discretization. A completion check lands at most 2 ticks after
    // the exact instant (secondsToTicks truncates, then +1), and a flow
    // within the 1-byte completion epsilon is reaped at the first
    // event that finds it there, i.e. at most 1 byte's streaming time
    // early. Every such shift delays each later rate change by the
    // same amount, so over n flows (2n rate-change events) the drift
    // is bounded by 2n * (2 ticks + 1 byte at the slowest rate seen).
    const pcie::FabricParams params;
    for (std::uint64_t seed = 0; seed < 40; ++seed) {
        SCOPED_TRACE("seed " + std::to_string(seed));
        Rng rng(seed * 3571 + 11);
        sim::EventQueue eq;
        pcie::Fabric fab(eq, "ref");
        const pcie::NodeId rc =
            fab.addNode(pcie::NodeKind::RootComplex, "rc");

        // Every non-root node has one uplink; directed link ids are
        // node * 2 (+1 when moving up).
        std::vector<int> parent = {-1};
        std::vector<double> cap(2, 0.0);
        const auto attach = [&](pcie::NodeKind kind, pcie::NodeId up,
                                unsigned lanes) {
            const pcie::NodeId id = fab.addNode(
                kind, "n" + std::to_string(parent.size()));
            fab.connect(up, id, pcie::Generation::Gen3, lanes);
            parent.push_back(static_cast<int>(up));
            const double bw =
                pcie::linkBandwidth(pcie::Generation::Gen3, lanes);
            cap.push_back(bw);
            cap.push_back(bw);
            return id;
        };
        std::vector<pcie::NodeId> ends = {rc};
        const unsigned n_switches = 2 + static_cast<unsigned>(rng.below(2));
        for (unsigned s = 0; s < n_switches; ++s) {
            const pcie::NodeId sw = attach(pcie::NodeKind::Switch, rc,
                                           rng.below(2) ? 8 : 4);
            const unsigned n_eps = 2 + static_cast<unsigned>(rng.below(3));
            for (unsigned e = 0; e < n_eps; ++e)
                ends.push_back(attach(pcie::NodeKind::EndPoint, sw,
                                      rng.below(2) ? 16 : 8));
        }

        const unsigned n_flows = 4 + static_cast<unsigned>(rng.below(9));
        std::vector<RefFlow> ref;
        std::vector<Tick> got(n_flows, 0);
        for (unsigned i = 0; i < n_flows; ++i) {
            const pcie::NodeId src = ends[rng.below(ends.size())];
            pcie::NodeId dst = src;
            while (dst == src)
                dst = ends[rng.below(ends.size())];
            const std::uint64_t bytes = (64 + rng.below(960)) * kib;
            const Tick start = rng.below(40) * 5 * tick_per_us;

            // Path: climb from both ends to the common ancestor.
            RefFlow f;
            Tick latency = params.dma_setup;
            int a = static_cast<int>(src), b = static_cast<int>(dst);
            std::vector<int> down;
            const auto depth = [&](int n) {
                return n == 0 ? 0 : parent[n] == 0 ? 1 : 2;
            };
            while (a != b) {
                if (depth(a) >= depth(b)) {
                    f.links.push_back(a * 2 + 1);
                    a = parent[a];
                    if (a != b)
                        latency += a == 0 ? params.root_latency
                                          : params.switch_latency;
                } else {
                    down.push_back(b * 2);
                    b = parent[b];
                    if (a != b)
                        latency += b == 0 ? params.root_latency
                                          : params.switch_latency;
                }
            }
            f.links.insert(f.links.end(), down.rbegin(), down.rend());
            f.eligible = static_cast<double>(start + latency);
            f.remaining = static_cast<double>(bytes);
            ref.push_back(f);

            eq.schedule(start, [&fab, &eq, &got, src, dst, bytes, i] {
                fab.startFlow(src, dst, bytes,
                              [&eq, &got, i] { got[i] = eq.now(); });
            });
        }
        eq.run();
        const double slowest = fluidCompletions(ref, cap);
        const double tolerance =
            2.0 * n_flows *
            (2.0 + static_cast<double>(tick_per_s) / slowest);
        for (unsigned i = 0; i < n_flows; ++i) {
            ASSERT_GT(got[i], 0u) << "flow " << i << " never completed";
            EXPECT_NEAR(static_cast<double>(got[i]), ref[i].done,
                        tolerance)
                << "flow " << i;
        }
    }
}

// ------------------------------------------------------------------
// 3. Randomized system scenarios vs. pinned digests

namespace
{

/** FNV-1a over 64-bit words and strings. */
class Digest
{
  public:
    void
    add(std::uint64_t v)
    {
        for (int i = 0; i < 8; ++i) {
            _h ^= (v >> (8 * i)) & 0xff;
            _h *= 0x100000001b3ull;
        }
    }

    void
    add(const std::string &s)
    {
        add(s.size());
        for (const unsigned char c : s) {
            _h ^= c;
            _h *= 0x100000001b3ull;
        }
    }

    std::uint64_t value() const { return _h; }

  private:
    std::uint64_t _h = 0xcbf29ce484222325ull;
};

/** Digest of a run's integer RunStats fields and its whole trace. */
std::uint64_t
runDigest(const sys::RunStats &s, const trace::TraceBuffer &tb)
{
    Digest d;
    for (const std::uint64_t v :
         {s.interrupts, s.polls, s.pcie_bytes, s.flow_retries,
          s.dropped_irqs, s.kernel_ticks, s.restructure_ticks,
          s.movement_ticks, s.makespan_ticks, s.shed_requests,
          s.deadline_misses, s.queue_overflows, s.backpressure_stalls,
          s.backpressure_stall_ticks, s.peak_active_flows,
          s.drx_cache_hits, s.drx_cache_misses, s.integrity_injected,
          s.integrity_detected, s.integrity_corrected,
          s.integrity_uncorrected, s.integrity_sdc_escapes,
          s.link_crc_replays, s.driver_round_trips, s.descriptor_fetches,
          s.doorbells, s.notifications_suppressed, s.coalesced_bursts})
        d.add(v);
    for (const std::vector<std::uint64_t> *per_app :
         {&s.per_app_shed, &s.per_app_deadline_misses}) {
        d.add(per_app->size());
        for (const std::uint64_t v : *per_app)
            d.add(v);
    }
    d.add(tb.spans().size());
    for (const trace::Span &sp : tb.spans()) {
        d.add(sp.begin);
        d.add(sp.end);
        d.add(static_cast<std::uint64_t>(sp.cat));
        d.add(sp.arg);
        d.add(tb.stringAt(sp.name));
        d.add(tb.stringAt(sp.track));
    }
    d.add(tb.counters().size());
    for (const trace::CounterSample &c : tb.counters()) {
        d.add(c.at);
        d.add(std::bit_cast<std::uint64_t>(c.value));
        d.add(tb.stringAt(c.name));
    }
    return d.value();
}

/// runDigest of scenario i, pinned from a known-good run. Any change
/// to a simulated tick, byte count or trace record moves a digest.
constexpr std::uint64_t scenario_digests[200] = {
    0xd36cb9f8c0124c41ull, 0x98e5f1178b962c25ull, 0xbf738a8de7a64decull,
    0x0fef9ac6fac69365ull, 0x29ed1adfcb4ddbd8ull, 0xe13b5d9b46136edbull,
    0x5678733592427bd3ull, 0x5bf3f4bc2ebf15bbull, 0xcfcdcd1bdb059eceull,
    0x28aaaf8d4a50fe0dull, 0x6f03dd9eb8233bddull, 0x537b2d4cea1e65f8ull,
    0xab3db17d8175f052ull, 0x6f34e153e3e23bd8ull, 0xbdbdf0d58acf118dull,
    0xe1ff1f5c9d8c9ab6ull, 0x02e17c3fd80b2161ull, 0xb9ed8e43e8477044ull,
    0x4c3c65c2ad854346ull, 0x38da1e952d6d17b1ull, 0x73416507468cbf1dull,
    0x44be536c58aaff1bull, 0xf58d8c10bf876f80ull, 0xb48beb7bf0a5b66bull,
    0x3d7ec99a3b6fd34dull, 0xc961076dbf82248dull, 0xcc7d1e66d576997full,
    0x009c6df41abbfb8dull, 0x8a43dfef034a1cccull, 0xf1f0eebb83899d0dull,
    0x431e5b00619e68bbull, 0x9c5c5a2fdf3d05fbull, 0xab89f36d40fb846aull,
    0xa0a51b0386b7fbbdull, 0x087b110df154c001ull, 0x7ac8527001be9548ull,
    0xa14e6b8341b6ced1ull, 0xfee5f53768a484eeull, 0x85f78021ef01a15dull,
    0x3d5802d8552f6330ull, 0xdc2d42227738ac30ull, 0x483f1b1c02dff208ull,
    0x46262385796d4dc6ull, 0x60569aa67ff6c2c1ull, 0x4148f406410bbbe1ull,
    0xd49cef96b24857b8ull, 0x4d194be26a850f67ull, 0x02d30b19b1cceee4ull,
    0x5c8b6101ce3a338aull, 0xb270f601cea70675ull, 0x303293e691d6a846ull,
    0x5e205de13f3e43eeull, 0x9731e935a3766383ull, 0x63d0babc91b06427ull,
    0xcba01c608f067329ull, 0x055ee9e0f43f41a7ull, 0x50c59c16dbb588e9ull,
    0x111f455f78bbc526ull, 0xe8fcb5fbe5a7a25eull, 0x50e5a30dd6484e85ull,
    0x4cada360dacaa300ull, 0xab2b328db16e37b2ull, 0x51810f2c0efd83eeull,
    0xe8ed062f724b1da9ull, 0x0d437507136c3666ull, 0xc6d4764b153c9a1dull,
    0x4f937a24bc730bb1ull, 0xff41add46129f9c1ull, 0xe547d52cb0373112ull,
    0x656c63aad91b4670ull, 0x344d9f210b4c85f2ull, 0xd6c1c664f3bdf1deull,
    0x6b9fdc6f2fc8bd18ull, 0x930b53c921a48436ull, 0x75827a9a7f2f564cull,
    0x98dc7ca0a37ebe6bull, 0x89bb7996b47d752cull, 0xe1b5c45cfa4c4159ull,
    0xe7bf1fd93fb56110ull, 0xe2a56264144064ffull, 0xe3d9c2917c2907afull,
    0xfa0645f16b57f061ull, 0x87118a0f0d6b6b78ull, 0xcef76915c39f8ebfull,
    0x636ad02b0e7e1e03ull, 0xe7e997eeb6bccd43ull, 0xdf80932e8732d764ull,
    0xb308862a29fa2c27ull, 0xf231df6112ade2cdull, 0x45974508ac3735b3ull,
    0xa32618a2a4e75791ull, 0x54d7cfc6f87a0ef4ull, 0xe1e1080b39af6d5eull,
    0xc8c27c3ea496b7cdull, 0x31b53b6f966f483full, 0xc5dd941eff9f344eull,
    0xff772c7cfd3cc21bull, 0x950119030c435baeull, 0x50498eb599071719ull,
    0x23d5df3a733f2c07ull, 0x1d4201bb6f25c446ull, 0xd1a23103324dbd02ull,
    0x9df88751146b6366ull, 0x75223f7a1a556c47ull, 0xed9589ead9485d3cull,
    0x0a6dae2e11fe44f0ull, 0xc4646048ad74dfaeull, 0xb3f9924dcb2eca69ull,
    0x473e11d85ad2701cull, 0x670e1751dbd511c9ull, 0xfed612b738806bb6ull,
    0xbdcb917ab291fd4eull, 0x4bbd446c2aa0cfe8ull, 0xf585ecbc90f52b95ull,
    0xc9248a2cc97d2368ull, 0x3dff333ea5361d25ull, 0xebdad12a6d440c54ull,
    0x1b8fbb92617d9c6eull, 0xa632cfa206d3c79full, 0xb4b1782371dddb82ull,
    0xeae1570b0d9eba52ull, 0xccd0acfcdfc0f5f4ull, 0x251f7aec120fb330ull,
    0x89cca59f3a8bb4d4ull, 0x576df0f6f1a57209ull, 0x601e4ef9dea6d887ull,
    0x317fef54a22fe509ull, 0x01d587de847700b4ull, 0xef546965fb75b509ull,
    0x051c45ab1d596f34ull, 0xb821b3f54b9204fbull, 0x6ebf763d07b6a272ull,
    0x1d588cd4fd2f18bbull, 0x0120ab929252e220ull, 0x90d7c8516df5208cull,
    0x57cb10cb9802f42cull, 0x66340378985d572aull, 0x85f446dc8c8955f4ull,
    0x30db3022584aa9d1ull, 0xa0891747f186142eull, 0xc98df4958f6cded7ull,
    0x257d8de9465e77a8ull, 0xc67142394f446b78ull, 0xc1074bd2e68f0f8cull,
    0xd24758a9bdf26dfbull, 0x4e20f9a02e3ad8c3ull, 0xe6264d7f781ef813ull,
    0x0ea7f8ced4a54b94ull, 0x530c6ce379edb9dbull, 0x96946a3c4fdbcb36ull,
    0x7c4844aa06a3a99full, 0xf2befa3c485c33a8ull, 0x85623fc5e1e76995ull,
    0x8da679b53b04de5bull, 0x970b8174481e62dfull, 0x803b7526b8b6f464ull,
    0x3827d0673d6d7ceaull, 0x238a340d57584ed2ull, 0x7eae90858ff58787ull,
    0xe22b5e929a1d82f5ull, 0x6731406419b4860dull, 0x746a051199c4e700ull,
    0x91d8dd95adfd1401ull, 0x603007cac9be07f6ull, 0x5d3dff5c76bac829ull,
    0x62cd5df1eb96fa4full, 0x61acf83f54c5e86aull, 0x2e07627cb0e8168full,
    0xa371b59d33135f71ull, 0x47caa30ea251942eull, 0x8b9ec03634fd491cull,
    0x8c8dde10d8ec0aa6ull, 0x05d7454575672a70ull, 0x7db15a9aec00ddebull,
    0xf54cdeba94507bd7ull, 0xd3272c7732cc3a84ull, 0xafb5d0d9906e94f7ull,
    0xfcfb5fb727a4b0ebull, 0x1cad3cb2cbe01f0aull, 0x40b1c3f042f46bf6ull,
    0xbedb5b84c81e1737ull, 0xc6476170c06b51b3ull, 0xdce59d87abce698full,
    0x822e5aa6b7f4c390ull, 0xe01eaf6bf8063754ull, 0xe14ba72b76d04d3full,
    0x011ee45c84810e5full, 0x9f4eeb9fe9804648ull, 0x57b0fd450657f696ull,
    0xd271cf581128b8b7ull, 0x901397893948a6f7ull, 0x09068984f606a91eull,
    0x17946a746af280cbull, 0x12d9f7d55a5575afull, 0xe27263f01cdb0d0full,
    0x3eadaddc1f1aa32full, 0x504ef103a1df6f3cull, 0x552c6732665246baull,
    0x9413a3379653c0beull, 0x29151febd8744892ull,
};

} // namespace

TEST(CoreEquiv, TwoHundredRandomScenariosBitIdentical)
{
    for (std::uint64_t seed = 0; seed < std::size(scenario_digests);
         ++seed) {
        Rng rng(seed * 6271 + 17);
        sys::SystemConfig cfg = testutil::randomSystemConfig(rng);
        std::vector<sys::AppModel> apps;
        const unsigned n_models = 1 + static_cast<unsigned>(rng.below(2));
        for (unsigned m = 0; m < n_models; ++m)
            apps.push_back(testutil::randomChainApp(seed * 10 + m));
        if (rng.below(3) == 0)
            cfg.chain = sys::ChainSubmission::Descriptor;

        // A quarter of the scenarios run under a fault plan, a quarter
        // under an integrity plan.
        fault::FaultSpec fspec;
        fspec.seed = seed + 1;
        fspec.flow_corrupt_prob = 0.1;
        fspec.flow_stall_prob = 0.05;
        fspec.irq_drop_prob = 0.1;
        integrity::IntegritySpec ispec;
        ispec.seed = seed + 1;
        ispec.link_crc_prob = 0.15;
        fault::FaultPlan fplan(fspec);
        integrity::IntegrityPlan iplan(ispec);
        if (seed % 4 == 1)
            cfg.fault_plan = &fplan;
        if (seed % 4 == 3)
            cfg.integrity_plan = &iplan;

        trace::TraceBuffer tb;
        sys::RunStats st;
        {
            trace::TraceSession session(tb);
            st = sys::simulateSystem(cfg, apps);
        }
        EXPECT_EQ(runDigest(st, tb), scenario_digests[seed])
            << "seed " << seed << " placement "
            << toString(cfg.placement);
    }
}

// ------------------------------------------------------------------
// 4. DRX interpreter vs. the CPU executor at random shapes

namespace
{

restructure::Bytes
randomInputFor(const restructure::BufferDesc &desc, Rng &rng)
{
    restructure::Bytes in(desc.bytes());
    if (desc.dtype == DType::F32) {
        std::vector<float> vals(desc.elems());
        for (float &v : vals)
            v = static_cast<float>(rng.uniform(-4.0, 4.0));
        std::memcpy(in.data(), vals.data(), in.size());
    } else {
        for (auto &b : in)
            b = static_cast<std::uint8_t>(rng.below(256));
    }
    return in;
}

std::vector<restructure::Kernel>
catalogAtRandomShapes(Rng &rng)
{
    using namespace restructure;
    std::vector<Kernel> ks;
    ks.push_back(melSpectrogram(8 + rng.below(8), 64 + rng.below(64),
                                16 + rng.below(16)));
    ks.push_back(videoFrameRestructure(24 + rng.below(40),
                                       24 + rng.below(40),
                                       16 + rng.below(32)));
    {
        const std::size_t bins = 32 + rng.below(32);
        ks.push_back(brainSignalRestructure(8 + rng.below(8), bins,
                                            4 + rng.below(bins / 8)));
    }
    {
        const std::size_t record = 32 + rng.below(32);
        ks.push_back(textRecordRestructure(record * (8 + rng.below(8)),
                                           record,
                                           record + rng.below(16)));
    }
    ks.push_back(nerTokenRestructure(256 + rng.below(256),
                                     8 + rng.below(8),
                                     16 + rng.below(16)));
    ks.push_back(dbColumnarize(64 + rng.below(192), rng.below(2) != 0,
                               rng.below(1000)));
    ks.push_back(vectorReduction(2 + rng.below(6), 64 + rng.below(192)));
    return ks;
}

} // namespace

TEST(DrxOracle, RandomShapeCatalogKernelsMatchCpuExecutor)
{
    drx::DrxMachine machine; // the configuration that ships

    for (std::uint64_t seed = 0; seed < 3; ++seed) {
        Rng shapes_rng(seed * 131 + 3);
        const auto kernels = catalogAtRandomShapes(shapes_rng);
        for (std::size_t k = 0; k < kernels.size(); ++k) {
            Rng in_rng(seed * 997 + k);
            const restructure::Bytes input =
                randomInputFor(kernels[k].input, in_rng);
            machine.resetAlloc();
            restructure::Bytes out;
            drx::runKernelOnDrx(kernels[k], input, machine, &out);
            EXPECT_EQ(out, restructure::executeOnCpu(kernels[k], input))
                << "seed " << seed << " kernel " << kernels[k].name;
        }
    }
}

TEST(DrxOracle, FusedElementwiseChainNarrowsIntermediateBuffers)
{
    // A fused Map/Cast pass works in float and narrows only its last
    // buffer, so a stage may join it only when narrowing the buffer
    // entering that stage changes no value. These chains narrow in the
    // middle; the literals are the CPU oracle's bytes.
    using namespace restructure;
    auto f32Bytes = [](std::vector<float> v) {
        Bytes b(v.size() * 4);
        std::memcpy(b.data(), v.data(), b.size());
        return b;
    };
    struct Repro
    {
        std::vector<float> input;
        std::vector<Stage> stages;
        Bytes want;
    };
    const Repro repros[] = {
        {{2.4f, 300.0f},
         {castStage(DType::I8), castStage(DType::U8)},
         {2, 127}},
        {{2.4f, 300.0f},
         {castStage(DType::I8), mapStage({{MapFn::Scale, 2.0f}})},
         {4, 127}},
        {{1e5f, 0.1f},
         {castStage(DType::F16), castStage(DType::F32)},
         f32Bytes({65504.0f, 0.0999755859375f})},
    };
    for (const Repro &r : repros) {
        Kernel k;
        k.name = "narrow_mid_chain";
        k.input = BufferDesc{DType::F32, {r.input.size()}};
        k.stages = r.stages;
        const Bytes input = f32Bytes(r.input);
        EXPECT_EQ(executeOnCpu(k, input), r.want);
        drx::DrxMachine m;
        Bytes out;
        drx::runKernelOnDrx(k, input, m, &out);
        EXPECT_EQ(out, r.want) << dtypeName(k.stages[0].to) << " then "
                               << dtypeName(k.output().dtype);
    }

    // A Gather or Transpose2D head only moves elements already in its
    // dtype, so the Cast after it still fuses: the catalog plans keep
    // their program counts.
    const std::pair<Kernel, std::size_t> plans[] = {
        {nerTokenRestructure(1000, 16, 64), 1},
        {videoFrameRestructure(96, 128, 32), 2},
        {brainSignalRestructure(8, 65, 8), 3},
    };
    for (const auto &[k, programs] : plans)
        EXPECT_EQ(drx::planKernel(k, drx::DrxConfig{}).programs.size(),
                  programs)
            << k.name;
}

// ------------------------------------------------------------------
// 4b. CPU oracle: typed stage loops vs the traced per-element path

namespace
{

/** Observes nothing; passing it selects the traced per-element path. */
struct NullTracer : restructure::MemTracer
{
    void read(std::uint64_t, std::size_t) override {}
    void write(std::uint64_t, std::size_t) override {}
    void retire(std::uint64_t, std::size_t) override {}
};

/** Untraced and traced executeOnCpu agree on bytes and OpCount. */
void
expectTypedMatchesTraced(const restructure::Kernel &k,
                         const restructure::Bytes &input,
                         const std::string &what)
{
    NullTracer tracer;
    kernels::OpCount typed_ops, traced_ops;
    const restructure::Bytes typed =
        restructure::executeOnCpu(k, input, &typed_ops);
    const restructure::Bytes traced =
        restructure::executeOnCpu(k, input, &traced_ops, &tracer);
    EXPECT_EQ(typed, traced) << what;
    EXPECT_EQ(typed_ops.flops, traced_ops.flops) << what;
    EXPECT_EQ(typed_ops.int_ops, traced_ops.int_ops) << what;
    EXPECT_EQ(typed_ops.bytes_read, traced_ops.bytes_read) << what;
    EXPECT_EQ(typed_ops.bytes_written, traced_ops.bytes_written) << what;
}

constexpr DType oracle_dtypes[] = {DType::F32, DType::F16, DType::I32,
                                   DType::I16, DType::I8,  DType::U8};

/** Gather index tables drawn by randomOracleChain. */
enum class GatherKind : unsigned
{
    Random,     ///< independent random indices
    Strided,    ///< start + i * stride, wrapping at the buffer end
    Affine,     ///< runs of L, m runs A apart, o blocks B apart
    Descending, ///< start - i * stride, wrapping below zero
};

/** What the random chains below have exercised so far. */
struct ChainCoverage
{
    bool op[8] = {};
    bool cast_to[6] = {};
    bool map_fn[8] = {};
    bool gather[4] = {};        ///< by GatherKind
    bool ragged_matvec = false; ///< mat_rows > 8, not a multiple of 8
    bool banded_matvec = false; ///< every weight row a narrow band
    bool wide = false;          ///< a buffer larger than one 2048 tile
};

/**
 * Indices of kind @p kind into a buffer of @p elems elements, for an
 * output of @p shape (which an affine table may shrink to fit).
 */
std::vector<std::uint32_t>
randomGatherTable(Rng &rng, GatherKind kind, std::size_t elems,
                  std::vector<std::size_t> &shape)
{
    const std::size_t n = shape[0] * shape[1];
    std::vector<std::uint32_t> idx;
    if (kind == GatherKind::Strided || kind == GatherKind::Descending) {
        const std::size_t stride = 1 + rng.below(4);
        std::size_t at = rng.below(elems);
        for (std::size_t i = 0; i < n; ++i) {
            idx.push_back(static_cast<std::uint32_t>(at));
            at = kind == GatherKind::Strided
                     ? (at + stride) % elems
                     : (at + elems - stride % elems) % elems;
        }
    } else if (kind == GatherKind::Affine) {
        const std::size_t run = 1 + rng.below(std::min<std::size_t>(
                                        shape[1], elems > 256 ? 64 : 4));
        const std::size_t runs = std::max<std::size_t>(1, shape[1] / run);
        const std::size_t a = run + rng.below(3);
        const std::size_t b = runs * a + rng.below(4);
        const std::size_t span = (shape[0] - 1) * b + (runs - 1) * a + run;
        if (span <= elems) {
            shape[1] = runs * run;
            const std::size_t start = rng.below(elems - span + 1);
            for (std::size_t o = 0; o < shape[0]; ++o)
                for (std::size_t m = 0; m < runs; ++m)
                    for (std::size_t e = 0; e < run; ++e)
                        idx.push_back(static_cast<std::uint32_t>(
                            start + o * b + m * a + e));
        }
    }
    // Random tables, and affine ones that do not fit the buffer.
    while (idx.size() < shape[0] * shape[1])
        idx.push_back(static_cast<std::uint32_t>(rng.below(elems)));
    return idx;
}

/**
 * A random well-formed rank-2 stage chain. Values stay finite: Exp is
 * preceded by a clamp and the inputs below hold no NaN or infinity, so
 * every output byte is defined by the float operations alone (an
 * operand-order-dependent NaN payload cannot arise). A quarter of the
 * inputs are wide (up to ~2,800 elements), so stages cross the DRX's
 * tile boundaries and MatVec bands span up to ~700 columns.
 */
restructure::Kernel
randomOracleChain(Rng &rng, ChainCoverage &cov)
{
    using namespace restructure;
    Kernel k;
    k.name = "oracle_chain";
    const DType in_dtype = oracle_dtypes[rng.below(6)];
    if (rng.below(4) == 0)
        k.input = BufferDesc{in_dtype,
                             {1 + rng.below(4), 300 + rng.below(400)}};
    else
        k.input = BufferDesc{in_dtype, {1 + rng.below(5), 1 + rng.below(12)}};
    BufferDesc cur = k.input;
    const std::size_t n = 1 + rng.below(6);
    for (std::size_t i = 0; i < n; ++i) {
        const auto op = static_cast<StageOp>(rng.below(8));
        switch (op) {
          case StageOp::Map: {
            std::vector<MapStep> steps;
            for (std::size_t j = 1 + rng.below(3); j > 0; --j) {
                const auto fn = static_cast<MapFn>(rng.below(8));
                if (fn == MapFn::Exp)
                    steps.push_back({MapFn::ClampMax, 10.0f});
                steps.push_back(
                    {fn, static_cast<float>(rng.uniform(-3.0, 3.0))});
                cov.map_fn[static_cast<int>(fn)] = true;
            }
            k.stages.push_back(mapStage(std::move(steps)));
            break;
          }
          case StageOp::Cast: {
            const DType to = oracle_dtypes[rng.below(6)];
            cov.cast_to[static_cast<int>(to)] = true;
            k.stages.push_back(castStage(to));
            break;
          }
          case StageOp::Transpose2D:
            k.stages.push_back(transposeStage());
            break;
          case StageOp::MatVec: {
            // Most weight matrices are banded (each row nonzero on at
            // most 64 consecutive columns, a third of the row or less),
            // which the DRX lowers as gathers of the band.
            const std::size_t cols = cur.inner();
            const bool banded = cols >= 6 && rng.below(4) != 0;
            const std::size_t rows =
                banded ? 1 + rng.below(cols >= 192 ? 160 : 100)
                       : 1 + rng.below(19);
            auto w = std::make_shared<std::vector<float>>(rows * cols,
                                                          0.0f);
            if (banded) {
                // Wide rows get wide bands, so some filter banks
                // (rows x width) outgrow one tile.
                const std::size_t width =
                    cols >= 192 ? 32 + rng.below(33)
                                : 1 + rng.below(cols / 3);
                for (std::size_t r = 0; r < rows; ++r) {
                    const std::size_t lo = rng.below(cols - width + 1);
                    for (std::size_t c = lo; c < lo + width; ++c)
                        (*w)[r * cols + c] =
                            static_cast<float>(rng.uniform(-1.5, 1.5));
                }
            } else {
                for (float &v : *w)
                    v = static_cast<float>(rng.uniform(-1.5, 1.5));
            }
            cov.banded_matvec = cov.banded_matvec || banded;
            cov.ragged_matvec = cov.ragged_matvec ||
                                (rows > 8 && rows % 8 != 0);
            k.stages.push_back(matVecStage(rows, cols, std::move(w)));
            break;
          }
          case StageOp::Gather: {
            std::vector<std::size_t> shape{
                1 + rng.below(4),
                1 + rng.below(cur.elems() > 256 ? 600 : 8)};
            const auto kind = static_cast<GatherKind>(rng.below(4));
            auto idx = std::make_shared<std::vector<std::uint32_t>>(
                randomGatherTable(rng, kind, cur.elems(), shape));
            cov.gather[static_cast<int>(kind)] = true;
            k.stages.push_back(gatherStage(std::move(idx), shape));
            break;
          }
          case StageOp::Magnitude:
            if (cur.inner() % 2 != 0) {
                k.stages.push_back(padStage(cur.inner() + 1, 0.25f));
                cur = k.output();
            }
            k.stages.push_back(magnitudeStage());
            break;
          case StageOp::Reduce:
            k.stages.push_back(reduceStage());
            break;
          case StageOp::Pad:
            k.stages.push_back(
                padStage(cur.inner() + rng.below(4),
                         static_cast<float>(rng.uniform(-9.0, 9.0))));
            break;
        }
        cov.op[static_cast<int>(op)] = true;
        cur = k.output();
        cov.wide = cov.wide || cur.elems() > drx::max_tile_elems / 2;
    }
    return k;
}

/** Finite input bytes for @p desc, spanning each dtype's range. */
restructure::Bytes
finiteInputFor(const restructure::BufferDesc &desc, Rng &rng)
{
    restructure::Bytes in(desc.bytes());
    const std::size_t esz = dtypeSize(desc.dtype);
    for (std::size_t i = 0; i < desc.elems(); ++i) {
        std::uint8_t *at = in.data() + i * esz;
        switch (desc.dtype) {
          case DType::F32: {
            const float v = static_cast<float>(rng.uniform(-8.0, 8.0));
            std::memcpy(at, &v, 4);
            break;
          }
          case DType::F16: {
            std::uint16_t h;
            do {
                h = static_cast<std::uint16_t>(rng.next());
            } while ((h & 0x7c00) == 0x7c00); // no inf / NaN
            std::memcpy(at, &h, 2);
            break;
          }
          case DType::I32: {
            const auto v = static_cast<std::int32_t>(
                rng.below(200001)) - 100000;
            std::memcpy(at, &v, 4);
            break;
          }
          default:
            for (std::size_t b = 0; b < esz; ++b)
                at[b] = static_cast<std::uint8_t>(rng.next());
            break;
        }
    }
    return in;
}

} // namespace

TEST(CpuOracle, TypedStagesMatchTracedPathOnCatalogKernels)
{
    for (std::uint64_t seed = 0; seed < 3; ++seed) {
        Rng shapes_rng(seed * 131 + 3);
        const auto kernels = catalogAtRandomShapes(shapes_rng);
        for (std::size_t k = 0; k < kernels.size(); ++k) {
            Rng in_rng(seed * 997 + k);
            expectTypedMatchesTraced(
                kernels[k], randomInputFor(kernels[k].input, in_rng),
                "seed " + std::to_string(seed) + " kernel " +
                    kernels[k].name);
        }
    }
}

TEST(CpuOracle, TypedStagesMatchTracedPathOnRandomChains)
{
    ChainCoverage cov;
    for (std::uint64_t seed = 0; seed < 300; ++seed) {
        Rng rng(seed * 7919 + 11);
        const restructure::Kernel k = randomOracleChain(rng, cov);
        expectTypedMatchesTraced(k, finiteInputFor(k.input, rng),
                                 "chain seed " + std::to_string(seed));
    }
    // The seeds must reach every stage kind, Cast target and MapFn,
    // and a MatVec with a partial block of outputs.
    for (int i = 0; i < 8; ++i) {
        EXPECT_TRUE(cov.op[i]) << "stage op " << i;
        EXPECT_TRUE(cov.map_fn[i]) << "MapFn " << i;
    }
    for (int i = 0; i < 6; ++i)
        EXPECT_TRUE(cov.cast_to[i]) << "cast to " << dtypeName(
                                           oracle_dtypes[i]);
    EXPECT_TRUE(cov.ragged_matvec);
}

TEST(DrxOracle, RandomChainsMatchCpuExecutorUnderEveryAblation)
{
    // Every random chain runs on lanes {1, 3, 16, 128} x hardware loops
    // x double buffering, at the default 64 KiB scratchpad (smaller
    // scratchpads wait for planKernel to derive its tile caps from
    // DrxConfig::scratch_bytes). Each machine is reused across chains,
    // so interpreter state carried between runs would show.
    std::vector<drx::DrxMachine> machines;
    for (const unsigned lanes : {1u, 3u, 16u, 128u}) {
        for (const bool loops : {true, false}) {
            for (const bool dbl : {true, false}) {
                drx::DrxConfig cfg;
                cfg.lanes = lanes;
                cfg.hardware_loops = loops;
                cfg.double_buffer = dbl;
                machines.emplace_back(cfg);
            }
        }
    }
    ChainCoverage cov;
    std::map<std::string, int> lowered;
    for (std::uint64_t seed = 0; seed < 500; ++seed) {
        Rng rng(seed * 7919 + 11);
        const restructure::Kernel k = randomOracleChain(rng, cov);
        const restructure::Bytes input = finiteInputFor(k.input, rng);
        const restructure::Bytes want = restructure::executeOnCpu(k, input);
        for (const drx::Program &p :
             drx::planKernel(k, machines.front().config()).programs)
            ++lowered[p.name];
        for (drx::DrxMachine &m : machines) {
            m.resetAlloc();
            restructure::Bytes out;
            drx::runKernelOnDrx(k, input, m, &out);
            ASSERT_EQ(out, want)
                << "chain seed " << seed << ", lanes "
                << m.config().lanes << ", hardware loops "
                << m.config().hardware_loops << ", double buffer "
                << m.config().double_buffer;
        }
    }
    // The rewritten interpreter paths must all run: narrowing stores,
    // banded and dense MatVec, index-table and strided gathers.
    for (int i = 0; i < 4; ++i)
        EXPECT_TRUE(cov.gather[i]) << "gather kind " << i;
    EXPECT_TRUE(cov.banded_matvec);
    EXPECT_TRUE(cov.wide);
    for (const char *name :
         {"elementwise", "gather", "gather.affine", "gather.copy",
          "matvec.banded.rowbatch", "matvec.banded", "matvec.dense",
          "magnitude", "reduce", "pad"})
        EXPECT_GT(lowered[name], 0) << name;
}

// ------------------------------------------------------------------
// 5. Settle-visit linearity regression

namespace
{

/** Run n independent flows with staggered completions; return visits. */
std::uint64_t
settleVisitsFor(unsigned n)
{
    sim::EventQueue eq;
    pcie::Fabric fab(eq, "settle");
    unsigned done = 0;
    std::vector<std::pair<pcie::NodeId, pcie::NodeId>> pairs;
    for (unsigned i = 0; i < n; ++i) {
        const pcie::NodeId a = fab.addNode(pcie::NodeKind::EndPoint,
                                           "a" + std::to_string(i));
        const pcie::NodeId b = fab.addNode(pcie::NodeKind::EndPoint,
                                           "b" + std::to_string(i));
        fab.connectCustom(a, b, 1e9);
        pairs.emplace_back(a, b);
    }
    for (unsigned i = 0; i < n; ++i) {
        // Distinct sizes: each flow completes at its own tick, so a
        // reaper that re-scanned every remaining flow per completion
        // would be quadratic.
        fab.startFlow(pairs[i].first, pairs[i].second,
                      (i + 1) * 100 * kib, [&done] { ++done; });
    }
    eq.run();
    EXPECT_EQ(done, n);
    return fab.settleVisits();
}

} // namespace

TEST(SettleScaling, ReapingIsLinearInFlowCount)
{
    const std::uint64_t small = settleVisitsFor(10);
    const std::uint64_t large = settleVisitsFor(40);

    // 4x the flows: a linear reaper does ~4x the visits (slack to 6x).
    // Also pin the absolute cost: no more than a few visits per flow.
    EXPECT_LE(large, small * 6) << "settle reaping is no longer linear";
    EXPECT_LE(large, 40u * 4) << "reaping visits too many flow records";
}
