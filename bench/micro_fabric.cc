/**
 * @file
 * google-benchmark micro-benchmarks of the simulation substrate:
 * event-queue scheduling throughput and PCIe-fabric flow simulation
 * (max-min rate re-solving) at varying contention levels.
 */

#include <benchmark/benchmark.h>

#include "pcie/fabric.hh"
#include "sim/eventq.hh"

using namespace dmx;

namespace
{

void
BM_EventQueueScheduleRun(benchmark::State &state)
{
    const auto n = static_cast<std::size_t>(state.range(0));
    for (auto _ : state) {
        sim::EventQueue eq;
        std::uint64_t sum = 0;
        for (std::size_t i = 0; i < n; ++i) {
            eq.schedule(static_cast<Tick>((i * 2654435761u) % 1000000),
                        [&sum] { ++sum; });
        }
        eq.run();
        benchmark::DoNotOptimize(sum);
    }
    state.SetItemsProcessed(
        static_cast<std::int64_t>(state.iterations()) *
        static_cast<std::int64_t>(n));
}

void
BM_FabricConcurrentFlows(benchmark::State &state)
{
    const auto flows = static_cast<unsigned>(state.range(0));
    for (auto _ : state) {
        sim::EventQueue eq;
        pcie::Fabric fab(eq, "fab");
        const auto rc = fab.addNode(pcie::NodeKind::RootComplex, "rc");
        const auto sw = fab.addNode(pcie::NodeKind::Switch, "sw");
        fab.connect(rc, sw, pcie::Generation::Gen3, 8);
        std::vector<pcie::NodeId> eps;
        for (unsigned i = 0; i < flows; ++i) {
            eps.push_back(fab.addNode(pcie::NodeKind::EndPoint,
                                      "ep" + std::to_string(i)));
            fab.connect(sw, eps.back(), pcie::Generation::Gen3, 16);
        }
        unsigned done = 0;
        for (unsigned i = 0; i < flows; ++i)
            fab.startFlow(eps[i], rc, 1 * mib, [&done] { ++done; });
        eq.run();
        benchmark::DoNotOptimize(done);
    }
    state.SetItemsProcessed(
        static_cast<std::int64_t>(state.iterations()) * flows);
}

/**
 * Many independent flows completing at staggered times: the workload
 * that exposed the quadratic completion re-scan (every completion used
 * to walk every remaining flow). The fabric visits only the
 * epsilon-crossing reap candidates; tests/test_core_equiv.cc pins the
 * linear scaling via Fabric::settleVisits(), this measures wall-clock.
 */
void
BM_FabricStaggeredSettle(benchmark::State &state)
{
    const auto n = static_cast<unsigned>(state.range(0));
    for (auto _ : state) {
        sim::EventQueue eq;
        pcie::Fabric fab(eq, "settle");
        std::vector<std::pair<pcie::NodeId, pcie::NodeId>> pairs;
        for (unsigned i = 0; i < n; ++i) {
            const auto a = fab.addNode(pcie::NodeKind::EndPoint,
                                       "a" + std::to_string(i));
            const auto b = fab.addNode(pcie::NodeKind::EndPoint,
                                       "b" + std::to_string(i));
            fab.connectCustom(a, b, 1e9);
            pairs.emplace_back(a, b);
        }
        unsigned done = 0;
        for (unsigned i = 0; i < n; ++i) {
            fab.startFlow(pairs[i].first, pairs[i].second,
                          (i + 1) * 64 * kib, [&done] { ++done; });
        }
        eq.run();
        benchmark::DoNotOptimize(done);
    }
    state.SetItemsProcessed(
        static_cast<std::int64_t>(state.iterations()) * n);
}

} // namespace

BENCHMARK(BM_EventQueueScheduleRun)->Arg(1000)->Arg(10000)->Arg(100000);
BENCHMARK(BM_FabricConcurrentFlows)->Arg(2)->Arg(8)->Arg(32);
BENCHMARK(BM_FabricStaggeredSettle)->Arg(64)->Arg(256);

BENCHMARK_MAIN();
