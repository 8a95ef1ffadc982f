/**
 * @file
 * google-benchmark micro-benchmarks of the restructuring stack:
 * host-side throughput of the CPU reference executor and the DRX
 * functional simulator per catalog kernel. Simulated DRX cycles are
 * exported as counters so regressions in the *timing model* (not just
 * the host implementation) are visible.
 */

#include <benchmark/benchmark.h>

#include <cstring>

#include "common/random.hh"
#include "drx/cache.hh"
#include "drx/compiler.hh"
#include "restructure/catalog.hh"
#include "restructure/cpu_exec.hh"

using namespace dmx;

namespace
{

restructure::Bytes
inputFor(const restructure::Kernel &k, std::uint64_t seed)
{
    Rng rng(seed);
    restructure::Bytes out(k.input.bytes());
    if (k.input.dtype == DType::F32) {
        for (std::size_t i = 0; i < k.input.elems(); ++i) {
            const float v = static_cast<float>(rng.uniform(-1, 1));
            std::memcpy(&out[i * 4], &v, 4);
        }
    } else {
        for (auto &b : out)
            b = static_cast<std::uint8_t>(rng.below(256));
    }
    return out;
}

restructure::Kernel
kernelByIndex(int which)
{
    switch (which) {
      case 0: return restructure::melSpectrogram(128, 513, 128);
      case 1: return restructure::videoFrameRestructure(768, 1024, 256);
      case 2: return restructure::brainSignalRestructure(128, 513, 64);
      case 3:
        return restructure::textRecordRestructure(256 * 1024, 256, 320);
      default: return restructure::dbColumnarize(1u << 15, true);
    }
}

void
BM_CpuExecutor(benchmark::State &state)
{
    const auto kernel = kernelByIndex(static_cast<int>(state.range(0)));
    const auto input = inputFor(kernel, 7);
    for (auto _ : state) {
        auto out = restructure::executeOnCpu(kernel, input);
        benchmark::DoNotOptimize(out.data());
    }
    state.SetBytesProcessed(
        static_cast<std::int64_t>(state.iterations()) *
        static_cast<std::int64_t>(input.size()));
    state.SetLabel(kernel.name);
}

void
BM_DrxSimulator(benchmark::State &state)
{
    const auto kernel = kernelByIndex(static_cast<int>(state.range(0)));
    const auto input = inputFor(kernel, 7);
    drx::RunResult last{};
    for (auto _ : state) {
        drx::DrxMachine machine;
        last = drx::runKernelOnDrx(kernel, input, machine);
        benchmark::DoNotOptimize(last.total_cycles);
    }
    state.SetBytesProcessed(
        static_cast<std::int64_t>(state.iterations()) *
        static_cast<std::int64_t>(input.size()));
    state.counters["sim_cycles"] =
        static_cast<double>(last.total_cycles);
    state.counters["sim_us_at_1GHz"] =
        static_cast<double>(last.total_cycles) / 1e3;
    state.SetLabel(kernel.name);
}

/**
 * The same timing-only workload through the compiled-kernel cache: one
 * machine, the plan compiled once and interpreted on every iteration.
 * The sim_cycles counter must match BM_DrxSimulator exactly.
 */
void
BM_DrxSimulatorCached(benchmark::State &state)
{
    const auto kernel = kernelByIndex(static_cast<int>(state.range(0)));
    const auto input = inputFor(kernel, 7);
    drx::ProgramCache cache;
    drx::DrxMachine machine;
    drx::RunResult last{};
    for (auto _ : state) {
        machine.resetAlloc();
        last = drx::runKernelOnDrxCached(kernel, input, machine,
                                         nullptr, 0, &cache);
        benchmark::DoNotOptimize(last.total_cycles);
    }
    state.SetBytesProcessed(
        static_cast<std::int64_t>(state.iterations()) *
        static_cast<std::int64_t>(input.size()));
    state.counters["sim_cycles"] =
        static_cast<double>(last.total_cycles);
    state.counters["cache_hits"] =
        static_cast<double>(cache.counters().compile_hits);
    state.SetLabel(kernel.name);
}

/**
 * The DRX micro-op interpreter hot loop in isolation: one machine
 * reused across iterations (resetAlloc, so its DRAM backing grows to
 * the kernel's footprint once instead of on every iteration as in
 * BM_DrxSimulator), no compiled-kernel cache.
 */
void
BM_DrxInterpreterHot(benchmark::State &state)
{
    const auto kernel = kernelByIndex(static_cast<int>(state.range(0)));
    const auto input = inputFor(kernel, 7);
    drx::DrxMachine machine;
    drx::RunResult last{};
    for (auto _ : state) {
        machine.resetAlloc();
        last = drx::runKernelOnDrx(kernel, input, machine);
        benchmark::DoNotOptimize(last.total_cycles);
    }
    state.SetBytesProcessed(
        static_cast<std::int64_t>(state.iterations()) *
        static_cast<std::int64_t>(input.size()));
    state.counters["sim_cycles"] =
        static_cast<double>(last.total_cycles);
    state.SetLabel(kernel.name);
}

} // namespace

BENCHMARK(BM_CpuExecutor)->DenseRange(0, 4)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_DrxSimulator)->DenseRange(0, 4)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_DrxSimulatorCached)
    ->DenseRange(0, 4)
    ->Unit(benchmark::kMillisecond);
BENCHMARK(BM_DrxInterpreterHot)
    ->DenseRange(0, 4)
    ->Unit(benchmark::kMillisecond);

BENCHMARK_MAIN();
