/**
 * @file
 * Repeat-workload microbenchmark of the DRX hot path: every catalog
 * kernel runs 20 times on one machine through the compiled-kernel cache
 * (run 1 cold, runs 2..20 warm) and 20 times on another machine through
 * the uncached path. Every cached run is checked against the uncached
 * reference in-process (outputs byte-identical, simulated cycles
 * tick-identical, or the harness aborts).
 *
 * Simulated metrics (per-kernel drx cycles, output checksums) are
 * cache-invariant by construction and gated at zero tolerance against
 * BENCH_seed.json. Host wall-clock lands in the JSON under the
 * informational "wall_" prefix: wall_ms_repeat_runs times the 19 warm
 * cached runs per kernel and wall_ms_uncached_repeat_runs the same 19
 * runs uncached, so their ratio is the cache's speedup on repeat work.
 */

#include <chrono>
#include <cstring>

#include "bench/bench_util.hh"
#include "common/logging.hh"
#include "common/random.hh"
#include "drx/cache.hh"
#include "drx/compiler.hh"
#include "restructure/catalog.hh"

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

std::vector<restructure::Kernel>
catalogKernels()
{
    std::vector<restructure::Kernel> ks;
    ks.push_back(restructure::melSpectrogram(128, 513, 128));
    ks.push_back(restructure::videoFrameRestructure(768, 1024, 256));
    ks.push_back(restructure::brainSignalRestructure(128, 513, 64));
    ks.push_back(restructure::textRecordRestructure(256 * 1024, 256, 320));
    ks.push_back(restructure::dbColumnarize(1u << 15, true));
    return ks;
}

/** Exact-in-double byte checksum (position-weighted, mod 2^32). */
double
checksum(const restructure::Bytes &b)
{
    std::uint32_t acc = 0;
    for (std::size_t i = 0; i < b.size(); ++i)
        acc = acc * 31u + b[i];
    return static_cast<double>(acc);
}

double
wallMsSince(std::chrono::steady_clock::time_point t0)
{
    return std::chrono::duration<double, std::milli>(
               std::chrono::steady_clock::now() - t0)
        .count();
}

} // namespace

int
main(int argc, char **argv)
{
    bench::BenchReport report(argc, argv, "micro_drx_repeat");
    bench::banner("DRX repeat-workload microbenchmark",
                  "hot-path acceleration (compiled-kernel cache)");

    constexpr unsigned repeats = 20;
    std::printf("runs per kernel: %u, cached and uncached\n\n", repeats);
    std::printf("%-18s %10s %14s %12s %9s\n", "kernel", "programs",
                "drx_cycles", "checksum", "shapedet");

    double total_cycles = 0;
    double wall_first_ms = 0, wall_cached_ms = 0, wall_uncached_ms = 0;
    for (const restructure::Kernel &kernel : catalogKernels()) {
        const restructure::Bytes input = inputFor(kernel, 7);

        // Uncached reference: ground truth for the differential check.
        restructure::Bytes ref_out;
        drx::DrxMachine ref_machine;
        const drx::RunResult ref =
            drx::runKernelOnDrx(kernel, input, ref_machine, &ref_out);

        // Cached arm: one machine, run 1 cold, runs 2..N warm.
        drx::DrxMachine machine;
        restructure::Bytes out;
        auto t0 = std::chrono::steady_clock::now();
        const drx::RunResult first =
            drx::runKernelOnDrxCached(kernel, input, machine, &out);
        wall_first_ms += wallMsSince(t0);

        if (out != ref_out)
            dmx_fatal("micro_drx_repeat('%s'): cached output differs "
                      "from the uncached path", kernel.name.c_str());
        if (first.total_cycles != ref.total_cycles)
            dmx_fatal("micro_drx_repeat('%s'): cached cycles %llu != "
                      "uncached %llu", kernel.name.c_str(),
                      static_cast<unsigned long long>(first.total_cycles),
                      static_cast<unsigned long long>(ref.total_cycles));

        // Runs 2..N, one timed block per arm. (Alternating the arms run
        // by run leaves each cached run the CPU caches the uncached run
        // just filled, which lowered the measured ratio.)
        t0 = std::chrono::steady_clock::now();
        for (unsigned r = 1; r < repeats; ++r) {
            ref_machine.resetAlloc();
            const drx::RunResult again =
                drx::runKernelOnDrx(kernel, input, ref_machine);
            if (again.total_cycles != ref.total_cycles)
                dmx_fatal("micro_drx_repeat('%s'): uncached run %u "
                          "drifted to %llu cycles", kernel.name.c_str(), r,
                          static_cast<unsigned long long>(
                              again.total_cycles));
        }
        wall_uncached_ms += wallMsSince(t0);

        t0 = std::chrono::steady_clock::now();
        for (unsigned r = 1; r < repeats; ++r) {
            machine.resetAlloc();
            const drx::RunResult warm =
                drx::runKernelOnDrxCached(kernel, input, machine);
            if (warm.total_cycles != ref.total_cycles)
                dmx_fatal("micro_drx_repeat('%s'): warm run %u drifted "
                          "to %llu cycles", kernel.name.c_str(), r,
                          static_cast<unsigned long long>(
                              warm.total_cycles));
        }
        wall_cached_ms += wallMsSince(t0);

        const drx::CompiledKernel plan =
            drx::planKernel(kernel, machine.config());
        std::printf("%-18s %10zu %14llu %12.0f %9s\n",
                    kernel.name.c_str(), plan.programs.size(),
                    static_cast<unsigned long long>(ref.total_cycles),
                    checksum(ref_out),
                    plan.shape_deterministic ? "yes" : "no");

        report.metric(kernel.name + "_drx_cycles",
                      static_cast<double>(ref.total_cycles));
        report.metric(kernel.name + "_checksum", checksum(ref_out));
        total_cycles += static_cast<double>(ref.total_cycles);
    }
    report.metric("total_drx_cycles", total_cycles);
    report.metric("wall_ms_first_runs", wall_first_ms);
    report.metric("wall_ms_repeat_runs", wall_cached_ms);
    report.metric("wall_ms_per_repeat",
                  wall_cached_ms / (5.0 * (repeats - 1)));
    report.metric("wall_ms_uncached_repeat_runs", wall_uncached_ms);

    std::printf("\nall kernels: cached outputs byte-identical and "
                "cycles tick-identical to the uncached path\n");
    return report.write();
}
