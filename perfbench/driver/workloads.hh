/**
 * @file
 * The benchmark workloads, and the two designs the sys-sweep workload
 * mixes. Each is a closed loop with a single caller: the harness starts
 * operation i + 1 only after operation i returned, on one thread, so no
 * scenario-runner scheduling enters the numbers.
 */

#ifndef PERFBENCH_WORKLOADS_HH
#define PERFBENCH_WORKLOADS_HH

#include <cstdint>
#include <memory>

#include "harness.hh"

namespace perfbench
{

/** Inputs every workload is built from. */
struct WorkloadParams
{
    std::uint64_t seed = 1;
    Tracer *tracer = nullptr;
    /// Deliberately corrupt one expected output (self-test of the
    /// checks: the run must then report a failed operation).
    bool corrupt_expected = false;
};

/** Closed-loop figure points and open-loop engine runs, interleaved. */
std::unique_ptr<Workload> makeSysSweep(const WorkloadParams &p);

/** Functional runtime::Platform sessions with two DRX cards. */
std::unique_ptr<Workload> makeDrxRuntimeSession(const WorkloadParams &p);

/** Seeded figure-harness points over sys::simulateSystem (sys-sweep). */
std::unique_ptr<Workload> makeClosedLoopSweep(const WorkloadParams &p);

/** Open-loop overload and serving engine runs (sys-sweep). */
std::unique_ptr<Workload> makeOpenLoopServing(const WorkloadParams &p);

} // namespace perfbench

#endif // PERFBENCH_WORKLOADS_HH
