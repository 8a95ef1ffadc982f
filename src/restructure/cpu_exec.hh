/**
 * @file
 * CPU reference executor for restructuring kernels.
 *
 * This is both the correctness oracle for the DRX (the DRX machine must
 * produce byte-identical results) and the source of the host address
 * stream used by the Figure-5 characterization (via MemTracer).
 *
 * Untraced, each stage hoists the dtype dispatch out of its element
 * loop (typed loops and run forms over the shared converters of
 * common/dtype.hh). With a MemTracer, every element goes through a
 * per-element loop that reports each access in order. Both paths
 * produce the same bytes and OpCount.
 */

#ifndef DMX_RESTRUCTURE_CPU_EXEC_HH
#define DMX_RESTRUCTURE_CPU_EXEC_HH

#include <cstdint>

#include "kernels/opcount.hh"
#include "restructure/ir.hh"

namespace dmx::restructure
{

/**
 * Observer of the executor's memory behaviour.
 *
 * Addresses are virtual: each intermediate buffer occupies its own
 * region, mirroring a malloc'd staging buffer on a real host.
 */
class MemTracer
{
  public:
    virtual ~MemTracer() = default;

    /** Data read of @p bytes at @p addr. */
    virtual void read(std::uint64_t addr, std::size_t bytes) = 0;

    /** Data write of @p bytes at @p addr. */
    virtual void write(std::uint64_t addr, std::size_t bytes) = 0;

    /** @p n instructions retired in a loop body of @p body_bytes code. */
    virtual void retire(std::uint64_t n, std::size_t body_bytes) = 0;
};

/**
 * Execute @p kernel on @p input.
 *
 * @param kernel restructuring pipeline
 * @param input  bytes matching kernel.input
 * @param ops    optional operation accounting
 * @param tracer optional memory-access observer
 * @return output bytes matching kernel.output()
 */
Bytes executeOnCpu(const Kernel &kernel, const Bytes &input,
                   kernels::OpCount *ops = nullptr,
                   MemTracer *tracer = nullptr);

} // namespace dmx::restructure

#endif // DMX_RESTRUCTURE_CPU_EXEC_HH
