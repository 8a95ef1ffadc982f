/**
 * @file
 * The DRX compiler (paper Sec. IV-B, "DRX compiler").
 *
 * Takes a high-level restructuring kernel (restructure::Kernel) plus the
 * DRX hardware configuration, and emits one DRX program per pipeline
 * stage. The compiler performs the optimizations the paper describes:
 *  - tiling against the scratchpad size and RE lane count,
 *  - loop-invariant hoisting via instruction depth placement,
 *  - banded lowering of sparse filter-bank MatVec stages (detected from
 *    the weights themselves),
 *  - fusion of the Transpose+Reduce idiom used by reduction collectives,
 *  - constant placement (filter banks, gather index tables) in device
 *    DRAM.
 */

#ifndef DMX_DRX_COMPILER_HH
#define DMX_DRX_COMPILER_HH

#include <cstdint>
#include <memory>
#include <vector>

#include "drx/machine.hh"
#include "drx/program.hh"
#include "restructure/ir.hh"

namespace dmx::drx
{

/** One compiler-placed constant region (index table, filter bank). */
struct ConstSegment
{
    std::uint64_t addr = 0;           ///< plan-relative device address
    std::vector<std::uint8_t> bytes;  ///< serialized contents
};

/**
 * A kernel lowered to DRX programs with its device buffer plan.
 *
 * The plan is machine-independent: every address is relative to a
 * fresh 64-byte-aligned bump allocator starting at 0, and the
 * constants are carried as serialized segments instead of being
 * written into a particular machine's DRAM. installPlan() materializes
 * a plan on a machine (and rebases it when the machine's allocator is
 * not at 0), which is what makes compiled kernels shareable through
 * drx::ProgramCache.
 */
struct CompiledKernel
{
    std::vector<Program> programs;     ///< one per stage (or fused)
    std::uint64_t input_addr = 0;      ///< device address of the input
    std::uint64_t output_addr = 0;     ///< device address of the output
    restructure::BufferDesc in_desc;   ///< input layout
    restructure::BufferDesc out_desc;  ///< output layout
    std::vector<ConstSegment> consts;  ///< compiler-placed constants
    std::uint64_t dram_bytes = 0;      ///< total device-DRAM footprint
};

/**
 * Lower @p kernel for a DRX with configuration @p cfg without touching
 * any machine: a pure function of (kernel structure, config) whose
 * result can be cached and installed on any machine of that config.
 *
 * @throws via fatal when a buffer or constant exceeds cfg.dram_bytes
 */
CompiledKernel planKernel(const restructure::Kernel &kernel,
                          const DrxConfig &cfg);

/**
 * Materialize @p plan on @p machine: reserve its DRAM footprint and
 * write the constant segments. When the machine's allocator is at 0
 * (the common case: fresh machine or after resetAlloc) the plan is
 * installed in place and returned unchanged; otherwise a rebased copy
 * is returned whose stream bases and buffer addresses are shifted to
 * the reserved region.
 */
std::shared_ptr<const CompiledKernel>
installPlan(std::shared_ptr<const CompiledKernel> plan,
            DrxMachine &machine);

/**
 * Compile @p kernel against @p machine's configuration, allocating the
 * input, intermediate, output and constant buffers in its DRAM and
 * writing the constants. Equivalent to planKernel + installPlan.
 *
 * @param kernel  restructuring pipeline
 * @param machine target DRX (provides config and owns the buffers)
 * @return the lowered programs plus the buffer plan
 */
CompiledKernel compileKernel(const restructure::Kernel &kernel,
                             DrxMachine &machine);

/**
 * Execute an installed @p plan on @p machine: upload @p input, run
 * every stage and optionally read back the output. The plan must have
 * been installed on (or compiled against) @p machine.
 *
 * @param name         kernel name for diagnostics
 * @param plan         installed compiled kernel
 * @param input        input bytes matching plan.in_desc
 * @param machine      target DRX
 * @param out          when non-null, receives the output bytes
 * @param trace_cursor simulated tick anchoring the first stage's trace
 *                     spans; advanced past every stage that runs, so
 *                     plans run back to back keep their spans back to
 *                     back
 * @return accumulated timing over all stages
 */
RunResult runPlanOnDrx(const std::string &name, const CompiledKernel &plan,
                       const restructure::Bytes &input, DrxMachine &machine,
                       restructure::Bytes *out, Tick &trace_cursor);

/**
 * Convenience: compile, upload @p input, execute every stage and read
 * back the output.
 *
 * @param kernel     restructuring pipeline
 * @param input      input bytes matching kernel.input
 * @param machine    target DRX
 * @param out        when non-null, receives the output bytes
 * @param trace_base simulated tick anchoring the stages' trace spans
 * @return accumulated timing over all stages
 */
RunResult runKernelOnDrx(const restructure::Kernel &kernel,
                         const restructure::Bytes &input,
                         DrxMachine &machine,
                         restructure::Bytes *out = nullptr,
                         Tick trace_base = 0);

} // namespace dmx::drx

#endif // DMX_DRX_COMPILER_HH
