/**
 * @file
 * Plan-to-plan fusion of adjacent restructure kernels (DESIGN.md 7g).
 *
 * When stage i's output stream feeds stage i+1's input stream on the
 * same DRX, the two compiled plans can be merged into one: the
 * consumer plan is shifted so its input buffer *aliases* the producer
 * plan's output buffer, and the program lists are concatenated. The
 * fused chain then runs as a single device command - one install, one
 * submission, one completion - eliminating the per-stage host round
 * trip in the spirit of DataMaestro's decoupled stream-to-stream
 * chaining.
 *
 * Fusion is a pure transform over planKernel() output: it never
 * re-lowers a kernel, so the fused plan's programs are byte-identical
 * to the unfused plans' programs (only the consumer's DRAM addresses
 * shift, exactly as installPlan() would shift them). That is what
 * makes the differential guarantee trivial: fused and unfused
 * execution stream the same bytes through the same instructions.
 *
 * Legality (canFusePlans) is deliberately conservative; every
 * rejection carries a pinned reason string so tests can assert the
 * classifier never silently over-fuses:
 *  - the producer's output descriptor must match the consumer's input
 *    descriptor (dtype and byte count);
 *  - no Gather opcode on either side (data-dependent addressing);
 *  - the producer must not place constants above its output buffer
 *    (the consumer's shifted footprint would overwrite them at
 *    install time - MatVec filter banks do this);
 *  - the fused footprint must fit the device DRAM.
 */

#ifndef DMX_DRX_FUSION_HH
#define DMX_DRX_FUSION_HH

#include <memory>
#include <string>
#include <vector>

#include "drx/cache.hh"
#include "drx/compiler.hh"

namespace dmx::drx
{

/** Outcome of a fusion-legality query. */
struct FusionVerdict
{
    bool ok = false;
    std::string reason; ///< pinned rejection cause; empty when ok
};

/**
 * May @p b be fused onto @p a (a's output feeding b's input) on a DRX
 * configured as @p cfg? Pure; consult before every fusePlans call.
 */
FusionVerdict canFusePlans(const CompiledKernel &a,
                           const CompiledKernel &b, const DrxConfig &cfg);

/**
 * Fuse @p b onto @p a. Preconditions checked by canFusePlans. The
 * result is a base-0 plan like any planKernel() output: installPlan()
 * rebases it wholesale, so a retry reinstalls it instead of re-fusing.
 */
CompiledKernel fusePlans(const CompiledKernel &a, const CompiledKernel &b);

/** Result of planning a multi-kernel chain as one fused plan. */
struct FusedChainPlan
{
    /// The fused base-0 plan; null when any adjacent pair is illegal.
    std::shared_ptr<const CompiledKernel> compiled;
    /// Verdict of the first rejected pair (ok == true when compiled).
    FusionVerdict verdict;
};

/**
 * Plan every kernel of @p kernels and fuse them left to right. With a
 * @p cache, the per-part plans come out of it; the fused plan itself
 * is rebuilt on every call (fusion only copies and shifts the part
 * plans, cheap next to planning). Legality is checked on every call.
 */
FusedChainPlan planFusedChain(const std::vector<restructure::Kernel> &kernels,
                              const DrxConfig &cfg,
                              ProgramCache *cache = nullptr);

} // namespace dmx::drx

#endif // DMX_DRX_FUSION_HH
