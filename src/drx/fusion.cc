#include "drx/fusion.hh"

#include <algorithm>
#include <utility>

namespace dmx::drx
{

namespace
{

/** Does any program of @p plan contain a Gather? */
bool
hasGather(const CompiledKernel &plan)
{
    for (const auto &prog : plan.programs)
        for (const auto &ins : prog.code)
            if (ins.op == Opcode::Gather)
                return true;
    return false;
}

} // namespace

FusionVerdict
canFusePlans(const CompiledKernel &a, const CompiledKernel &b,
             const DrxConfig &cfg)
{
    FusionVerdict v;
    if (b.input_addr != 0) {
        v.reason = "consumer input is not the plan's first allocation";
        return v;
    }
    if (a.out_desc.dtype != b.in_desc.dtype ||
        a.out_desc.bytes() != b.in_desc.bytes()) {
        v.reason = "stream shape/dtype mismatch between producer output "
                   "and consumer input";
        return v;
    }
    if (hasGather(a) || hasGather(b)) {
        v.reason = "gather stage: data-dependent addressing cannot be "
                   "proven stream-compatible";
        return v;
    }
    // The consumer's whole footprint lands at [a.output_addr,
    // a.output_addr + b.dram_bytes). installPlan writes every constant
    // segment before any program runs, so a producer constant above its
    // output region would be clobbered by the consumer's install.
    for (const auto &seg : a.consts) {
        if (seg.addr + seg.bytes.size() > a.output_addr) {
            v.reason = "producer constants above its output region";
            return v;
        }
    }
    const std::uint64_t fused_bytes =
        std::max(a.dram_bytes, a.output_addr + b.dram_bytes);
    if (fused_bytes > cfg.dram_bytes) {
        v.reason = "fused DRAM footprint exceeds device capacity";
        return v;
    }
    v.ok = true;
    return v;
}

CompiledKernel
fusePlans(const CompiledKernel &a, const CompiledKernel &b)
{
    // The consumer's input (address 0, its first allocation) aliases
    // the producer's output, so every consumer address shifts by the
    // producer's output address -- the same wholesale rebase
    // installPlan applies, which is why the fused plan stays a valid
    // base-0 plan.
    const std::uint64_t shift = a.output_addr;

    CompiledKernel fused;
    fused.programs = a.programs;
    for (Program prog : b.programs) {
        for (auto &ins : prog.code)
            if (ins.op == Opcode::CfgStream)
                ins.base += shift;
        fused.programs.push_back(std::move(prog));
    }
    fused.input_addr = a.input_addr;
    fused.output_addr = b.output_addr + shift;
    fused.in_desc = a.in_desc;
    fused.out_desc = b.out_desc;
    fused.consts = a.consts;
    for (ConstSegment seg : b.consts) {
        seg.addr += shift;
        fused.consts.push_back(std::move(seg));
    }
    fused.dram_bytes = std::max(a.dram_bytes, shift + b.dram_bytes);
    return fused;
}

FusedChainPlan
planFusedChain(const std::vector<restructure::Kernel> &kernels,
               const DrxConfig &cfg, ProgramCache *cache)
{
    FusedChainPlan result;
    if (kernels.empty()) {
        result.verdict.reason = "empty kernel chain";
        return result;
    }

    // Plan every part (through the cache when one is given).
    std::vector<std::shared_ptr<const CompiledKernel>> parts;
    parts.reserve(kernels.size());
    for (const auto &k : kernels) {
        if (cache && cache->config().enabled) {
            parts.push_back(cache->lookup(k, cfg).compiled);
        } else {
            parts.push_back(
                std::make_shared<CompiledKernel>(planKernel(k, cfg)));
        }
    }

    // Legality is pairwise over the part plans; the first illegal pair
    // decides the verdict.
    for (std::size_t i = 0; i + 1 < parts.size(); ++i) {
        const auto v = canFusePlans(*parts[i], *parts[i + 1], cfg);
        if (!v.ok) {
            result.verdict = v;
            return result;
        }
    }
    result.verdict.ok = true;

    CompiledKernel fused = *parts.front();
    for (std::size_t i = 1; i < parts.size(); ++i)
        fused = fusePlans(fused, *parts[i]);
    result.compiled = std::make_shared<const CompiledKernel>(std::move(fused));
    return result;
}

} // namespace dmx::drx
