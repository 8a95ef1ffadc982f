#include "drx/cache.hh"

#include <algorithm>
#include <atomic>
#include <cstring>

namespace dmx::drx
{

namespace
{

// Process-wide counter totals: plain relaxed atomics summed across
// every ProgramCache on every thread. The final values are sums of
// per-thread contributions, so they are independent of scheduling.
std::atomic<std::uint64_t> g_compile_hits{0};
std::atomic<std::uint64_t> g_compile_misses{0};
std::atomic<std::uint64_t> g_evictions{0};

inline void
bump(std::atomic<std::uint64_t> &c)
{
    c.fetch_add(1, std::memory_order_relaxed);
}

/** Bit-pattern equality: -0.0 and +0.0 differ, a NaN equals itself. */
bool
sameBits(float a, float b)
{
    return std::memcmp(&a, &b, sizeof(float)) == 0;
}

/** One table, or two tables with the same bytes (or both absent). */
template <typename T>
bool
sameTable(const std::shared_ptr<const std::vector<T>> &a,
          const std::shared_ptr<const std::vector<T>> &b)
{
    if (a == b)
        return true;
    if (!a || !b || a->size() != b->size())
        return false;
    return a->empty() ||
           std::memcmp(a->data(), b->data(), a->size() * sizeof(T)) == 0;
}

bool
stageEqual(const restructure::Stage &a, const restructure::Stage &b)
{
    if (a.op != b.op || a.steps.size() != b.steps.size())
        return false;
    for (std::size_t i = 0; i < a.steps.size(); ++i)
        if (a.steps[i].fn != b.steps[i].fn ||
            !sameBits(a.steps[i].arg, b.steps[i].arg))
            return false;
    return a.to == b.to && a.mat_rows == b.mat_rows &&
           a.mat_cols == b.mat_cols && a.out_shape == b.out_shape &&
           a.pad_to == b.pad_to && sameBits(a.pad_value, b.pad_value) &&
           sameTable(a.weights, b.weights) &&
           sameTable(a.indices, b.indices);
}

} // namespace

bool
kernelStructurallyEqual(const restructure::Kernel &a,
                        const restructure::Kernel &b)
{
    if (a.input.dtype != b.input.dtype || a.input.shape != b.input.shape)
        return false;
    if (a.stages.size() != b.stages.size())
        return false;
    for (std::size_t i = 0; i < a.stages.size(); ++i)
        if (!stageEqual(a.stages[i], b.stages[i]))
            return false;
    return true;
}

bool
drxConfigEqual(const DrxConfig &a, const DrxConfig &b)
{
    return a.lanes == b.lanes && a.scratch_bytes == b.scratch_bytes &&
           a.icache_bytes == b.icache_bytes && a.freq_hz == b.freq_hz &&
           a.dram_bytes_per_sec == b.dram_bytes_per_sec &&
           a.dram_bytes == b.dram_bytes &&
           a.hardware_loops == b.hardware_loops &&
           a.double_buffer == b.double_buffer &&
           a.min_burst_bytes == b.min_burst_bytes;
}

// ---------------------------------------------------------- ProgramCache

ProgramCache::LookupResult
ProgramCache::lookup(const restructure::Kernel &kernel,
                     const DrxConfig &cfg)
{
    ++_clock;
    for (Entry &e : _entries) {
        if (drxConfigEqual(e.cfg, cfg) &&
            kernelStructurallyEqual(e.kernel, kernel)) {
            e.last_used = _clock;
            ++_counters.compile_hits;
            bump(g_compile_hits);
            return {e.compiled, true};
        }
    }

    Entry e{kernel, cfg,
            std::make_shared<const CompiledKernel>(planKernel(kernel, cfg)),
            _clock};
    const LookupResult out{e.compiled, false};
    ++_counters.compile_misses;
    bump(g_compile_misses);
    if (_entries.size() < capacity) {
        _entries.push_back(std::move(e));
    } else {
        // Full: the new plan takes the least recently used one's slot.
        *std::min_element(_entries.begin(), _entries.end(),
                          [](const Entry &x, const Entry &y) {
                              return x.last_used < y.last_used;
                          }) = std::move(e);
        ++_counters.evictions;
        bump(g_evictions);
    }
    return out;
}

void
ProgramCache::clear()
{
    _entries.clear();
}

ProgramCache &
ProgramCache::process()
{
    thread_local ProgramCache cache;
    return cache;
}

CacheCounters
ProgramCache::globalCounters()
{
    CacheCounters c;
    c.compile_hits = g_compile_hits.load(std::memory_order_relaxed);
    c.compile_misses = g_compile_misses.load(std::memory_order_relaxed);
    c.evictions = g_evictions.load(std::memory_order_relaxed);
    return c;
}

void
ProgramCache::resetGlobalCounters()
{
    g_compile_hits = 0;
    g_compile_misses = 0;
    g_evictions = 0;
}

// --------------------------------------------------- cached entry point

RunResult
runKernelOnDrxCached(const restructure::Kernel &kernel,
                     const restructure::Bytes &input, DrxMachine &machine,
                     restructure::Bytes *out, Tick trace_base,
                     ProgramCache *cache)
{
    if (cache == nullptr)
        cache = &ProgramCache::process();
    const std::shared_ptr<const CompiledKernel> installed =
        installPlan(cache->lookup(kernel, machine.config()).compiled,
                    machine);
    return runPlanOnDrx(kernel.name, *installed, input, machine, out,
                        trace_base);
}

} // namespace dmx::drx
