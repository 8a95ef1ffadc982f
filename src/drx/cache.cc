#include "drx/cache.hh"

#include <atomic>
#include <cstring>

#include "common/logging.hh"

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

/**
 * Incremental FNV-1a over heterogeneous fields. Bulk payloads (weight
 * and index tables reach hundreds of KB) are folded a word at a time:
 * lookup() hashes them on every call, so the hash throughput is on the
 * cache's hot path.
 */
struct Fnv
{
    std::uint64_t h = 1469598103934665603ull;

    void
    bytes(const void *p, std::size_t n)
    {
        const auto *b = static_cast<const std::uint8_t *>(p);
        while (n >= 8) {
            std::uint64_t w;
            std::memcpy(&w, b, 8);
            h ^= w;
            h *= 1099511628211ull;
            b += 8;
            n -= 8;
        }
        for (std::size_t i = 0; i < n; ++i) {
            h ^= b[i];
            h *= 1099511628211ull;
        }
    }

    void u64(std::uint64_t v) { bytes(&v, sizeof(v)); }
    void u8(std::uint8_t v) { bytes(&v, sizeof(v)); }

    void
    f32(float v)
    {
        std::uint32_t b32;
        std::memcpy(&b32, &v, sizeof(b32));
        u64(b32);
    }

    void
    f64(double v)
    {
        std::uint64_t b64;
        std::memcpy(&b64, &v, sizeof(b64));
        u64(b64);
    }
};

void
hashDesc(Fnv &f, const restructure::BufferDesc &d)
{
    f.u8(static_cast<std::uint8_t>(d.dtype));
    f.u64(d.shape.size());
    for (std::size_t s : d.shape)
        f.u64(s);
}

} // namespace

std::uint64_t
kernelStructuralHash(const restructure::Kernel &kernel,
                     const DrxConfig &cfg)
{
    Fnv f;
    hashDesc(f, kernel.input);
    f.u64(kernel.stages.size());
    for (const restructure::Stage &st : kernel.stages) {
        f.u8(static_cast<std::uint8_t>(st.op));
        f.u64(st.steps.size());
        for (const restructure::MapStep &step : st.steps) {
            f.u8(static_cast<std::uint8_t>(step.fn));
            f.f32(step.arg);
        }
        f.u8(static_cast<std::uint8_t>(st.to));
        f.u64(st.mat_rows);
        f.u64(st.mat_cols);
        f.u8(st.weights ? 1 : 0);
        if (st.weights) {
            f.u64(st.weights->size());
            f.bytes(st.weights->data(),
                    st.weights->size() * sizeof(float));
        }
        f.u8(st.indices ? 1 : 0);
        if (st.indices) {
            f.u64(st.indices->size());
            f.bytes(st.indices->data(),
                    st.indices->size() * sizeof(std::uint32_t));
        }
        f.u64(st.out_shape.size());
        for (std::size_t s : st.out_shape)
            f.u64(s);
        f.u64(st.pad_to);
        f.f32(st.pad_value);
    }
    f.u64(cfg.lanes);
    f.u64(cfg.scratch_bytes);
    f.u64(cfg.icache_bytes);
    f.f64(cfg.freq_hz);
    f.f64(cfg.dram_bytes_per_sec);
    f.u64(cfg.dram_bytes);
    f.u8(cfg.hardware_loops ? 1 : 0);
    f.u8(cfg.double_buffer ? 1 : 0);
    f.u64(cfg.min_burst_bytes);
    return f.h;
}

namespace
{

template <typename T>
bool
sharedVecEqual(const std::shared_ptr<const std::vector<T>> &a,
               const std::shared_ptr<const std::vector<T>> &b)
{
    if (a == b)
        return true; // same table (or both null)
    if (!a || !b)
        return false;
    return *a == *b;
}

bool
stageEqual(const restructure::Stage &a, const restructure::Stage &b)
{
    auto stepEq = [](const restructure::MapStep &x,
                     const restructure::MapStep &y) {
        return x.fn == y.fn && x.arg == y.arg;
    };
    if (a.op != b.op || a.steps.size() != b.steps.size())
        return false;
    for (std::size_t i = 0; i < a.steps.size(); ++i)
        if (!stepEq(a.steps[i], b.steps[i]))
            return false;
    return a.to == b.to && a.mat_rows == b.mat_rows &&
           a.mat_cols == b.mat_cols &&
           sharedVecEqual(a.weights, b.weights) &&
           sharedVecEqual(a.indices, b.indices) &&
           a.out_shape == b.out_shape && a.pad_to == b.pad_to &&
           a.pad_value == b.pad_value;
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

ProgramCache::ProgramCache(DrxCacheConfig cfg) : _cfg(cfg) {}

void
ProgramCache::setConfig(const DrxCacheConfig &cfg)
{
    _cfg = cfg;
    evictIfNeeded();
}

void
ProgramCache::evictIfNeeded()
{
    while (_entries.size() > _cfg.capacity) {
        auto victim = _entries.begin();
        for (auto it = _entries.begin(); it != _entries.end(); ++it) {
            if (it->second.last_used < victim->second.last_used)
                victim = it;
        }
        _entries.erase(victim);
        ++_counters.evictions;
        bump(g_evictions);
    }
}

ProgramCache::LookupResult
ProgramCache::lookup(const restructure::Kernel &kernel,
                     const DrxConfig &cfg)
{
    LookupResult out;
    const std::uint64_t key = kernelStructuralHash(kernel, cfg);
    ++_clock;

    auto it = _entries.find(key);
    if (it != _entries.end() && drxConfigEqual(it->second.cfg, cfg) &&
        kernelStructurallyEqual(it->second.kernel, kernel)) {
        it->second.last_used = _clock;
        out.compiled = it->second.compiled;
        out.hit = true;
        ++_counters.compile_hits;
        bump(g_compile_hits);
        return out;
    }

    // Miss (or a 64-bit hash collision, which the structural equality
    // check above downgrades to a miss: the colliding entry is simply
    // replaced, trading its cached plan for correctness).
    Entry e;
    e.kernel = kernel;
    e.cfg = cfg;
    e.compiled =
        std::make_shared<const CompiledKernel>(planKernel(kernel, cfg));
    e.last_used = _clock;
    out.compiled = e.compiled;
    _entries[key] = std::move(e);
    ++_counters.compile_misses;
    bump(g_compile_misses);
    evictIfNeeded();
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
    if (!cache->config().enabled)
        return runKernelOnDrx(kernel, input, machine, out, trace_base);

    const std::shared_ptr<const CompiledKernel> installed =
        installPlan(cache->lookup(kernel, machine.config()).compiled,
                    machine);
    return runPlanOnDrx(kernel.name, *installed, input, machine, out,
                        trace_base);
}

} // namespace dmx::drx
