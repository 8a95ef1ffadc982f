/**
 * @file
 * The DRX compiled-kernel cache (see DESIGN.md Sec. 7e).
 *
 * Compiling a restructure::Kernel is a pure function of the kernel's
 * structure and the DRX hardware configuration, so repeated work -- the
 * app-model builds that re-time the same reduced kernels, the runtime's
 * retries and repeated submissions of one kernel -- can share one
 * lowered plan instead of re-running the compiler. ProgramCache
 * memoizes planKernel() output keyed by a structural hash of
 * (kernel, DrxConfig), with an LRU bound and hit/miss/eviction
 * counters. It memoizes nothing else: every run installs the plan and
 * interprets it through runPlanOnDrx(), so outputs and simulated
 * timing are the uncached path's by construction.
 *
 * Determinism: the default cache is thread-local (ProgramCache::
 * process()), so parallel scenario workers never share mutable state
 * and per-worker hit sequences are reproducible. Process-wide counter
 * totals (globalCounters()) are plain atomics whose final values are
 * schedule-independent.
 *
 * DrxCacheConfig::enabled = false turns one instance into a pass-through
 * to the uncached path; the tests compare the two.
 */

#ifndef DMX_DRX_CACHE_HH
#define DMX_DRX_CACHE_HH

#include <cstdint>
#include <memory>
#include <unordered_map>

#include "drx/compiler.hh"
#include "drx/machine.hh"
#include "restructure/ir.hh"

namespace dmx::drx
{

/** Configuration of one ProgramCache instance. */
struct DrxCacheConfig
{
    bool enabled = true;      ///< master switch (miss-only when false)
    std::size_t capacity = 64; ///< max cached plans (LRU beyond this)
};

/** Hit/miss/eviction totals (plain values; see also globalCounters). */
struct CacheCounters
{
    std::uint64_t compile_hits = 0;
    std::uint64_t compile_misses = 0;
    /// Always 0: the cache memoizes plans only. Kept for readers of
    /// the counters that predate that (perfbench's drx session).
    std::uint64_t timing_hits = 0;
    std::uint64_t evictions = 0;

    double
    hitRate() const
    {
        const std::uint64_t total = compile_hits + compile_misses;
        return total ? static_cast<double>(compile_hits) / total : 0.0;
    }
};

/**
 * Structural hash of (kernel, config): covers the input descriptor,
 * every stage field including weight and index table contents, and
 * every DrxConfig field -- everything planKernel() can observe. The
 * kernel name is deliberately excluded (it only labels diagnostics and
 * trace spans carried by the Program, which the stored kernel copy
 * disambiguates).
 */
std::uint64_t kernelStructuralHash(const restructure::Kernel &kernel,
                                   const DrxConfig &cfg);

/** Field-by-field equality on everything kernelStructuralHash covers. */
bool kernelStructurallyEqual(const restructure::Kernel &a,
                             const restructure::Kernel &b);

/** Field-by-field equality of two hardware configurations. */
bool drxConfigEqual(const DrxConfig &a, const DrxConfig &b);

/**
 * Bounded LRU cache of compiled kernels.
 *
 * Not thread-safe by design: use process() for a per-thread instance,
 * or own one per single-threaded domain (runtime::Platform does).
 */
class ProgramCache
{
  public:
    explicit ProgramCache(DrxCacheConfig cfg = {});

    const DrxCacheConfig &config() const { return _cfg; }
    void setConfig(const DrxCacheConfig &cfg);

    /** One lookup's outcome. */
    struct LookupResult
    {
        std::shared_ptr<const CompiledKernel> compiled; ///< base-0 plan
        bool hit = false; ///< compile-cache hit (plan was already there)
    };

    /**
     * Look up (and on a miss, plan and insert) @p kernel for hardware
     * @p cfg. Always returns a valid base-0 plan.
     */
    LookupResult lookup(const restructure::Kernel &kernel,
                        const DrxConfig &cfg);

    const CacheCounters &counters() const { return _counters; }
    std::size_t size() const { return _entries.size(); }

    /** Drop every entry (counters are preserved). */
    void clear();

    /**
     * The calling thread's default cache. Thread-local so parallel
     * scenario workers (src/exec/) stay independent and deterministic;
     * default-configured on first use per thread.
     */
    static ProgramCache &process();

    /**
     * Process-wide counter totals aggregated across every ProgramCache
     * instance on every thread. Atomic sums: their final values do not
     * depend on worker interleaving.
     */
    static CacheCounters globalCounters();

    /** Reset the process-wide totals (tests and bench arms). */
    static void resetGlobalCounters();

  private:
    struct Entry
    {
        restructure::Kernel kernel; ///< for collision verification
        DrxConfig cfg;
        std::shared_ptr<const CompiledKernel> compiled;
        std::uint64_t last_used = 0; ///< LRU clock value
    };

    void evictIfNeeded();

    DrxCacheConfig _cfg;
    std::unordered_map<std::uint64_t, Entry> _entries;
    std::uint64_t _clock = 0;
    CacheCounters _counters;
};

/**
 * Drop-in cached replacement for runKernelOnDrx(): the plan comes out
 * of @p cache (default: the calling thread's ProgramCache::process()),
 * then it is installed and run through runPlanOnDrx() exactly like an
 * uncached call, so outputs, RunResult and trace records are identical.
 */
RunResult runKernelOnDrxCached(const restructure::Kernel &kernel,
                               const restructure::Bytes &input,
                               DrxMachine &machine,
                               restructure::Bytes *out = nullptr,
                               Tick trace_base = 0,
                               ProgramCache *cache = nullptr);

} // namespace dmx::drx

#endif // DMX_DRX_CACHE_HH
