/**
 * @file
 * The DRX compiled-kernel cache (see DESIGN.md Sec. 7e).
 *
 * Compiling a restructure::Kernel is a pure function of the kernel's
 * structure and the DRX hardware configuration, so repeated work -- the
 * app-model builds that re-time the same reduced kernels, the runtime's
 * retries and repeated submissions of one kernel -- can share one
 * lowered plan instead of re-running the compiler. ProgramCache
 * memoizes planKernel() output for each (kernel, DrxConfig), with an
 * LRU bound and hit/miss/eviction counters. There is no hash: a lookup
 * compares (kernel, DrxConfig) with each of at most
 * ProgramCache::capacity entries by structure. Tables shared by
 * pointer settle a hit without reading them, and a different kernel is
 * rejected at its first differing field. The cache memoizes nothing
 * else: every run installs the plan and interprets it through
 * runPlanOnDrx(), so outputs and simulated timing are the uncached
 * path's by construction.
 *
 * Determinism: the default cache is thread-local (ProgramCache::
 * process()), so parallel scenario workers never share mutable state
 * and per-worker hit sequences are reproducible. Process-wide counter
 * totals (globalCounters()) are plain atomics whose final values are
 * schedule-independent.
 *
 * There is no switch: every cache is on, with an LRU bound of
 * ProgramCache::capacity plans. runKernelOnDrx() stays the uncached
 * path the tests compare against.
 */

#ifndef DMX_DRX_CACHE_HH
#define DMX_DRX_CACHE_HH

#include <cstdint>
#include <memory>
#include <vector>

#include "drx/compiler.hh"
#include "drx/machine.hh"
#include "restructure/ir.hh"

namespace dmx::drx
{

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
 * Field-by-field equality on everything planKernel() can observe: the
 * input descriptor and every stage field, weight and index table
 * contents included (tables shared by pointer are equal without being
 * read). Floats compare by bit pattern, since -0.0 and +0.0 constants
 * give different output bytes. The kernel name is deliberately
 * excluded: it only labels diagnostics and trace spans, which take the
 * caller's name, not the cached one.
 */
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
    /// Plans kept; a miss beyond this evicts the least recently used.
    static constexpr std::size_t capacity = 64;

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
     * scenario workers (src/exec/) stay independent and deterministic.
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
        restructure::Kernel kernel; ///< what the plan was compiled from
        DrxConfig cfg;
        std::shared_ptr<const CompiledKernel> compiled;
        std::uint64_t last_used = 0; ///< LRU clock value
    };

    std::vector<Entry> _entries; ///< at most capacity, in no order
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
