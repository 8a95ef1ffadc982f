/**
 * @file
 * DRX hot-path acceleration: the compiled-kernel cache and the timing
 * memoization layer (see DESIGN.md Sec. 7e).
 *
 * Compiling a restructure::Kernel is a pure function of the kernel's
 * structure and the DRX hardware configuration, so repeated work -- the
 * app-model builds that re-time the same reduced kernels, the runtime's
 * retries and repeated submissions of one kernel -- can share one
 * lowered plan instead of re-running the compiler. Three tiers:
 *
 *  1. ProgramCache memoizes planKernel() output keyed by a structural
 *     hash of (kernel, DrxConfig), with an LRU bound and hit/miss/
 *     eviction counters.
 *  2. For shape-deterministic plans (no data-dependent Gather opcode,
 *     see drx::shapeDeterministic) the per-stage RunResults of one
 *     fault-free execution are memoized too; timing-only callers then
 *     replay the recorded results through DrxMachine::replayRun without
 *     re-interpreting the programs. Outputs and simulated timing are
 *     bit-identical to the uncached path by construction: replay is
 *     only used when no output is requested, and the memo is only
 *     recorded from a real run of the very same installed plan.
 *  3. The interpreter itself keeps per-machine scratch arenas (see
 *     DrxMachine) so the remaining cold runs do not allocate per op.
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
#include <functional>
#include <memory>
#include <unordered_map>
#include <vector>

#include "common/stats.hh"
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
    std::uint64_t timing_hits = 0;    ///< lookups that found a memo
    std::uint64_t timing_misses = 0;  ///< lookups on entries without one
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

/**
 * Structural hash of a fused kernel chain: a tagged fold of each
 * part's kernelStructuralHash, so a chain entry can never collide
 * "by type" with a plain single-kernel entry of the same content.
 */
std::uint64_t fusedChainHash(const std::vector<restructure::Kernel> &parts,
                             const DrxConfig &cfg);

/** Field-by-field equality of two hardware configurations. */
bool drxConfigEqual(const DrxConfig &a, const DrxConfig &b);

/**
 * Bounded LRU cache of compiled kernels and their timing memos.
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
        /// Per-stage timing memo, or null when none is recorded (first
        /// run, or a non-shape-deterministic kernel).
        std::shared_ptr<const std::vector<RunResult>> timing;
        std::uint64_t key = 0;
        bool hit = false; ///< compile-cache hit (plan was already there)
    };

    /**
     * Look up (and on a miss, plan and insert) @p kernel for hardware
     * @p cfg. Always returns a valid base-0 plan. @p tick, the caller's
     * simulated time, is unused: the cache records no trace events.
     */
    LookupResult lookup(const restructure::Kernel &kernel,
                        const DrxConfig &cfg, Tick tick = 0);

    /**
     * Look up (and on a miss, build via @p plan and insert) the fused
     * plan for the kernel chain @p parts on hardware @p cfg. The entry
     * is keyed by fusedChainHash and verified part-by-part, and shares
     * the LRU/counter machinery with plain entries. @p plan is only
     * invoked on a miss; it must return the fused base-0 plan (the
     * caller has already proven the chain legal -- see
     * drx::planFusedChain, the only intended caller).
     */
    LookupResult lookupFused(const std::vector<restructure::Kernel> &parts,
                             const DrxConfig &cfg, Tick tick,
                             const std::function<CompiledKernel()> &plan);

    /**
     * Attach a timing memo to the entry for @p key. Ignored when the
     * entry has been evicted in the meantime or already has a memo
     * (first recording wins; both runs measured the same plan).
     */
    void storeTiming(std::uint64_t key,
                     std::shared_ptr<const std::vector<RunResult>> memo);

    const CacheCounters &counters() const { return _counters; }
    std::size_t size() const { return _entries.size(); }

    /** Drop every entry (counters are preserved). */
    void clear();

    /** Dump this cache's stats. */
    stats::StatGroup &statGroup() { return _stats; }

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
        std::shared_ptr<const std::vector<RunResult>> timing;
        std::uint64_t last_used = 0; ///< LRU clock value
        /// Fused-chain entries store every part kernel for collision
        /// verification instead of `kernel`; empty marks a plain entry.
        std::vector<restructure::Kernel> parts;
    };

    void evictIfNeeded();

    DrxCacheConfig _cfg;
    std::unordered_map<std::uint64_t, Entry> _entries;
    std::uint64_t _clock = 0;
    CacheCounters _counters;

    stats::StatGroup _stats;
    stats::Scalar _stat_hits;
    stats::Scalar _stat_misses;
    stats::Scalar _stat_timing_hits;
    stats::Scalar _stat_timing_misses;
    stats::Scalar _stat_evictions;
};

/**
 * Drop-in cached replacement for runKernelOnDrx(): identical outputs,
 * identical RunResult and identical trace records, computed through
 * @p cache (default: the calling thread's ProgramCache::process()).
 *
 * Tier-2 timing replay only engages when @p out is null -- callers that
 * want bytes always run the machine for real, so cached outputs are
 * the machine's own outputs.
 */
RunResult runKernelOnDrxCached(const restructure::Kernel &kernel,
                               const restructure::Bytes &input,
                               DrxMachine &machine,
                               restructure::Bytes *out = nullptr,
                               Tick trace_base = 0,
                               ProgramCache *cache = nullptr);

} // namespace dmx::drx

#endif // DMX_DRX_CACHE_HH
