/**
 * @file
 * Deterministic parallel scenario execution.
 *
 * A *scenario* is one self-contained simulation: a bench sweep point,
 * a chain configuration, a property-test case, a multi-tenant stress
 * point. Scenarios are independent by construction - each owns its
 * event queue, fabric, devices and (optionally) fault plan - so a
 * sweep of N scenarios can fan across host threads with bit-identical
 * results to serial execution. ScenarioRunner guarantees that with
 * three rules:
 *
 *  1. *Isolated randomness*: each scenario draws from its own
 *     splittable `common::random` stream `Rng(seed, index)` - the
 *     stream id is the submission index, so scenario i sees the same
 *     draws no matter which worker runs it or how many workers exist.
 *  2. *Isolated sinks*: each scenario gets a private TraceBuffer
 *     (installed as the executing thread's active trace sink for the
 *     duration of the scenario - trace::active() is thread-local) and
 *     a private StatGroup, so recording order inside a sink depends
 *     only on that scenario's own simulated execution.
 *  3. *Ordered reduction*: results are committed on the calling
 *     thread in submission order, whatever order workers finish in.
 *     Exceptions propagate at commit time, also in submission order.
 *
 * `--jobs 1` (or a 0-worker runner) runs every scenario inline on the
 * caller with no pool and no handoff - the exact legacy serial path.
 * The differential harness in tests/test_exec.cc asserts that
 * `--jobs 1` and `--jobs 8` produce byte-identical RunStats ticks,
 * JSON metric dumps and trace-category totals.
 */

#ifndef DMX_EXEC_SCENARIO_HH
#define DMX_EXEC_SCENARIO_HH

#include <condition_variable>
#include <cstdint>
#include <exception>
#include <functional>
#include <mutex>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "common/random.hh"
#include "common/stats.hh"
#include "exec/thread_pool.hh"
#include "trace/trace.hh"

namespace dmx::exec
{

/**
 * Resolve a worker count: @p requested if nonzero, else the DMX_JOBS
 * environment variable, else the hardware concurrency (at least 1).
 */
unsigned resolveJobs(unsigned requested);

/**
 * Parse a `--jobs N` flag out of @p argv (the flag is left in place).
 * @return N when present (fatal on a malformed value), 0 otherwise
 */
unsigned parseJobsFlag(int argc, char **argv);

/**
 * The per-scenario execution context: a seeded random stream split by
 * submission index, plus private trace and stat sinks. Everything a
 * scenario records lands here and nowhere else.
 */
class ScenarioContext
{
  public:
    ScenarioContext(std::uint64_t seed, std::size_t index)
        : _seed(seed), _index(index), _rng(seed, index),
          _stats("scenario" + std::to_string(index))
    {
    }

    std::uint64_t seed() const { return _seed; }
    std::size_t index() const { return _index; }

    /** This scenario's private random stream (split by index). */
    Rng &rng() { return _rng; }

    /** This scenario's private trace sink (active while it runs). */
    trace::TraceBuffer &trace() { return _trace; }

    /** This scenario's private stat group ("scenario<i>"). */
    stats::StatGroup &stats() { return _stats; }

  private:
    std::uint64_t _seed;
    std::size_t _index;
    Rng _rng;
    trace::TraceBuffer _trace;
    stats::StatGroup _stats;
};

/** Fans scenarios across a pool; commits results in submission order. */
class ScenarioRunner
{
  public:
    /**
     * @param jobs  1 = strict serial legacy path; N>1 = N workers;
     *              0 = resolve via DMX_JOBS / hardware concurrency
     * @param seed  base seed every scenario's random stream splits from
     */
    explicit ScenarioRunner(unsigned jobs = 0,
                            std::uint64_t seed = 0x9e3779b97f4a7c15ull);

    /** @return the resolved worker count (>= 1; 1 = serial). */
    unsigned jobs() const { return _jobs; }

    /** @return the base seed scenarios split their streams from. */
    std::uint64_t seed() const { return _seed; }

    /**
     * Run @p n scenarios through @p fn and hand each result to
     * @p reduce ON THE CALLING THREAD, strictly in submission order
     * (reduce(0, ...), reduce(1, ...), ...) regardless of completion
     * order. A scenario's exception is rethrown at its commit slot.
     *
     * Each invocation of @p fn sees a fresh ScenarioContext whose
     * TraceBuffer is installed as the executing thread's active trace
     * sink for the duration of the call (in serial mode too, so the
     * recorded trace is jobs-invariant). Read any trace/stat totals
     * you need into the result before returning - the context dies
     * with the scenario.
     */
    template <typename T>
    void
    mapReduce(std::size_t n,
              const std::function<T(ScenarioContext &, std::size_t)> &fn,
              const std::function<void(std::size_t, T)> &reduce)
    {
        commitOrdered<T>(
            n,
            [this, &fn](std::size_t i) {
                ScenarioContext ctx(_seed, i);
                trace::TraceSession session(ctx.trace());
                return fn(ctx, i);
            },
            reduce);
    }

    /** mapReduce into a vector: out[i] is scenario i's result. */
    template <typename T>
    std::vector<T>
    map(std::size_t n,
        const std::function<T(ScenarioContext &, std::size_t)> &fn)
    {
        std::vector<T> out;
        out.reserve(n);
        mapReduce<T>(n, fn,
                     [&out](std::size_t, T v) { out.push_back(std::move(v)); });
        return out;
    }

    /**
     * Evaluate plain thunks in parallel, results in submission order.
     * No per-scenario context or trace session is created: use this
     * for closures that are already self-contained (the bench
     * harnesses' sweep points). With jobs() == 1 the thunks run
     * inline, in order, on the caller - byte-for-byte the legacy
     * serial path.
     */
    template <typename T>
    std::vector<T>
    run(std::vector<std::function<T()>> thunks)
    {
        std::vector<T> out;
        out.reserve(thunks.size());
        commitOrdered<T>(
            thunks.size(),
            [&thunks](std::size_t i) { return thunks[i](); },
            [&out](std::size_t, T v) { out.push_back(std::move(v)); });
        return out;
    }

  private:
    /**
     * The ordered-reduction engine: evaluate task(0..n-1), serial or
     * pooled, and commit results on the caller in submission order.
     */
    template <typename T>
    void
    commitOrdered(std::size_t n,
                  const std::function<T(std::size_t)> &task,
                  const std::function<void(std::size_t, T)> &reduce)
    {
        if (n == 0)
            return;
        if (!_pool || _pool->workers() == 0) {
            for (std::size_t i = 0; i < n; ++i)
                reduce(i, task(i));
            return;
        }
        struct Slot
        {
            std::optional<T> value;
            std::exception_ptr error;
            bool done = false;
        };
        std::vector<Slot> slots(n);
        std::mutex mu;
        std::condition_variable cv;
        for (std::size_t i = 0; i < n; ++i) {
            _pool->submit([&task, &slots, &mu, &cv, i] {
                Slot local;
                try {
                    local.value = task(i);
                } catch (...) {
                    local.error = std::current_exception();
                }
                // Notify under the lock: once the caller sees the last
                // slot done it returns and destroys cv.
                std::lock_guard<std::mutex> lk(mu);
                slots[i] = std::move(local);
                slots[i].done = true;
                cv.notify_all();
            });
        }
        // Ordered commit: the caller drains slot i before slot i+1.
        // On error, keep draining (workers still reference the locals)
        // but stop reducing; the first error in submission order is
        // rethrown once every task has finished.
        std::exception_ptr first_error;
        for (std::size_t next = 0; next < n; ++next) {
            std::unique_lock<std::mutex> lk(mu);
            cv.wait(lk, [&] { return slots[next].done; });
            Slot committed = std::move(slots[next]);
            lk.unlock();
            if (first_error)
                continue;
            if (committed.error) {
                first_error = committed.error;
                continue;
            }
            reduce(next, std::move(*committed.value));
        }
        if (first_error) {
            _pool->wait();
            std::rethrow_exception(first_error);
        }
    }

    unsigned _jobs = 1;
    std::uint64_t _seed;
    std::unique_ptr<ThreadPool> _pool; ///< null in serial mode
};

} // namespace dmx::exec

#endif // DMX_EXEC_SCENARIO_HH
