/**
 * @file
 * Shared helpers for the figure/table harnesses: suite caching,
 * geometric means, uniform headers, and the --json metric reporter
 * consumed by tools/bench_diff and CI.
 */

#ifndef DMX_BENCH_BENCH_UTIL_HH
#define DMX_BENCH_BENCH_UTIL_HH

#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <iostream>
#include <string>
#include <vector>

#include "apps/benchmarks.hh"
#include "common/table.hh"
#include "drx/cache.hh"
#include "exec/scenario.hh"
#include "sys/system.hh"

namespace dmx::bench
{

/**
 * Machine-readable metric sink behind every harness's `--json <path>`
 * flag. Construction parses argv; metric() records named scalars while
 * the harness computes its tables; write() emits
 * {"figure": ..., "metrics": {...}} when a path was requested (and is
 * a no-op otherwise, keeping default stdout output byte-identical).
 *
 * Construction also parses `--jobs N` (default: DMX_JOBS, then the
 * hardware concurrency); jobs() feeds the harness's ScenarioRunner so
 * every sweep can fan across threads. Results are committed in
 * submission order, so output is byte-identical at every jobs level.
 *
 * write() appends host wall-clock ("wall_" prefix) and DRX compiled-
 * kernel cache ("cache_" prefix) metrics to the JSON; both prefixes are
 * informational to tools/bench_diff (reported, never gated -- wall time
 * is nondeterministic and cache totals legitimately change with
 * configuration).
 */
class BenchReport
{
  public:
    BenchReport(int argc, char **argv, std::string figure)
        : _figure(std::move(figure)),
          _jobs(exec::resolveJobs(exec::parseJobsFlag(argc, argv))),
          _start(std::chrono::steady_clock::now())
    {
        for (int i = 1; i < argc; ++i) {
            if (std::strcmp(argv[i], "--json") == 0) {
                if (i + 1 >= argc) {
                    std::fprintf(stderr, "%s: --json needs a path\n",
                                 argv[0]);
                    std::exit(2);
                }
                _path = argv[++i];
            }
        }
    }

    /** Record one named scalar (names must be unique per report). */
    void
    metric(const std::string &name, double value)
    {
        _names.push_back(name);
        _values.push_back(value);
    }

    /**
     * Write the JSON file when --json was passed.
     * @return 0 on success (main-friendly), 1 on I/O failure
     */
    int
    write() const
    {
        if (_path.empty())
            return 0;
        std::FILE *f = std::fopen(_path.c_str(), "w");
        if (!f) {
            std::fprintf(stderr, "cannot write '%s'\n", _path.c_str());
            return 1;
        }
        std::fprintf(f, "{\"figure\":\"%s\",\"metrics\":{",
                     _figure.c_str());
        for (std::size_t i = 0; i < _names.size(); ++i) {
            std::fprintf(f, "%s\"%s\":%.17g", i ? "," : "",
                         _names[i].c_str(), _values[i]);
        }
        // Informational host-side metrics (JSON only; stdout must stay
        // byte-identical across jobs levels).
        const char *sep = _names.empty() ? "" : ",";
        const double wall_ms =
            std::chrono::duration<double, std::milli>(
                std::chrono::steady_clock::now() - _start)
                .count();
        const drx::CacheCounters cc =
            drx::ProgramCache::globalCounters();
        std::fprintf(f, "%s\"wall_ms_total\":%.17g", sep, wall_ms);
        std::fprintf(f, ",\"cache_drx_hits\":%llu",
                     static_cast<unsigned long long>(cc.compile_hits));
        std::fprintf(f, ",\"cache_drx_misses\":%llu",
                     static_cast<unsigned long long>(cc.compile_misses));
        std::fprintf(f, ",\"cache_drx_evictions\":%llu",
                     static_cast<unsigned long long>(cc.evictions));
        std::fprintf(f, ",\"cache_drx_hit_rate\":%.17g", cc.hitRate());
        std::fprintf(f, "}}\n");
        std::fclose(f);
        return 0;
    }

    /** Worker count resolved from --jobs / DMX_JOBS / the hardware. */
    unsigned jobs() const { return _jobs; }

  private:
    std::string _figure;
    std::string _path;
    unsigned _jobs = 1;
    std::chrono::steady_clock::time_point _start;
    std::vector<std::string> _names;
    std::vector<double> _values;
};

/**
 * Evaluate independent sweep points in parallel, results in submission
 * order. Build one self-contained thunk per sweep point, call this, and
 * consume the returned vector in the existing print loops: stdout and
 * --json output stay byte-identical to the serial nested-loop version
 * at every jobs level (`--jobs 1` runs the thunks inline, in order).
 */
template <typename T>
inline std::vector<T>
runSweep(const BenchReport &report, std::vector<std::function<T()>> thunks)
{
    exec::ScenarioRunner runner(report.jobs());
    return runner.run<T>(std::move(thunks));
}

/** The five Table I applications (built once per process). */
inline const std::vector<sys::AppModel> &
suite()
{
    static const std::vector<sys::AppModel> s = [] {
        apps::SuiteParams p;
        return apps::standardSuite(p);
    }();
    return s;
}

/** Paper concurrency sweep. */
inline const std::vector<unsigned> concurrency_sweep{1, 5, 10, 15};

/** @return geometric mean of @p v (empty -> 0). */
inline double
geomean(const std::vector<double> &v)
{
    if (v.empty())
        return 0;
    double log_sum = 0;
    for (double x : v)
        log_sum += std::log(x);
    return std::exp(log_sum / static_cast<double>(v.size()));
}

/**
 * Run @p n_apps homogeneous copies of @p app under @p placement.
 */
inline sys::RunStats
runHomogeneous(const sys::AppModel &app, sys::Placement placement,
               unsigned n_apps,
               pcie::Generation gen = pcie::Generation::Gen3,
               unsigned batch = 1)
{
    sys::SystemConfig cfg;
    cfg.placement = placement;
    cfg.n_apps = n_apps;
    cfg.gen = gen;
    cfg.batch = batch;
    return sys::simulateSystem(cfg, {app});
}

/** Print the standard harness banner. */
inline void
banner(const std::string &what, const std::string &paper_ref)
{
    std::printf("=============================================================\n");
    std::printf("DMX reproduction harness: %s\n", what.c_str());
    std::printf("Paper reference: %s\n", paper_ref.c_str());
    std::printf("=============================================================\n\n");
}

} // namespace dmx::bench

#endif // DMX_BENCH_BENCH_UTIL_HH
