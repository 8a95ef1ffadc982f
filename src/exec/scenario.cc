#include "exec/scenario.hh"

#include <climits>
#include <cstdlib>
#include <cstring>
#include <thread>

#include "common/logging.hh"
#include "common/strutil.hh"

namespace dmx::exec
{

unsigned
resolveJobs(unsigned requested)
{
    if (requested > 0)
        return requested;
    if (const char *env = std::getenv("DMX_JOBS")) {
        unsigned v = 0;
        if (!parseDecimal(env, v) || v < 1)
            dmx_fatal("DMX_JOBS='%s': expected a worker count in [1, %u]",
                      env, UINT_MAX);
        return v;
    }
    const unsigned hc = std::thread::hardware_concurrency();
    return hc > 0 ? hc : 1;
}

unsigned
parseJobsFlag(int argc, char **argv)
{
    for (int i = 1; i < argc; ++i) {
        if (std::strcmp(argv[i], "--jobs") != 0)
            continue;
        if (i + 1 >= argc)
            dmx_fatal("%s: --jobs needs a worker count", argv[0]);
        unsigned v = 0;
        if (!parseDecimal(argv[i + 1], v) || v < 1)
            dmx_fatal("%s: --jobs '%s': expected a worker count in [1, %u]",
                      argv[0], argv[i + 1], UINT_MAX);
        return v;
    }
    return 0;
}

ScenarioRunner::ScenarioRunner(unsigned jobs, std::uint64_t seed)
    : _jobs(resolveJobs(jobs)), _seed(seed)
{
    if (_jobs > 1)
        _pool = std::make_unique<ThreadPool>(_jobs);
}

} // namespace dmx::exec
