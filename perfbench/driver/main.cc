/**
 * @file
 * Host-time benchmark of the DMX simulator: how long the simulator
 * takes to produce its (deterministic) simulated numbers.
 *
 * Usage:
 *   perfbench --workload NAME --seed N --seconds S --trace 0|1
 *             [--spans PATH] [--corrupt-expected]
 *
 * The workload's set-up runs five times; setup_s is the median.
 * Operations then run back to back, one caller, until S seconds have
 * passed and at least the fixed digest prefix has run. Every operation's
 * output is checked. The end-to-end times are host times divided by the
 * machine's slow-down at the time, which a SpeedProbe measures around
 * every set-up and before every operation (see harness.hh); the raw
 * times are printed too. The digest prefix's inputs and simulated statistics
 * are fingerprinted, so the same seed prints the same two hashes on any
 * machine and at any speed.
 *
 * --trace 0 reports the end-to-end metrics. --trace 1 runs every
 * operation twice, untraced and with host spans recorded around each
 * call into the simulator, and reports the per-layer metrics plus the
 * tracing overhead; --spans writes the spans as Chrome trace_event JSON.
 * --corrupt-expected damages one expected output, which must surface as
 * a failed operation.
 *
 * The last line of standard output is one JSON object:
 *   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
 */

#include <sys/resource.h>

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <iostream>
#include <sstream>
#include <stdexcept>
#include <string>

#include "workloads.hh"

using namespace perfbench;

namespace
{

struct MetricSpec
{
    const char *name;
    const char *unit;
};

const MetricSpec end_to_end[] = {
    {"setup_s", "s"},      {"ops_per_s", "1/s"}, {"op_p50_ms", "ms"},
    {"op_tail_ms", "ms"},  {"peak_rss_mb", "MB"},
};

/** Every per-layer metric, on every workload (0 where a layer is idle). */
const MetricSpec per_layer[] = {
    {"apps.build_ms", "ms"},
    {"restructure.oracle_ms", "ms"},
    {"restructure.oracle_mb_per_s", "MB/s"},
    {"runtime.platform_ms", "ms"},
    {"drx.add_ms", "ms"},
    {"drx.cache_hit_rate", "ratio"},
    {"drx.cache_timing_hits", "count"},
    {"runtime.enqueue_ms", "ms"},
    {"runtime.finish_ms", "ms"},
    {"runtime.teardown_ms", "ms"},
    {"runtime.commands", "count"},
    {"sim.events", "count"},
    {"sim.events_per_s", "1/s"},
    {"pcie.doorbells", "count"},
    {"pcie.desc_fetches", "count"},
    {"pcie.settle_visits", "count"},
    {"pcie.bytes", "bytes"},
    {"driver.interrupts", "count"},
    {"driver.polls", "count"},
    {"driver.suppressed", "count"},
    {"sys.simulate_ms.all-cpu", "ms"},
    {"sys.simulate_ms.multi-axl", "ms"},
    {"sys.simulate_ms.integrated", "ms"},
    {"sys.simulate_ms.standalone", "ms"},
    {"sys.simulate_ms.bump-in-the-wire", "ms"},
    {"sys.simulate_ms.pcie-integrated", "ms"},
    {"sys.host_us_per_request.all-cpu", "us"},
    {"sys.host_us_per_request.multi-axl", "us"},
    {"sys.host_us_per_request.integrated", "us"},
    {"sys.host_us_per_request.standalone", "us"},
    {"sys.host_us_per_request.bump-in-the-wire", "us"},
    {"sys.host_us_per_request.pcie-integrated", "us"},
    {"sys.peak_active_flows", "count"},
    {"sys.driver_round_trips", "count"},
    {"sys.doorbells", "count"},
    {"serve.simulate_ms.overload-legacy", "ms"},
    {"serve.simulate_ms.overload-prot", "ms"},
    {"serve.simulate_ms.plain", "ms"},
    {"serve.simulate_ms.hedged", "ms"},
    {"serve.simulate_ms.tail", "ms"},
    {"serve.attempts_per_offered", "ratio"},
    {"serve.hedges", "count"},
    {"robust.shed", "count"},
    {"robust.breaker_opens", "count"},
    {"runtime.retries", "count"},
    {"runtime.watchdog_timeouts", "count"},
    {"bench.check_ms", "ms"},
    {"bench.op_ms", "ms"},
    {"bench.other_ms", "ms"},
    {"trace.overhead_pct", "%"},
    {"trace.spans_per_op", "count"},
};

/** A workload and the size of its fixed digest prefix. */
struct WorkloadDef
{
    const char *name;
    std::unique_ptr<Workload> (*make)(const WorkloadParams &);
    std::uint64_t prefix_ops;
};

const WorkloadDef workloads[] = {
    {"sys-sweep", makeSysSweep, 1060}, // one round of both designs
    {"drx-runtime-session", makeDrxRuntimeSession, 8},
};

/** Set-ups per run; setup_s is their median. */
constexpr unsigned setups = 5;

/** Speed probes run before and after each set-up. */
constexpr unsigned setup_probes = 8;

/** An operation's slow-down is the median probe within this many ops. */
constexpr std::size_t probe_window = 8;

struct Args
{
    std::string workload;
    std::uint64_t seed = 0;
    double seconds = -1;
    int trace = -1;
    std::string spans;
    bool corrupt_expected = false;
};

[[noreturn]] void
usage(const char *why)
{
    std::fprintf(stderr,
                 "perfbench: %s\nusage: perfbench --workload NAME --seed N "
                 "--seconds S --trace 0|1 [--spans PATH] "
                 "[--corrupt-expected]\n",
                 why);
    std::exit(2);
}

Args
parseArgs(int argc, char **argv)
{
    Args a;
    bool have_seed = false;
    for (int i = 1; i < argc; ++i) {
        const std::string flag = argv[i];
        if (flag == "--corrupt-expected") {
            a.corrupt_expected = true;
            continue;
        }
        if (i + 1 >= argc)
            usage(("missing value for " + flag).c_str());
        const std::string v = argv[++i];
        try {
            if (flag == "--workload") {
                a.workload = v;
            } else if (flag == "--seed") {
                a.seed = std::stoull(v);
                have_seed = true;
            } else if (flag == "--seconds") {
                a.seconds = std::stod(v);
            } else if (flag == "--trace") {
                a.trace = std::stoi(v);
            } else if (flag == "--spans") {
                a.spans = v;
            } else {
                usage(("unknown flag " + flag).c_str());
            }
        } catch (const std::logic_error &) {
            usage(("bad value for " + flag).c_str());
        }
    }
    if (a.workload.empty() || !have_seed || !(a.seconds >= 0) ||
        (a.trace != 0 && a.trace != 1))
        usage("--workload, --seed, --seconds >= 0 and --trace 0|1 are "
              "required");
    return a;
}

/**
 * The timed operations 0, 1, ... until time and prefix are done. A
 * traced phase runs every operation twice, untraced and traced, in
 * alternating order, so the tracing overhead is measured on identical,
 * equally warm operations.
 */
struct Phase
{
    std::vector<double> op_s;          ///< per operation (traced run)
    std::vector<double> untraced_op_s; ///< traced phase only
    std::vector<double> probe_s;       ///< before each op, untraced phase
    double elapsed_s = 0;
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    Digest inputs;
    Digest digest;
    Digest untraced_digest; ///< traced phase only
};

Phase
runPhase(Workload &w, Tracer &tracer, SpeedProbe &probe, double seconds,
         std::uint64_t prefix_ops, bool traced)
{
    const std::uint32_t span_op = tracer.intern("bench.op");
    Phase ph;
    auto once = [&](std::uint64_t i, bool on) {
        const bool prefix = i < prefix_ops;
        OpContext ctx;
        ctx.prefix = prefix;
        ctx.traced = on;
        if (prefix && on == traced) {
            ctx.inputs = &ph.inputs;
            ctx.digest = &ph.digest;
        } else if (prefix) {
            ctx.digest = &ph.untraced_digest;
        }
        tracer.setEnabled(on);
        tracer.setOp(static_cast<std::int64_t>(i));
        const Clock::time_point t0 = Clock::now();
        bool ok = false;
        {
            auto s = tracer.span(span_op);
            ok = w.run(i, ctx);
        }
        const double dt = secondsBetween(t0, Clock::now());
        tracer.setEnabled(false);
        ++ph.attempted;
        ph.failed += ok ? 0 : 1;
        return dt;
    };

    const Clock::time_point start = Clock::now();
    for (std::uint64_t i = 0;
         i < prefix_ops || secondsBetween(start, Clock::now()) < seconds;
         ++i) {
        if (!traced) {
            ph.probe_s.push_back(probe.run());
            ph.op_s.push_back(once(i, false));
        } else if (i % 2 == 0) {
            ph.untraced_op_s.push_back(once(i, false));
            ph.op_s.push_back(once(i, true));
        } else {
            ph.op_s.push_back(once(i, true));
            ph.untraced_op_s.push_back(once(i, false));
        }
    }
    ph.elapsed_s = secondsBetween(start, Clock::now());
    return ph;
}

double
median(std::vector<double> v)
{
    std::sort(v.begin(), v.end());
    const std::size_t n = v.size();
    return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/**
 * The machine's slow-down at each operation: the median of the probe
 * times within probe_window operations on either side, over the
 * probe's nominal time.
 */
std::vector<double>
slowdowns(const std::vector<double> &probe_s)
{
    const std::size_t n = probe_s.size();
    std::vector<double> out(n);
    for (std::size_t i = 0; i < n; ++i) {
        const std::size_t lo = i > probe_window ? i - probe_window : 0;
        const std::size_t hi = std::min(n, i + probe_window + 1);
        const auto first = probe_s.begin();
        out[i] = median(std::vector<double>(
                     first + static_cast<std::ptrdiff_t>(lo),
                     first + static_cast<std::ptrdiff_t>(hi))) /
                 SpeedProbe::nominal_s;
    }
    return out;
}

double
peakRssMb()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0; // KiB on Linux
}

std::string
number(double v)
{
    if (!std::isfinite(v))
        throw std::runtime_error("non-finite metric value");
    char buf[64];
    const auto r = std::to_chars(buf, buf + sizeof(buf), v);
    return std::string(buf, r.ptr);
}

std::string
hex(std::uint64_t v)
{
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%016llx",
                  static_cast<unsigned long long>(v));
    return buf;
}

void
printResult(std::uint64_t attempted, std::uint64_t failed,
            const MetricSpec *specs, std::size_t n,
            const std::map<std::string, double> &values)
{
    for (const auto &[name, v] : values) {
        bool known = false;
        for (std::size_t k = 0; k < n; ++k)
            known = known || name == specs[k].name;
        if (!known)
            throw std::logic_error("metric '" + name + "' is not declared");
    }
    std::ostringstream out;
    out << "{\"correct\": " << (failed == 0 ? "true" : "false")
        << ", \"attempted\": " << attempted << ", \"failed\": " << failed
        << ", \"metrics\": {";
    for (std::size_t k = 0; k < n; ++k) {
        const auto it = values.find(specs[k].name);
        out << (k ? ", " : "") << '"' << specs[k].name << "\": {\"value\": "
            << number(it == values.end() ? 0.0 : it->second)
            << ", \"unit\": \"" << specs[k].unit << "\"}";
    }
    out << "}}";
    std::printf("%s\n", out.str().c_str());
}

int
run(const Args &args)
{
    const WorkloadDef *def = nullptr;
    for (const WorkloadDef &d : workloads)
        if (args.workload == d.name)
            def = &d;
    if (!def)
        usage(("unknown workload " + args.workload).c_str());

    Tracer tracer;
    WorkloadParams params;
    params.seed = args.seed;
    params.tracer = &tracer;
    params.corrupt_expected = args.corrupt_expected;
    const std::unique_ptr<Workload> w = def->make(params);

    // Set-up, several times: each run rebuilds every shared input.
    SpeedProbe probe;
    tracer.setEnabled(args.trace == 1);
    std::vector<double> raw_setup_s, setup_s;
    for (unsigned r = 0; r < setups; ++r) {
        std::vector<double> around;
        for (unsigned k = 0; k < setup_probes; ++k)
            around.push_back(probe.run());
        const Clock::time_point t0 = Clock::now();
        w->setup();
        raw_setup_s.push_back(secondsBetween(t0, Clock::now()));
        for (unsigned k = 0; k < setup_probes; ++k)
            around.push_back(probe.run());
        setup_s.push_back(raw_setup_s.back() * SpeedProbe::nominal_s /
                          median(around));
    }
    tracer.setEnabled(false);

    std::printf("workload %s seed %llu seconds %g trace %d\n", def->name,
                static_cast<unsigned long long>(args.seed), args.seconds,
                args.trace);
    std::printf("setup_s per set-up, raw:");
    for (const double s : raw_setup_s)
        std::printf(" %.4f", s);
    std::printf("\n");

    std::map<std::string, double> values;
    const Phase ph =
        runPhase(*w, tracer, probe, args.seconds, def->prefix_ops,
                 args.trace == 1);
    std::printf("%llu runs of %zu ops in %.3f s, %llu failed; inputs %s "
                "digest %s over the first %llu ops\n",
                static_cast<unsigned long long>(ph.attempted),
                ph.op_s.size(), ph.elapsed_s,
                static_cast<unsigned long long>(ph.failed),
                hex(ph.inputs.value()).c_str(), hex(ph.digest.value()).c_str(),
                static_cast<unsigned long long>(def->prefix_ops));
    std::uint64_t failed = ph.failed;

    if (args.trace == 0) {
        const std::vector<double> slow = slowdowns(ph.probe_s);
        std::vector<double> ms, raw_ms;
        double busy_s = 0;
        for (std::size_t i = 0; i < ph.op_s.size(); ++i) {
            raw_ms.push_back(ph.op_s[i] * 1e3);
            ms.push_back(ph.op_s[i] * 1e3 / slow[i]);
            busy_s += ph.op_s[i] / slow[i];
        }
        std::sort(ms.begin(), ms.end());
        std::sort(raw_ms.begin(), raw_ms.end());
        const std::size_t n = ms.size();
        // Nearest rank: the highest percentile with >= 10 ops beyond it.
        const std::size_t tail_rank = n > 10 ? n - 10 : n;
        std::printf("op_tail_ms is p%.2f of %zu ops (%zu beyond it)\n",
                    100.0 * static_cast<double>(tail_rank) /
                        static_cast<double>(n),
                    n, n - tail_rank);
        std::printf("raw host times: setup_s %.4f ops_per_s %.3f "
                    "op_p50_ms %.4f op_tail_ms %.4f; slow-down median "
                    "%.3f, range %.3f-%.3f\n",
                    median(raw_setup_s),
                    static_cast<double>(n) / ph.elapsed_s,
                    raw_ms[(n + 1) / 2 - 1], raw_ms[tail_rank - 1],
                    median(slow), *std::min_element(slow.begin(), slow.end()),
                    *std::max_element(slow.begin(), slow.end()));
        values["setup_s"] = median(setup_s);
        values["ops_per_s"] = static_cast<double>(n) / busy_s;
        values["op_p50_ms"] = ms[(n + 1) / 2 - 1];
        values["op_tail_ms"] = ms[tail_rank - 1];
        values["peak_rss_mb"] = peakRssMb();
        printResult(ph.attempted, failed, end_to_end, std::size(end_to_end),
                    values);
        return 0;
    }

    if (ph.untraced_digest.value() != ph.digest.value()) {
        std::fprintf(stderr, "tracing changed the simulated statistics\n");
        ++failed;
    }
    double traced_s = 0, untraced_s = 0;
    for (std::size_t i = 0; i < ph.op_s.size(); ++i) {
        traced_s += ph.op_s[i];
        untraced_s += ph.untraced_op_s[i];
    }
    const auto ops = static_cast<double>(ph.op_s.size());
    std::size_t op_spans = 0;
    for (const Tracer::Span &s : tracer.spans())
        op_spans += s.op >= 0 ? 1 : 0;

    const std::map<std::string, LayerTime> layers = tracer.selfTimes();
    w->layerMetrics(layers, ph.op_s.size(), setups, values);
    values["bench.op_ms"] = traced_s * 1e3 / ops;
    values["bench.other_ms"] = selfMs(layers, "bench.op", ops);
    values["trace.overhead_pct"] = (traced_s / untraced_s - 1.0) * 100.0;
    values["trace.spans_per_op"] = static_cast<double>(op_spans) / ops;
    std::printf("tracing overhead %.3f%% over %zu paired ops\n",
                values["trace.overhead_pct"], ph.op_s.size());
    std::printf("self time (s, spans):");
    for (const auto &[name, lt] : layers)
        std::printf(" %s=%.4f/%llu", name.c_str(), lt.self_s,
                    static_cast<unsigned long long>(lt.spans));
    std::printf("\n");

    if (!args.spans.empty()) {
        std::ofstream os(args.spans);
        if (!os)
            throw std::runtime_error("cannot write " + args.spans);
        tracer.writeChromeJson(os);
        std::printf("spans written to %s\n", args.spans.c_str());
    }
    printResult(ph.attempted, failed, per_layer, std::size(per_layer),
                values);
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    const Args args = parseArgs(argc, argv);
    try {
        return run(args);
    } catch (const std::exception &e) {
        std::fprintf(stderr, "perfbench: %s\n", e.what());
        return 1;
    }
}
