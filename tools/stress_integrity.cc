/**
 * @file
 * Data-integrity stress driver: sweeps per-hop corruption rate x
 * end-to-end protection mode over protected restructure chains
 * (integrity::runChain) and reports the silent-data-corruption escape
 * rate, detection/recovery counts and makespan inflation per point.
 *
 * Every trial runs a multi-stage chain under a seeded IntegrityPlan
 * injecting silent DMA payload bit flips plus link-CRC replays, then
 * compares the delivered bytes against a golden corruption-free run:
 * an *escape* is a chain that reports success with wrong bytes. The
 * headline check is the integrity contract: end-to-end checksums must
 * drive escapes to zero at every corruption rate, under both mismatch
 * policies, at bounded recovery overhead.
 *
 * Independent trials fan across exec::ScenarioRunner workers; results
 * commit in submission order, so output is byte-identical at every
 * --jobs level.
 *
 * Usage:
 *   stress_integrity [--trials N] [--stages K] [--seed S]
 *                    [--descriptor] [--jobs N] [--json PATH]
 *
 * --descriptor runs every chain under ChainMode::Descriptor (linked-
 * descriptor submission, 2-stage segments) instead of the legacy
 * per-hop loop; the integrity contract must hold identically there.
 */

#include <cstdio>
#include <cstring>
#include <functional>
#include <iostream>
#include <string>
#include <vector>

#include "bench/bench_util.hh"
#include "common/logging.hh"
#include "common/strutil.hh"
#include "integrity/chain.hh"
#include "integrity/integrity.hh"
#include "runtime/runtime.hh"

using namespace dmx;
using namespace dmx::integrity;

namespace
{

/** Protection modes under test. */
enum class Mode
{
    Off,          ///< no e2e protection: corruption flows through
    E2eRetransmit,///< per-hop checksums, mismatch -> hop retransmit
    E2eRollback,  ///< per-hop checksums, mismatch -> rollback + replay
};

const char *
modeKey(Mode m)
{
    switch (m) {
      case Mode::Off:           return "off";
      case Mode::E2eRetransmit: return "retx";
      case Mode::E2eRollback:   return "rollb";
    }
    return "?";
}

/** One sweep point: a (corruption rate, protection mode) pair. */
struct Point
{
    double rate;
    Mode mode;
};

/** Stable metric suffix, e.g. "r0.0010_retx". */
std::string
pointKey(const Point &p)
{
    char buf[48];
    std::snprintf(buf, sizeof(buf), "r%.4f_%s", p.rate, modeKey(p.mode));
    return buf;
}

/** A kernel that increments every byte. */
runtime::Bytes
bump(const runtime::Bytes &in, kernels::OpCount &ops)
{
    runtime::Bytes out = in;
    for (auto &b : out)
        ++b;
    ops.int_ops += out.size();
    ops.bytes_read += in.size();
    ops.bytes_written += out.size();
    return out;
}

/** Result of one chain trial. */
struct Trial
{
    bool ok = false;
    bool escape = false;      ///< reported success, delivered bad bytes
    unsigned mismatches = 0;  ///< corruptions the e2e checksum caught
    unsigned recoveries = 0;  ///< retransmits + rollbacks + failovers
    Tick makespan = 0;
};

constexpr std::size_t payload_bytes = 2048;

runtime::Bytes
chainInput()
{
    runtime::Bytes b(payload_bytes);
    for (std::size_t i = 0; i < b.size(); ++i)
        b[i] = static_cast<std::uint8_t>(i * 7 + 3);
    return b;
}

/** Run one chain under @p point with the trial's own seeded plan. */
Trial
runTrial(const Point &point, unsigned stages, std::uint64_t seed,
         const runtime::Bytes &golden, bool descriptor)
{
    runtime::Platform plat;
    std::vector<ChainStage> chain;
    for (unsigned s = 0; s < stages; ++s) {
        ChainStage st;
        st.device = plat.addAccelerator(
            "a" + std::to_string(s),
            s % 2 ? accel::Domain::SVM : accel::Domain::FFT, bump);
        chain.push_back(st);
    }

    IntegritySpec spec;
    spec.seed = seed;
    spec.payload_flip_prob = point.rate;
    spec.link_crc_prob = point.rate;
    IntegrityPlan plan(spec);
    plat.setIntegrityPlan(&plan);

    ChainConfig cfg;
    cfg.protection = point.mode == Mode::Off ? ProtectionMode::Off
                                             : ProtectionMode::E2eChecksum;
    cfg.policy = point.mode == Mode::E2eRollback
                     ? MismatchPolicy::RollbackReplay
                     : MismatchPolicy::HopRetransmit;
    cfg.checkpoints = point.mode == Mode::E2eRollback;
    cfg.max_recoveries = 512;
    if (descriptor) {
        cfg.mode = ChainMode::Descriptor;
        cfg.segment_stages = 2;
    }

    const ChainReport rep = runChain(plat, chain, chainInput(), cfg);

    Trial t;
    t.ok = rep.ok;
    t.escape = rep.ok && rep.output != golden;
    t.mismatches = rep.mismatches_detected;
    t.recoveries = rep.recoveries();
    t.makespan = rep.makespan;
    return t;
}

} // namespace

int
main(int argc, char **argv)
{
    bench::BenchReport report(argc, argv, "stress_integrity");

    unsigned trials = 32;
    unsigned stages = 5;
    std::uint64_t seed = 7;
    bool descriptor = false;
    for (int i = 1; i < argc; ++i) {
        auto value = [&](const char *flag) {
            if (i + 1 >= argc)
                dmx_fatal("%s needs a value", flag);
            return argv[++i];
        };
        auto number = [&](const char *flag, auto &out) {
            const char *s = value(flag);
            if (!parseDecimal(s, out))
                dmx_fatal("%s '%s': expected a non-negative decimal "
                          "integer in range", flag, s);
        };
        if (std::strcmp(argv[i], "--trials") == 0)
            number("--trials", trials);
        else if (std::strcmp(argv[i], "--stages") == 0)
            number("--stages", stages);
        else if (std::strcmp(argv[i], "--seed") == 0)
            number("--seed", seed);
        else if (std::strcmp(argv[i], "--descriptor") == 0)
            descriptor = true;
    }
    if (trials < 1)
        dmx_fatal("--trials must be >= 1 (no trial proves no contract)");
    if (stages < 2)
        dmx_fatal("--stages must be >= 2 (a chain needs a hop)");

    bench::banner("Integrity stress - corruption rate x protection sweep",
                  "end-to-end data integrity & checkpointed recovery");
    if (descriptor)
        std::printf("chain submission: descriptor-chained "
                    "(2-stage segments)\n\n");

    const std::vector<double> rates{0.0, 1e-3, 1e-2, 5e-2};
    std::vector<Point> points;
    for (const double r : rates)
        for (const Mode m :
             {Mode::Off, Mode::E2eRetransmit, Mode::E2eRollback})
            points.push_back({r, m});

    // Golden bytes: the same chain, corruption-free and unprotected.
    const runtime::Bytes golden = [&] {
        runtime::Platform plat;
        std::vector<ChainStage> chain;
        for (unsigned s = 0; s < stages; ++s) {
            ChainStage st;
            st.device = plat.addAccelerator(
                "a" + std::to_string(s),
                s % 2 ? accel::Domain::SVM : accel::Domain::FFT, bump);
            chain.push_back(st);
        }
        const ChainReport rep = runChain(plat, chain, chainInput());
        if (!rep.ok)
            dmx_fatal("golden chain run failed");
        return rep.output;
    }();

    // One thunk per (point, trial); trials fan across workers.
    std::vector<std::function<Trial()>> thunks;
    for (const Point &p : points) {
        for (unsigned t = 0; t < trials; ++t) {
            const std::uint64_t trial_seed =
                seed * 1000003ull + t * 7919ull + 13;
            thunks.push_back([p, stages, trial_seed, &golden,
                              descriptor] {
                return runTrial(p, stages, trial_seed, golden,
                                descriptor);
            });
        }
    }
    const std::vector<Trial> results =
        bench::runSweep<Trial>(report, std::move(thunks));

    // Baseline makespan: corruption-free, protection off.
    Tick clean_ticks = 0;
    for (unsigned t = 0; t < trials; ++t)
        clean_ticks += results[t].makespan;

    Table tab("Integrity sweep (" + std::to_string(stages) +
              " stages, " + std::to_string(trials) +
              " trials per point)");
    tab.header({"corruption", "mode", "completed", "escapes",
                "escape rate", "detected", "recoveries",
                "makespan ticks", "inflation"});

    bool contract_holds = true;
    std::uint64_t protected_escapes = 0;
    for (std::size_t i = 0; i < points.size(); ++i) {
        const Point &p = points[i];
        unsigned completed = 0, escapes = 0, detected = 0,
                 recoveries = 0;
        Tick ticks = 0;
        for (unsigned t = 0; t < trials; ++t) {
            const Trial &tr = results[i * trials + t];
            completed += tr.ok ? 1 : 0;
            escapes += tr.escape ? 1 : 0;
            detected += tr.mismatches;
            recoveries += tr.recoveries;
            ticks += tr.makespan;
        }
        const double escape_rate =
            completed ? static_cast<double>(escapes) / completed : 0.0;
        const double inflation =
            clean_ticks ? static_cast<double>(ticks) /
                              static_cast<double>(clean_ticks)
                        : 0.0;
        tab.row({Table::num(p.rate, 4), modeKey(p.mode),
                 std::to_string(completed), std::to_string(escapes),
                 Table::num(escape_rate, 3), std::to_string(detected),
                 std::to_string(recoveries),
                 std::to_string(ticks), Table::num(inflation, 3)});

        const std::string key = pointKey(p);
        report.metric("escapes_" + key, static_cast<double>(escapes));
        report.metric("detected_" + key, static_cast<double>(detected));
        report.metric("recoveries_" + key,
                      static_cast<double>(recoveries));
        report.metric("ticks_" + key, static_cast<double>(ticks));

        // The contract: e2e checksums kill every escape, at every
        // corruption rate, under both mismatch policies.
        if (p.mode != Mode::Off) {
            protected_escapes += escapes;
            if (escapes != 0)
                contract_holds = false;
        }
    }
    tab.print(std::cout);

    report.metric("sdc_contained", contract_holds ? 1.0 : 0.0);
    std::printf("integrity contract: %s (%llu escapes under e2e "
                "protection across %zu points)\n\n",
                contract_holds ? "PASS" : "FAIL",
                static_cast<unsigned long long>(protected_escapes),
                points.size() - rates.size());
    return report.write();
}
