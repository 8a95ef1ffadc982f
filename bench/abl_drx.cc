/**
 * @file
 * Ablations of the DRX design choices called out in DESIGN.md:
 *  - the Instruction Repeater (hardware loops) vs software loops,
 *  - access/execute double buffering on/off,
 *  - banded vs dense MatVec lowering,
 *  - affine strided lowering vs index-table gathers.
 * Each row reports simulated DRX cycles on the mel-spectrogram, text
 * record and columnarization restructuring kernels; every cell is also
 * a --json metric, so CI gates each ablation path at zero tolerance.
 */

#include <cstring>

#include "bench/bench_util.hh"
#include "common/random.hh"
#include "drx/compiler.hh"
#include "restructure/catalog.hh"

using namespace dmx;
using namespace dmx::drx;

namespace
{

restructure::Bytes
inputFor(const restructure::Kernel &k, std::uint64_t seed)
{
    Rng rng(seed);
    restructure::Bytes out(k.input.bytes());
    if (k.input.dtype == DType::F32) {
        for (std::size_t i = 0; i < k.input.elems(); ++i) {
            const float v = static_cast<float>(rng.uniform(-1, 1));
            std::memcpy(&out[i * 4], &v, 4);
        }
    } else {
        for (auto &b : out)
            b = static_cast<std::uint8_t>(rng.below(256));
    }
    return out;
}

Cycles
cyclesWith(const restructure::Kernel &k, DrxConfig cfg,
           std::uint64_t seed)
{
    DrxMachine m(cfg);
    return runKernelOnDrx(k, inputFor(k, seed), m).total_cycles;
}

} // namespace

int
main(int argc, char **argv)
{
    bench::BenchReport report(argc, argv, "abl_drx");
    bench::banner("DRX design ablations",
                  "DESIGN.md Sec. 7 (hardware loops, double buffering, "
                  "banded MatVec, affine gathers)");

    const auto mel = restructure::melSpectrogram(512, 513, 128);
    const auto db = restructure::dbColumnarize(1u << 17, true);
    // Fine-grained per-record iterations: where the Instruction
    // Repeater's zero-overhead loops matter most.
    const auto text =
        restructure::textRecordRestructure(1u << 20, 256, 320);

    Table t("DRX cycle counts under ablations (250 MHz prototype)");
    t.header({"configuration", "mel", "text_record", "db_partition",
              "mel x", "text x", "db x"});
    DrxConfig base_cfg;
    base_cfg.freq_hz = 250e6; // the FPGA prototype, where compute binds

    // One scenario per (configuration, kernel) cell, plus the two
    // lowering studies at the end; every cell is an independent DRX
    // simulation, so the whole table fans across workers.
    DrxConfig no_loops = base_cfg;
    no_loops.hardware_loops = false;
    DrxConfig no_dbl = base_cfg;
    no_dbl.double_buffer = false;
    restructure::Kernel dense = mel;
    {
        // Banded vs dense MatVec: destroy the band structure.
        auto w = std::make_shared<std::vector<float>>(
            *dense.stages[1].weights);
        for (auto &v : *w)
            v += 1e-12f;
        dense.stages[1].weights = w;
    }
    const auto affine = restructure::dbColumnarize(1u << 17, false);

    std::vector<std::function<Cycles()>> thunks;
    for (const DrxConfig &cfg : {base_cfg, no_loops, no_dbl}) {
        thunks.push_back([&mel, cfg] { return cyclesWith(mel, cfg, 1); });
        thunks.push_back([&text, cfg] { return cyclesWith(text, cfg, 3); });
        thunks.push_back([&db, cfg] { return cyclesWith(db, cfg, 2); });
    }
    thunks.push_back(
        [&dense, base_cfg] { return cyclesWith(dense, base_cfg, 1); });
    thunks.push_back(
        [&affine, base_cfg] { return cyclesWith(affine, base_cfg, 3); });
    const std::vector<Cycles> cyc =
        bench::runSweep<Cycles>(report, std::move(thunks));

    const Cycles mel_base = cyc[0];
    const Cycles text_base = cyc[1];
    const Cycles db_base = cyc[2];
    std::size_t cell = 0;
    // Every cell is also a --json metric, <kernel>_<config>_cycles.
    auto add = [&](const std::string &name, const std::string &key) {
        const Cycles mc = cyc[cell++];
        const Cycles tc = cyc[cell++];
        const Cycles dc = cyc[cell++];
        t.row({name, std::to_string(mc), std::to_string(tc),
               std::to_string(dc),
               Table::num(static_cast<double>(mc) / mel_base),
               Table::num(static_cast<double>(tc) / text_base),
               Table::num(static_cast<double>(dc) / db_base)});
        report.metric("mel_" + key + "_cycles", static_cast<double>(mc));
        report.metric("text_" + key + "_cycles", static_cast<double>(tc));
        report.metric("db_" + key + "_cycles", static_cast<double>(dc));
    };
    add("baseline (128 lanes, hw loops, dbl-buffer)", "base");
    add("no Instruction Repeater (software loops)", "no_hw_loops");
    add("no access/execute double buffering", "no_double_buffer");
    t.print(std::cout);

    {
        const Cycles dense_cycles = cyc[cell++];
        report.metric("mel_dense_matvec_cycles",
                      static_cast<double>(dense_cycles));
        Table b("Banded MatVec lowering (mel filter bank)");
        b.header({"lowering", "cycles", "vs banded"});
        b.row({"banded (compiler-detected)", std::to_string(mel_base),
               "1.00"});
        b.row({"dense fallback", std::to_string(dense_cycles),
               Table::num(static_cast<double>(dense_cycles) / mel_base)});
        b.print(std::cout);
    }

    // Affine strided lowering vs index-table gather.
    {
        const Cycles affine_cycles = cyc[cell++];
        report.metric("db_affine_gather_cycles",
                      static_cast<double>(affine_cycles));
        Table g("Gather lowering (columnarization)");
        g.header({"lowering", "cycles", "note"});
        g.row({"affine strided streams (no index table)",
               std::to_string(affine_cycles), "identity row order"});
        g.row({"run-compressed index table", std::to_string(db_base),
               "hash-partitioned row order"});
        g.print(std::cout);
    }
    return report.write();
}
