/**
 * @file
 * Chaos pipeline: the quickstart's FFT -> DRX -> SVM chain run under a
 * seeded fault plan, demonstrating the runtime's recovery machinery:
 *
 *  - corrupted/stalled DMA flows caught by watchdogs and retried with
 *    exponential backoff;
 *  - accelerator kernel failures and hangs retried within a budget;
 *  - a DRX driven unhealthy, after which restructuring transparently
 *    degrades to the host CPU (byte-identical, honestly slower);
 *  - p2p copies re-routed through the root complex while the switch's
 *    forwarding path is down.
 *
 * The run prints per-command status and retry counts, then compares
 * clean vs. degraded throughput.
 *
 * Build & run:  ./build/examples/chaos_pipeline
 */

#include <cmath>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "fault/fault.hh"
#include "kernels/fft.hh"
#include "restructure/catalog.hh"
#include "runtime/runtime.hh"

using namespace dmx;
using runtime::Bytes;

namespace
{

constexpr std::size_t fft_size = 256;
constexpr std::size_t hop = 128;
constexpr std::size_t frames = 62;
constexpr std::size_t bins = fft_size / 2 + 1;
constexpr std::size_t mels = 32;
constexpr unsigned rounds = 4;

Bytes
toBytes(const std::vector<float> &v)
{
    Bytes b(v.size() * 4);
    std::memcpy(b.data(), v.data(), b.size());
    return b;
}

std::vector<float>
toFloats(const Bytes &b)
{
    std::vector<float> v(b.size() / 4);
    std::memcpy(v.data(), b.data(), b.size());
    return v;
}

/** One platform: FFT accel, DRX, SVM-ish accel. */
struct Pipeline
{
    runtime::Platform plat;
    runtime::DeviceId fft_dev, drx_dev, svm_dev;

    Pipeline()
    {
        fft_dev = plat.addAccelerator(
            "fft0", accel::Domain::FFT,
            [](const Bytes &in, kernels::OpCount &ops) {
                const auto samples = toFloats(in);
                const auto stft =
                    kernels::stft(samples, fft_size, hop, &ops);
                std::vector<float> out;
                out.reserve(stft.frames * stft.bins * 2);
                for (const auto &c : stft.values) {
                    out.push_back(c.real());
                    out.push_back(c.imag());
                }
                return toBytes(out);
            });
        drx_dev = plat.addDrx("drx0", drx::DrxConfig{});
        svm_dev = plat.addAccelerator(
            "svm0", accel::Domain::SVM,
            [](const Bytes &in, kernels::OpCount &ops) {
                // Stand-in classifier: reduce each mel row to a byte.
                const auto feats = toFloats(in);
                const std::size_t rows = feats.size() / mels;
                Bytes out(rows);
                for (std::size_t r = 0; r < rows; ++r) {
                    float acc = 0;
                    for (std::size_t m = 0; m < mels; ++m)
                        acc += feats[r * mels + m];
                    // Narrow through uint32: |acc| * 255 exceeds a
                    // byte, and a float cast out of range is undefined.
                    out[r] = static_cast<std::uint8_t>(
                        static_cast<std::uint32_t>(std::fabs(acc) * 255.0f) &
                        0x3);
                }
                ops.flops += feats.size();
                ops.bytes_read += in.size();
                ops.bytes_written += out.size();
                return out;
            });
    }
};

void
report(const char *label, const runtime::Event &ev)
{
    std::printf("  %-22s %-9s retries=%u%s  t=%9.1f us\n", label,
                toString(ev.status()).c_str(), ev.retries(),
                ev.degraded() ? "  [degraded->CPU]" : "",
                ev.complete() ? ticksToUs(ev.completeTime()) : -1.0);
}

/** Run @p rounds of the chain; @return end-to-end simulated seconds. */
double
runChain(Pipeline &p, bool verbose)
{
    runtime::Context ctx = p.plat.createContext();
    std::vector<float> audio((frames - 1) * hop + fft_size);
    for (std::size_t i = 0; i < audio.size(); ++i) {
        const float t = static_cast<float>(i);
        audio[i] = std::sin(0.02f * t + 1e-6f * t * t);
    }
    const auto mel = restructure::melSpectrogram(frames, bins, mels);
    const Tick start = p.plat.now();

    for (unsigned r = 0; r < rounds; ++r) {
        const auto b_audio = ctx.createBuffer(toBytes(audio));
        const auto b_spec = ctx.createBuffer();
        const auto b_spec_drx = ctx.createBuffer();
        const auto b_mel = ctx.createBuffer();
        const auto b_mel_svm = ctx.createBuffer();
        const auto b_label = ctx.createBuffer();

        auto e_fft = ctx.queue(p.fft_dev).enqueueKernel(b_audio, b_spec);
        auto e_in = ctx.queue(p.fft_dev)
                        .enqueueCopy(b_spec, b_spec_drx, p.drx_dev);
        ctx.finish();
        auto e_mel = ctx.queue(p.drx_dev)
                         .enqueueRestructure(mel, b_spec_drx, b_mel);
        auto e_out = ctx.queue(p.drx_dev)
                         .enqueueCopy(b_mel, b_mel_svm, p.svm_dev);
        ctx.finish();
        auto e_svm =
            ctx.queue(p.svm_dev).enqueueKernel(b_mel_svm, b_label);
        ctx.finish();

        if (verbose) {
            std::printf("round %u:\n", r);
            report("fft kernel", e_fft);
            report("dma fft->drx", e_in);
            report("drx restructure", e_mel);
            report("dma drx->svm", e_out);
            report("svm kernel", e_svm);
        }
    }
    return ticksToSeconds(p.plat.now() - start);
}

} // namespace

int
main()
{
    std::printf("DMX chaos pipeline: %u rounds of FFT -> DRX -> SVM "
                "under injected faults\n\n", rounds);

    // ---- Baseline: no faults.
    Pipeline clean;
    const double clean_s = runChain(clean, false);

    // ---- Chaos: probabilistic faults at every layer, plus a scripted
    //      burst of DRX machine faults that drives the DRX unhealthy,
    //      and a downed switch p2p path.
    fault::FaultSpec spec;
    spec.seed = 7;
    spec.flow_corrupt_prob = 0.10;
    spec.flow_stall_prob = 0.05;
    spec.kernel_fail_prob = 0.10;
    spec.irq_drop_prob = 0.10;
    spec.p2p_switch_faulted = true;
    fault::FaultPlan plan(spec);
    // Kill the DRX outright: three consecutive machine faults trip the
    // unhealthy threshold and later rounds restructure on the host.
    for (std::uint64_t n = 0; n < 3; ++n)
        plan.scriptMachine(n, fault::MachineAction::Fault);

    Pipeline chaos;
    chaos.plat.setFaultPlan(&plan);
    const double chaos_s = runChain(chaos, true);

    // ---- Report.
    const auto &st = plan.stats();
    std::printf("\ninjected faults     : %llu  (flows: %llu stalled, "
                "%llu corrupted; kernels: %llu failed; drx: %llu "
                "faults; irqs: %llu dropped)\n",
                static_cast<unsigned long long>(st.injected()),
                static_cast<unsigned long long>(st.flows_stalled),
                static_cast<unsigned long long>(st.flows_corrupted),
                static_cast<unsigned long long>(st.kernels_failed),
                static_cast<unsigned long long>(st.machine_faults),
                static_cast<unsigned long long>(st.irqs_dropped));
    std::printf("drx0 healthy        : %s  (restructures degraded to "
                "CPU: %llu)\n",
                chaos.plat.deviceHealthy(chaos.drx_dev) ? "yes" : "NO",
                static_cast<unsigned long long>(
                    chaos.plat.faultStats(chaos.drx_dev).fallbacks));
    std::printf("p2p copies rerouted : %llu (switch path down, staged "
                "via root complex)\n",
                static_cast<unsigned long long>(
                    chaos.plat.faultStats(chaos.fft_dev).rerouted_copies +
                    chaos.plat.faultStats(chaos.drx_dev).rerouted_copies));
    std::printf("dropped irqs        : %llu (recovered by driver "
                "poll)\n",
                static_cast<unsigned long long>(
                    chaos.plat.droppedInterrupts()));
    std::printf("\nthroughput (pipeline rounds / simulated second):\n");
    std::printf("  fault-free : %8.1f\n", rounds / clean_s);
    std::printf("  under chaos: %8.1f  (%.1fx slower, but every round "
                "completed)\n", rounds / chaos_s, chaos_s / clean_s);
    return 0;
}
