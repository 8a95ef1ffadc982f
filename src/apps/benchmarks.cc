#include "apps/benchmarks.hh"

#include <cmath>
#include <cstring>

#include "accel/accelerator.hh"
#include "common/logging.hh"
#include "common/random.hh"
#include "drx/cache.hh"
#include "drx/compiler.hh"
#include "kernels/aes.hh"
#include "kernels/fft.hh"
#include "kernels/hashjoin.hh"
#include "kernels/lz.hh"
#include "kernels/nn.hh"
#include "kernels/regex.hh"
#include "kernels/svm.hh"
#include "restructure/catalog.hh"
#include "restructure/cpu_exec.hh"

namespace dmx::apps
{

using kernels::OpCount;
using restructure::Bytes;
using restructure::Kernel;
using sys::AppModel;
using sys::KernelTiming;
using sys::MotionTiming;

namespace
{

/** Multiply every count by @p factor (linear workload scaling). */
OpCount
scaleOps(OpCount ops, double factor)
{
    ops.flops = static_cast<std::uint64_t>(
        static_cast<double>(ops.flops) * factor);
    ops.int_ops = static_cast<std::uint64_t>(
        static_cast<double>(ops.int_ops) * factor);
    ops.bytes_read = static_cast<std::uint64_t>(
        static_cast<double>(ops.bytes_read) * factor);
    ops.bytes_written = static_cast<std::uint64_t>(
        static_cast<double>(ops.bytes_written) * factor);
    return ops;
}

/** Deterministic random input bytes for a buffer descriptor. */
Bytes
randomInput(const restructure::BufferDesc &desc, std::uint64_t seed)
{
    Rng rng(seed);
    Bytes out(desc.bytes());
    if (desc.dtype == DType::F32) {
        for (std::size_t i = 0; i < desc.elems(); ++i) {
            const float v = static_cast<float>(rng.uniform(-1.0, 1.0));
            std::memcpy(&out[i * 4], &v, 4);
        }
    } else {
        for (auto &b : out)
            b = static_cast<std::uint8_t>(rng.below(256));
    }
    return out;
}

/** Kernel timing from measured op counts. */
KernelTiming
makeKernel(const std::string &name, accel::Domain domain,
           const OpCount &ops, std::uint64_t out_bytes,
           const SuiteParams &p, double max_host_cores = 0)
{
    const accel::AcceleratorSpec spec = accel::specFor(domain);
    KernelTiming kt;
    kt.name = name;
    kt.max_host_cores = max_host_cores;
    kt.cpu_core_seconds = cpu::kernelCoreSeconds(ops, p.host);
    kt.accel_cycles = accel::kernelCycles(spec, ops);
    kt.accel_freq_hz = spec.freq_hz;
    kt.out_bytes = out_bytes;
    kt.accel_active_watts = spec.active_watts;
    kt.accel_idle_watts = spec.idle_watts;
    return kt;
}

/**
 * Motion timing: run the reduced-size restructuring kernel on the CPU
 * executor (op counts) and the DRX cycle simulator, then scale both by
 * @p factor. The full kernel only provides the transfer sizes.
 */
MotionTiming
makeMotion(const std::string &name, const Kernel &reduced, double factor,
           std::uint64_t in_bytes, std::uint64_t out_bytes,
           const SuiteParams &p, std::uint64_t seed)
{
    const Bytes input = randomInput(reduced.input, seed);
    OpCount ops;
    restructure::executeOnCpu(reduced, input, &ops);
    ops = scaleOps(ops, factor);

    // Cached: every suite build after the first in a thread re-times
    // the same reduced kernels, and the timing-only run here is
    // exactly what the tier-2 memo replays.
    drx::DrxMachine machine(p.drx);
    const drx::RunResult drx_res =
        drx::runKernelOnDrxCached(reduced, input, machine);

    MotionTiming mt;
    mt.name = name;
    mt.cpu_core_seconds = cpu::restructureCoreSeconds(ops, p.host);
    mt.drx_cycles = static_cast<Cycles>(
        static_cast<double>(drx_res.total_cycles) * factor);
    mt.in_bytes = in_bytes;
    mt.out_bytes = out_bytes;
    return mt;
}

} // namespace

AppModel
buildVideoSurveillance(const SuiteParams &p)
{
    // 8 camera frames of 1024x768 8-bit luma per request (~6.3 MB).
    constexpr std::size_t frames = 8;
    constexpr std::size_t h = 768, w = 1024, dst = 256;
    constexpr std::uint64_t pixels = frames * h * w;

    AppModel app;
    app.name = "video_surveillance";
    app.input_bytes = pixels / 3; // compressed stream

    // Kernel 1: hardware video decoder. A production decoder runs a
    // fast separable IDCT (not the naive O(64^2) reference in
    // kernels/video.cc), so its op count is derived analytically:
    // ~30 integer ops and 8 flops per decoded pixel.
    OpCount decode;
    decode.int_ops = pixels * 30;
    decode.flops = pixels * 8;
    decode.bytes_read = app.input_bytes;
    decode.bytes_written = pixels;
    // Frame decode parallelizes across at most a couple of slices.
    app.kernels.push_back(makeKernel("video_decode",
                                     accel::Domain::VideoCodec, decode,
                                     pixels, p, 2));

    // Motion: per-frame normalize + resize + f16 (measured on 1 frame,
    // scaled by the batch).
    const Kernel one_frame = restructure::videoFrameRestructure(h, w, dst);
    const std::uint64_t out_bytes = frames * dst * dst * 2;
    app.motions.push_back(makeMotion("video_frame_restructure", one_frame,
                                     static_cast<double>(frames), pixels,
                                     out_bytes, p, 101));

    // Kernel 2: CNN detector, measured functionally at 128x128 and
    // scaled by area x batch.
    kernels::TinyCnn cnn(1, 16, 42);
    kernels::Tensor img({1, 1, 128, 128});
    img.randomize(7);
    OpCount detect;
    cnn.detect(img, &detect);
    const double scale =
        static_cast<double>(dst * dst) / (128.0 * 128.0) *
        static_cast<double>(frames);
    app.kernels.push_back(makeKernel("object_detection",
                                     accel::Domain::ObjectDetection,
                                     scaleOps(detect, scale),
                                     frames * 64 * 64 * 16 * 4, p));
    return app;
}

AppModel
buildSoundDetection(const SuiteParams &p)
{
    // 2^21 audio samples; 1024-point STFT, hop 512 -> ~4096 frames of
    // 513 complex bins (~16.8 MB intermediate).
    constexpr std::size_t samples = 1u << 21;
    constexpr std::size_t fft_size = 1024, hop = 512;
    constexpr std::size_t frames = 4096, bins = 513, mels = 128;
    constexpr std::size_t classes = 10;

    AppModel app;
    app.name = "sound_detection";
    app.input_bytes = samples * 4;

    // Kernel 1: STFT, measured at 1/16 of the samples.
    {
        constexpr std::size_t meas = samples / 16;
        std::vector<float> audio(meas);
        Rng rng(55);
        for (auto &v : audio)
            v = static_cast<float>(rng.uniform(-1, 1));
        OpCount ops;
        kernels::stft(audio, fft_size, hop, &ops);
        const std::uint64_t inter = frames * 2 * bins * 4;
        app.kernels.push_back(makeKernel(
            "fft", accel::Domain::FFT, scaleOps(ops, 16.0), inter, p));
    }

    // Motion: mel-scale spectrogram.
    const unsigned div = p.drx_measure_divisor;
    const Kernel reduced =
        restructure::melSpectrogram(frames / div, bins, mels);
    app.motions.push_back(makeMotion(
        "mel_spectrogram", reduced, static_cast<double>(div),
        frames * 2 * bins * 4, frames * mels * 4, p, 102));

    // Kernel 2: SVM over mel features, measured at 1/8 of the rows.
    {
        kernels::LinearSvm svm(mels, classes);
        Rng rng(66);
        for (auto &wv : svm.weights())
            wv = static_cast<float>(rng.uniform(-1, 1));
        constexpr std::size_t rows = frames / 8;
        std::vector<float> batch(rows * mels);
        for (auto &v : batch)
            v = static_cast<float>(rng.uniform(0, 4));
        OpCount ops;
        svm.predictBatch(batch, rows, &ops);
        app.kernels.push_back(makeKernel("svm", accel::Domain::SVM,
                                         scaleOps(ops, 8.0), frames * 8,
                                         p));
    }
    return app;
}

AppModel
buildBrainStimulation(const SuiteParams &p)
{
    // 2^20 electrode samples -> 2048 frames x 513 bins (~8.4 MB).
    constexpr std::size_t samples = 1u << 20;
    constexpr std::size_t fft_size = 1024, hop = 512;
    constexpr std::size_t frames = 2048, bins = 513, bands = 64;

    AppModel app;
    app.name = "brain_stimulation";
    app.input_bytes = samples * 4;

    {
        constexpr std::size_t meas = samples / 8;
        std::vector<float> signal(meas);
        Rng rng(77);
        for (auto &v : signal)
            v = static_cast<float>(rng.uniform(-1, 1));
        OpCount ops;
        kernels::stft(signal, fft_size, hop, &ops);
        app.kernels.push_back(makeKernel("fft", accel::Domain::FFT,
                                         scaleOps(ops, 8.0),
                                         frames * 2 * bins * 4, p));
    }

    const unsigned div = p.drx_measure_divisor;
    const Kernel reduced =
        restructure::brainSignalRestructure(frames / div, bins, bands);
    app.motions.push_back(makeMotion(
        "brain_signal_restructure", reduced, static_cast<double>(div),
        frames * 2 * bins * 4, frames * bands * 2, p, 103));

    // Kernel 2: PPO policy over band observations (1/32 measured).
    {
        kernels::MlpPolicy policy(bands, 8, 256, 3);
        kernels::Tensor obs({1, bands});
        obs.randomize(4);
        OpCount ops;
        for (int i = 0; i < 64; ++i)
            policy.act(obs, &ops);
        const double scale = static_cast<double>(frames) / 64.0;
        app.kernels.push_back(makeKernel("ppo", accel::Domain::RL,
                                         scaleOps(ops, scale),
                                         frames * 8 * 4, p));
    }
    return app;
}

AppModel
buildPersonalInfoRedaction(const SuiteParams &p)
{
    // 8 MB of encrypted text per request.
    constexpr std::size_t text_bytes = 8u << 20;
    constexpr std::size_t record = 256, padded = 320;

    AppModel app;
    app.name = "personal_info_redaction";
    app.input_bytes = text_bytes;

    // Kernel 1: AES-GCM decrypt, measured on 512 KB.
    {
        constexpr std::size_t meas = 512u << 10;
        kernels::AesKey key{1, 2, 3, 4};
        kernels::AesBlock iv{9, 8, 7};
        std::vector<std::uint8_t> data(meas, 0x5a);
        const kernels::Aes128 aes(key);
        OpCount ops;
        aes.ctrTransform(data, iv, &ops);
        ops.int_ops += meas * 8; // GHASH
        app.kernels.push_back(makeKernel(
            "aes_gcm_decrypt", accel::Domain::Crypto,
            scaleOps(ops, static_cast<double>(text_bytes) / meas),
            text_bytes, p));
    }

    // Motion: record reblock + pad.
    const unsigned div = p.drx_measure_divisor;
    const Kernel reduced = restructure::textRecordRestructure(
        text_bytes / div, record, padded);
    const std::uint64_t padded_bytes = text_bytes / record * padded;
    app.motions.push_back(makeMotion(
        "text_record_restructure", reduced, static_cast<double>(div),
        text_bytes, padded_bytes, p, 104));

    // Kernel 2: regex PII scan, measured on 64 KB of synthetic text.
    {
        const kernels::Regex ssn("\\d\\d\\d-\\d\\d-\\d\\d\\d\\d");
        std::string text;
        Rng rng(88);
        while (text.size() < (64u << 10)) {
            if (rng.below(20) == 0)
                text += "123-45-6789";
            else
                text += static_cast<char>('a' + rng.below(26));
        }
        OpCount ops;
        kernels::redact(ssn, text, '#', &ops);
        const double scale =
            static_cast<double>(padded_bytes) /
            static_cast<double>(text.size());
        app.kernels.push_back(makeKernel("regex_redact",
                                         accel::Domain::Regex,
                                         scaleOps(ops, scale),
                                         padded_bytes, p));
    }
    return app;
}

AppModel
buildDatabaseHashJoin(const SuiteParams &p)
{
    // Two 2^20-row tables (16 B rows): ~16 MB decompressed each.
    constexpr std::size_t rows = 1u << 20;

    AppModel app;
    app.name = "database_hash_join";
    app.input_bytes = rows * 16 / 3; // compressed

    // Kernel 1: decompression, measured on 2^16 rows.
    {
        constexpr std::size_t meas_rows = 1u << 16;
        kernels::Table t;
        Rng rng(99);
        for (std::size_t r = 0; r < meas_rows; ++r)
            t.add(static_cast<std::int64_t>(rng.below(1000)),
                  static_cast<std::int64_t>(r));
        const auto serialized = t.serialize();
        const auto compressed = kernels::lzCompress(serialized);
        OpCount ops;
        kernels::lzDecompress(compressed, &ops);
        // LZ decompression is inherently serial on a CPU.
        app.kernels.push_back(makeKernel(
            "decompress", accel::Domain::Decompression,
            scaleOps(ops, static_cast<double>(rows) / meas_rows),
            rows * 16, p, 1));
    }

    // Motion: row-major -> columnar.
    const unsigned div = p.drx_measure_divisor;
    const Kernel reduced =
        restructure::dbColumnarize(rows / div, true);
    app.motions.push_back(makeMotion(
        "db_columnarize", reduced, static_cast<double>(div), rows * 16,
        rows * 16, p, 105));

    // Kernel 2: hash join, measured at 2^16 x 2^16.
    {
        constexpr std::size_t meas_rows = 1u << 16;
        kernels::Table build, probe;
        Rng rng(111);
        for (std::size_t r = 0; r < meas_rows; ++r) {
            build.add(static_cast<std::int64_t>(rng.below(meas_rows)),
                      static_cast<std::int64_t>(r));
            probe.add(static_cast<std::int64_t>(rng.below(meas_rows)),
                      static_cast<std::int64_t>(r));
        }
        OpCount ops;
        const auto joined = kernels::hashJoin(build, probe, &ops);
        const double scale = static_cast<double>(rows) / meas_rows;
        app.kernels.push_back(makeKernel(
            "hash_join", accel::Domain::HashJoin, scaleOps(ops, scale),
            static_cast<std::uint64_t>(
                static_cast<double>(joined.size()) * scale * 24.0),
            p));
    }
    return app;
}

AppModel
buildPersonalInfoRedactionNer(const SuiteParams &p)
{
    AppModel app = buildPersonalInfoRedaction(p);
    app.name = "personal_info_redaction_ner";

    constexpr std::size_t seq = 2048, dim = 512, labels = 4;
    const std::uint64_t redacted_bytes = app.kernels.back().out_bytes;

    // Motion 2: reshape + typecast of redacted text into embeddings.
    const unsigned div = p.drx_measure_divisor;
    const Kernel reduced = restructure::nerTokenRestructure(
        static_cast<std::size_t>(redacted_bytes / div), seq / div, dim);
    app.motions.push_back(makeMotion(
        "ner_token_restructure", reduced, static_cast<double>(div),
        redacted_bytes, seq * dim * 4, p, 106));

    // Kernel 3: transformer NER. The attention term is quadratic in the
    // sequence length, so the full-scale op count is computed from the
    // same closed forms the functional layers charge (kernels/nn.cc).
    OpCount ner;
    ner.flops = 2ull * seq * dim * dim * 3      // q/k/v projections
                + 2ull * seq * seq * dim * 2    // scores + weighted sum
                + 6ull * seq * seq              // softmax
                + seq * (2ull * dim * 4 * dim * 2) // feed-forward
                + 2ull * seq * labels * dim;    // head
    ner.bytes_read = seq * dim * 4 * 4;
    ner.bytes_written = seq * labels * 4;
    app.kernels.push_back(makeKernel("ner", accel::Domain::NER, ner,
                                     seq * labels * 4, p));
    return app;
}

std::vector<AppModel>
standardSuite(const SuiteParams &p)
{
    return {
        buildVideoSurveillance(p),  buildSoundDetection(p),
        buildBrainStimulation(p),   buildPersonalInfoRedaction(p),
        buildDatabaseHashJoin(p),
    };
}

std::vector<NamedRestructure>
restructureSuite(unsigned divisor)
{
    if (divisor == 0)
        dmx_fatal("restructureSuite: divisor must be nonzero");
    std::vector<NamedRestructure> out;

    NamedRestructure video;
    video.app = "video_surveillance";
    video.kernel = restructure::videoFrameRestructure(768, 1024, 256);
    // Conditional resize/clip paths make this the branchy outlier the
    // paper calls out for Figure 5.
    video.branch_rate = 0.20;
    out.push_back(std::move(video));

    NamedRestructure sound;
    sound.app = "sound_detection";
    sound.kernel = restructure::melSpectrogram(4096 / divisor, 513, 128);
    out.push_back(std::move(sound));

    NamedRestructure brain;
    brain.app = "brain_stimulation";
    brain.kernel =
        restructure::brainSignalRestructure(2048 / divisor, 513, 64);
    out.push_back(std::move(brain));

    NamedRestructure pii;
    pii.app = "personal_info_redaction";
    pii.kernel = restructure::textRecordRestructure((8u << 20) / divisor,
                                                    256, 320);
    out.push_back(std::move(pii));

    NamedRestructure db;
    db.app = "database_hash_join";
    db.kernel = restructure::dbColumnarize((1u << 20) / divisor, true);
    out.push_back(std::move(db));

    for (NamedRestructure &nr : out)
        nr.input = randomInput(nr.kernel.input, 7777);
    return out;
}

} // namespace dmx::apps
