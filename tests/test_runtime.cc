/**
 * @file
 * Tests for the OpenCL-style runtime: functional correctness of
 * end-to-end pipelines through the API, command ordering, timing
 * advance, and error handling.
 */

#include <gtest/gtest.h>

#include <cstring>
#include <string>

#include "apps/benchmarks.hh"
#include "kernels/fft.hh"
#include "restructure/catalog.hh"
#include "restructure/cpu_exec.hh"
#include "runtime/chain.hh"
#include "runtime/runtime.hh"

using namespace dmx;
using namespace dmx::runtime;

namespace
{

/** A kernel that doubles every float. */
Bytes
doubler(const Bytes &in, kernels::OpCount &ops)
{
    Bytes out = in;
    for (std::size_t i = 0; i + 4 <= out.size(); i += 4) {
        float v;
        std::memcpy(&v, &out[i], 4);
        v *= 2.0f;
        std::memcpy(&out[i], &v, 4);
    }
    ops.flops += out.size() / 4;
    ops.bytes_read += in.size();
    ops.bytes_written += out.size();
    return out;
}

Bytes
floatBytes(const std::vector<float> &v)
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

} // namespace

TEST(Runtime, KernelExecutesFunctionally)
{
    Platform plat;
    const DeviceId dev =
        plat.addAccelerator("fft0", accel::Domain::FFT, doubler);
    Context ctx = plat.createContext();
    const BufferId in = ctx.createBuffer(floatBytes({1, 2, 3}));
    const BufferId out = ctx.createBuffer();

    Event ev = ctx.queue(dev).enqueueKernel(in, out);
    EXPECT_FALSE(ev.complete());
    ctx.finish();
    EXPECT_TRUE(ev.complete());
    EXPECT_EQ(toFloats(ctx.read(out)), (std::vector<float>{2, 4, 6}));
    EXPECT_GT(ev.completeTime(), 0u);
}

TEST(Runtime, InOrderQueueChainsCommands)
{
    Platform plat;
    const DeviceId dev =
        plat.addAccelerator("a0", accel::Domain::SVM, doubler);
    Context ctx = plat.createContext();
    const BufferId buf = ctx.createBuffer(floatBytes({1}));
    const BufferId mid = ctx.createBuffer();
    const BufferId out = ctx.createBuffer();

    Event e1 = ctx.queue(dev).enqueueKernel(buf, mid);
    Event e2 = ctx.queue(dev).enqueueKernel(mid, out);
    ctx.finish();
    EXPECT_TRUE(e1.complete());
    EXPECT_TRUE(e2.complete());
    EXPECT_GE(e2.completeTime(), e1.completeTime());
    EXPECT_EQ(toFloats(ctx.read(out)), (std::vector<float>{4}));
}

TEST(Runtime, RestructureOnDrxMatchesCpuExecutor)
{
    Platform plat;
    const DeviceId drx = plat.addDrx("drx0", {});
    Context ctx = plat.createContext();

    const auto kernel = restructure::melSpectrogram(8, 64, 16);
    // Finite float input (raw byte noise would decode to NaNs, for
    // which banded and dense summation legitimately differ).
    std::vector<float> vals(kernel.input.elems());
    for (std::size_t i = 0; i < vals.size(); ++i)
        vals[i] = std::sin(static_cast<float>(i) * 0.13f);
    restructure::Bytes input(kernel.input.bytes());
    std::memcpy(input.data(), vals.data(), input.size());

    const BufferId in = ctx.createBuffer(input);
    const BufferId out = ctx.createBuffer();
    ctx.queue(drx).enqueueRestructure(kernel, in, out);
    ctx.finish();

    EXPECT_EQ(ctx.read(out), restructure::executeOnCpu(kernel, input));
}

TEST(Runtime, FortyDrxCardsRunOneChainEach)
{
    // The paper's queue budget: 40 default-config DRX cards on one
    // platform, each fed by one accelerator -> DRX -> accelerator chain.
    const auto suite = apps::restructureSuite(64);
    std::vector<Bytes> expected;
    for (const apps::NamedRestructure &nr : suite)
        expected.push_back(restructure::executeOnCpu(nr.kernel, nr.input));
    auto pass = [](const Bytes &in, kernels::OpCount &) { return in; };

    Platform plat;
    const DeviceId src = plat.addAccelerator("src", accel::Domain::FFT, pass);
    const DeviceId sink =
        plat.addAccelerator("sink", accel::Domain::SVM, pass);
    std::vector<DeviceId> drx;
    for (unsigned d = 0; d < 40; ++d)
        drx.push_back(plat.addDrx("drx" + std::to_string(d), {}));

    Context ctx = plat.createContext();
    std::vector<ChainEvent> evs;
    std::vector<BufferId> dst;
    for (std::size_t d = 0; d < drx.size(); ++d) {
        const apps::NamedRestructure &nr = suite[d % suite.size()];
        const BufferId in = ctx.createBuffer(nr.input);
        const BufferId mid = ctx.createBuffer();
        const BufferId out = ctx.createBuffer();
        dst.push_back(ctx.createBuffer());
        ChainOp to_drx;
        to_drx.device = src;
        to_drx.dst_device = drx[d];
        to_drx.in = in;
        to_drx.out = mid;
        ChainOp restructure;
        restructure.kind = ChainOp::Kind::Restructure;
        restructure.device = drx[d];
        restructure.in = mid;
        restructure.out = out;
        restructure.kernels = {nr.kernel};
        ChainOp to_sink;
        to_sink.device = drx[d];
        to_sink.dst_device = sink;
        to_sink.in = out;
        to_sink.out = dst.back();
        evs.push_back(enqueueChain(ctx, {to_drx, restructure, to_sink}));
    }
    ctx.finish();
    for (std::size_t d = 0; d < drx.size(); ++d) {
        EXPECT_TRUE(evs[d].ok()) << "drx" << d;
        EXPECT_EQ(ctx.read(dst[d]), expected[d % suite.size()])
            << "drx" << d;
    }
}

TEST(Runtime, CopyMovesDataAndTakesTime)
{
    Platform plat;
    const DeviceId a =
        plat.addAccelerator("a0", accel::Domain::FFT, doubler);
    const DeviceId b =
        plat.addAccelerator("a1", accel::Domain::SVM, doubler);
    Context ctx = plat.createContext();
    const Bytes payload(4 * mib, 0x77);
    const BufferId src = ctx.createBuffer(payload);
    const BufferId dst = ctx.createBuffer();

    Event ev = ctx.queue(a).enqueueCopy(src, dst, b);
    ctx.finish();
    EXPECT_TRUE(ev.complete());
    EXPECT_EQ(ctx.read(dst), payload);
    // 4 MiB over a x16 Gen3 link takes at least ~250 us.
    EXPECT_GT(ev.completeTime(), 200 * tick_per_us);
}

TEST(Runtime, EndToEndSoundPipeline)
{
    // FFT accel -> DRX mel restructure -> "SVM" accel, all through the
    // public API, with correct data at each hop.
    constexpr std::size_t frames = 8, bins = 65, mels = 16;

    Platform plat;
    const DeviceId fft_dev = plat.addAccelerator(
        "fft0", accel::Domain::FFT,
        [&](const Bytes &in, kernels::OpCount &ops) {
            // Per-frame FFT over 128-sample windows.
            auto samples = toFloats(in);
            std::vector<float> out;
            for (std::size_t f = 0; f < frames; ++f) {
                std::vector<kernels::Complex> frame(128);
                for (std::size_t i = 0; i < 128; ++i)
                    frame[i] = kernels::Complex(samples[f * 128 + i], 0);
                ops += kernels::fft(frame);
                for (std::size_t b = 0; b < bins; ++b) {
                    out.push_back(frame[b].real());
                    out.push_back(frame[b].imag());
                }
            }
            return floatBytes(out);
        });
    const DeviceId drx_dev = plat.addDrx("drx0", {});
    const DeviceId svm_dev =
        plat.addAccelerator("svm0", accel::Domain::SVM, doubler);

    Context ctx = plat.createContext();
    std::vector<float> audio(frames * 128);
    for (std::size_t i = 0; i < audio.size(); ++i)
        audio[i] = std::sin(0.3f * static_cast<float>(i));
    const BufferId b_audio = ctx.createBuffer(floatBytes(audio));
    const BufferId b_spec = ctx.createBuffer();
    const BufferId b_spec_drx = ctx.createBuffer();
    const BufferId b_mel = ctx.createBuffer();
    const BufferId b_mel_svm = ctx.createBuffer();
    const BufferId b_out = ctx.createBuffer();

    ctx.queue(fft_dev).enqueueKernel(b_audio, b_spec);
    ctx.queue(fft_dev).enqueueCopy(b_spec, b_spec_drx, drx_dev);
    // The DRX queue must wait for the copy; chain via the fft queue's
    // ordering by enqueueing after finish of the copy event: here we
    // simply drain first (host-controlled dependency).
    ctx.finish();

    const auto mel_kernel =
        restructure::melSpectrogram(frames, bins, mels);
    ctx.queue(drx_dev).enqueueRestructure(mel_kernel, b_spec_drx, b_mel);
    ctx.queue(drx_dev).enqueueCopy(b_mel, b_mel_svm, svm_dev);
    ctx.finish();

    Event done = ctx.queue(svm_dev).enqueueKernel(b_mel_svm, b_out);
    ctx.finish();

    ASSERT_TRUE(done.complete());
    // Validate against the pure-CPU reference of the same pipeline.
    const auto spec = ctx.read(b_spec);
    const auto expect_mel =
        restructure::executeOnCpu(mel_kernel, spec);
    EXPECT_EQ(ctx.read(b_mel), expect_mel);
    EXPECT_EQ(ctx.read(b_out).size(), expect_mel.size());
    EXPECT_GT(plat.now(), 0u);
}

TEST(Runtime, ErrorsOnWrongDeviceKind)
{
    Platform plat;
    const DeviceId acc =
        plat.addAccelerator("a0", accel::Domain::FFT, doubler);
    const DeviceId drx = plat.addDrx("d0", {});
    Context ctx = plat.createContext();
    const BufferId b = ctx.createBuffer(Bytes(16));
    EXPECT_THROW(ctx.queue(drx).enqueueKernel(b, b),
                 std::runtime_error);
    EXPECT_THROW(ctx.queue(acc).enqueueRestructure(
                     restructure::melSpectrogram(2, 4, 2), b, b),
                 std::runtime_error);
}

TEST(Runtime, ErrorsOnBadHandles)
{
    Platform plat;
    plat.addAccelerator("a0", accel::Domain::FFT, doubler);
    Context ctx = plat.createContext();
    EXPECT_THROW(ctx.read(42), std::runtime_error);
    EXPECT_THROW(ctx.queue(42), std::runtime_error);
    EXPECT_THROW(plat.deviceName(42), std::runtime_error);
}

TEST(Runtime, CompleteTimeRefusedUntilSettled)
{
    // Asking a completion time of an event that never settled is a
    // caller bug reported as an error, never a garbage tick.
    Event invalid;
    EXPECT_FALSE(invalid.valid());
    EXPECT_THROW(invalid.completeTime(), std::runtime_error);

    Platform plat;
    const DeviceId dev =
        plat.addAccelerator("a0", accel::Domain::FFT, doubler);
    Context ctx = plat.createContext();
    const BufferId in = ctx.createBuffer(Bytes(64, 1));
    const BufferId out = ctx.createBuffer();
    Event ev = ctx.queue(dev).enqueueKernel(in, out);
    // Enqueued but not yet simulated: still pending.
    EXPECT_TRUE(ev.valid());
    EXPECT_FALSE(ev.complete());
    EXPECT_THROW(ev.completeTime(), std::runtime_error);

    ctx.finish();
    EXPECT_TRUE(ev.complete());
    EXPECT_NO_THROW(ev.completeTime());
    EXPECT_GT(ev.completeTime(), 0u);

    // The throwing path must leave the event usable.
    Event still_pending;
    EXPECT_THROW(still_pending.completeTime(), std::runtime_error);
    EXPECT_EQ(still_pending.status(), Status::Pending);
}
