/**
 * @file
 * Unit tests for the restructuring IR, shape inference, the CPU
 * reference executor, and the kernel catalog.
 */

#include <gtest/gtest.h>

#include <cstring>

#include "common/random.hh"
#include "restructure/catalog.hh"
#include "restructure/cpu_exec.hh"
#include "restructure/ir.hh"

using namespace dmx;
using namespace dmx::restructure;

namespace
{

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

TEST(BufferDescTest, ElemsBytesRowsInner)
{
    BufferDesc d{DType::F16, {4, 8, 16}};
    EXPECT_EQ(d.elems(), 512u);
    EXPECT_EQ(d.bytes(), 1024u);
    EXPECT_EQ(d.inner(), 16u);
    EXPECT_EQ(d.rows(), 32u);
}

TEST(ShapeInference, MapAndCastPreserveShape)
{
    Kernel k;
    k.name = "t";
    k.input = BufferDesc{DType::U8, {10, 20}};
    k.stages.push_back(castStage(DType::F32));
    k.stages.push_back(mapStage({{MapFn::Scale, 2.0f}}));
    const BufferDesc out = k.output();
    EXPECT_EQ(out.shape, (std::vector<std::size_t>{10, 20}));
    EXPECT_EQ(out.dtype, DType::F32);
}

TEST(ShapeInference, PipelineShapes)
{
    const Kernel k = melSpectrogram(16, 128, 32);
    EXPECT_EQ(k.input.shape, (std::vector<std::size_t>{16, 256}));
    EXPECT_EQ(k.descAfter(1).shape, (std::vector<std::size_t>{16, 128}));
    EXPECT_EQ(k.output().shape, (std::vector<std::size_t>{16, 32}));
    EXPECT_EQ(k.output().dtype, DType::F32);
}

TEST(ShapeInference, StageDescsEqualDescAfterForEveryCatalogKernel)
{
    const std::vector<Kernel> catalog{
        melSpectrogram(16, 128, 32),
        videoFrameRestructure(48, 64, 24),
        brainSignalRestructure(8, 64, 8),
        textRecordRestructure(64 * 12, 64, 80),
        nerTokenRestructure(512, 12, 24),
        dbColumnarize(96, false),
        dbColumnarize(96, true),
        vectorReduction(4, 100),
    };
    for (const Kernel &k : catalog) {
        const std::vector<BufferDesc> descs = k.stageDescs();
        ASSERT_EQ(descs.size(), k.stages.size() + 1) << k.name;
        for (std::size_t i = 0; i < descs.size(); ++i) {
            const BufferDesc want = k.descAfter(i);
            EXPECT_EQ(descs[i].dtype, want.dtype) << k.name << " at " << i;
            EXPECT_EQ(descs[i].shape, want.shape) << k.name << " at " << i;
        }
    }

    Kernel bad;
    bad.name = "bad";
    bad.input = BufferDesc{DType::F32, {4}};
    bad.stages.push_back(gatherStage(
        std::make_shared<std::vector<std::uint32_t>>(
            std::vector<std::uint32_t>{0, 4}),
        {2}));
    EXPECT_THROW(bad.stageDescs(), std::runtime_error);
}

TEST(ShapeInference, RejectsBadStages)
{
    Kernel k;
    k.name = "bad";
    k.input = BufferDesc{DType::F32, {7}};
    k.stages.push_back(magnitudeStage()); // odd inner dim
    EXPECT_THROW(k.output(), std::runtime_error);

    Kernel k2;
    k2.name = "bad2";
    k2.input = BufferDesc{DType::F32, {4, 5}};
    k2.stages.push_back(matVecStage(
        3, 6, std::make_shared<std::vector<float>>(18, 1.0f)));
    EXPECT_THROW(k2.output(), std::runtime_error); // cols mismatch

    Kernel k3;
    k3.name = "bad3";
    k3.input = BufferDesc{DType::F32, {4}};
    auto idx = std::make_shared<std::vector<std::uint32_t>>(
        std::vector<std::uint32_t>{9});
    k3.stages.push_back(gatherStage(idx, {1}));
    EXPECT_THROW(k3.output(), std::runtime_error); // index out of range
}

TEST(CpuExec, MapChain)
{
    Kernel k;
    k.name = "map";
    k.input = BufferDesc{DType::F32, {4}};
    k.stages.push_back(mapStage(
        {{MapFn::Scale, 2.0f}, {MapFn::Offset, 1.0f}, {MapFn::Abs, 0}}));
    const Bytes out = executeOnCpu(k, floatBytes({-3, -1, 0, 2}));
    EXPECT_EQ(toFloats(out), (std::vector<float>{5, 1, 1, 5}));
}

TEST(CpuExec, CastQuantizesAndSaturates)
{
    Kernel k;
    k.name = "cast";
    k.input = BufferDesc{DType::F32, {4}};
    k.stages.push_back(castStage(DType::U8));
    const Bytes out =
        executeOnCpu(k, floatBytes({-5.0f, 0.4f, 254.6f, 300.0f}));
    ASSERT_EQ(out.size(), 4u);
    EXPECT_EQ(out[0], 0);    // saturated low
    EXPECT_EQ(out[1], 0);    // rounds to 0
    EXPECT_EQ(out[2], 255);  // rounds up
    EXPECT_EQ(out[3], 255);  // saturated high
}

TEST(CpuExec, TransposeRoundTrip)
{
    Kernel k;
    k.name = "t";
    k.input = BufferDesc{DType::F32, {2, 3}};
    k.stages.push_back(transposeStage());
    const Bytes out = executeOnCpu(k, floatBytes({1, 2, 3, 4, 5, 6}));
    EXPECT_EQ(toFloats(out), (std::vector<float>{1, 4, 2, 5, 3, 6}));

    // Transposing twice is the identity.
    Kernel k2 = k;
    k2.stages.push_back(transposeStage());
    const Bytes out2 = executeOnCpu(k2, floatBytes({1, 2, 3, 4, 5, 6}));
    EXPECT_EQ(toFloats(out2), (std::vector<float>{1, 2, 3, 4, 5, 6}));
}

TEST(CpuExec, MatVecAgainstHandComputation)
{
    Kernel k;
    k.name = "mv";
    k.input = BufferDesc{DType::F32, {2, 3}};
    auto w = std::make_shared<std::vector<float>>(
        std::vector<float>{1, 0, 0, 0, 1, 1}); // 2x3
    k.stages.push_back(matVecStage(2, 3, w));
    const Bytes out = executeOnCpu(k, floatBytes({1, 2, 3, 4, 5, 6}));
    EXPECT_EQ(toFloats(out), (std::vector<float>{1, 5, 4, 11}));
}

TEST(CpuExec, GatherReorders)
{
    Kernel k;
    k.name = "g";
    k.input = BufferDesc{DType::F32, {4}};
    auto idx = std::make_shared<std::vector<std::uint32_t>>(
        std::vector<std::uint32_t>{3, 3, 0, 1});
    k.stages.push_back(gatherStage(idx, {4}));
    const Bytes out = executeOnCpu(k, floatBytes({10, 11, 12, 13}));
    EXPECT_EQ(toFloats(out), (std::vector<float>{13, 13, 10, 11}));
}

TEST(CpuExec, MagnitudeOfKnownComplex)
{
    Kernel k;
    k.name = "mag";
    k.input = BufferDesc{DType::F32, {1, 4}};
    k.stages.push_back(magnitudeStage());
    const Bytes out = executeOnCpu(k, floatBytes({3, 4, 0, -2}));
    const auto v = toFloats(out);
    ASSERT_EQ(v.size(), 2u);
    EXPECT_FLOAT_EQ(v[0], 5.0f);
    EXPECT_FLOAT_EQ(v[1], 2.0f);
}

TEST(CpuExec, ReduceSumsRows)
{
    Kernel k;
    k.name = "r";
    k.input = BufferDesc{DType::F32, {2, 3}};
    k.stages.push_back(reduceStage());
    const Bytes out = executeOnCpu(k, floatBytes({1, 2, 3, 10, 20, 30}));
    EXPECT_EQ(toFloats(out), (std::vector<float>{6, 60}));
}

TEST(CpuExec, PadWidensRows)
{
    Kernel k;
    k.name = "p";
    k.input = BufferDesc{DType::F32, {2, 2}};
    k.stages.push_back(padStage(4, -1.0f));
    const Bytes out = executeOnCpu(k, floatBytes({1, 2, 3, 4}));
    EXPECT_EQ(toFloats(out),
              (std::vector<float>{1, 2, -1, -1, 3, 4, -1, -1}));
}

TEST(CpuExec, RejectsWrongInputSize)
{
    Kernel k;
    k.name = "x";
    k.input = BufferDesc{DType::F32, {4}};
    k.stages.push_back(mapStage({{MapFn::Abs, 0}}));
    EXPECT_THROW(executeOnCpu(k, Bytes(3)), std::runtime_error);
}

TEST(CpuExec, OpCountsPopulated)
{
    const Kernel k = melSpectrogram(8, 64, 16);
    Bytes in(k.input.bytes(), 1);
    kernels::OpCount ops;
    executeOnCpu(k, in, &ops);
    EXPECT_GT(ops.flops, 0u);
    EXPECT_GT(ops.bytes_read, 0u);
    EXPECT_GT(ops.bytes_written, 0u);
}

TEST(CpuExec, TracerSeesStreamingAccesses)
{
    struct Counter : MemTracer
    {
        std::uint64_t reads = 0, writes = 0, instrs = 0;
        void read(std::uint64_t, std::size_t) override { ++reads; }
        void write(std::uint64_t, std::size_t) override { ++writes; }
        void
        retire(std::uint64_t n, std::size_t) override
        {
            instrs += n;
        }
    } tracer;

    Kernel k;
    k.name = "trace";
    k.input = BufferDesc{DType::F32, {64}};
    k.stages.push_back(mapStage({{MapFn::Scale, 0.5f}}));
    executeOnCpu(k, Bytes(256), nullptr, &tracer);
    EXPECT_EQ(tracer.reads, 64u);
    EXPECT_EQ(tracer.writes, 64u);
    EXPECT_GT(tracer.instrs, 0u);
}

TEST(Catalog, MelFilterbankRowsAreTriangles)
{
    const auto fb = makeMelFilterbank(16, 128, 16000);
    ASSERT_EQ(fb->size(), 16u * 128u);
    // Every filter has nonzero mass and peaks at <= 1.
    for (std::size_t m = 0; m < 16; ++m) {
        float sum = 0, peak = 0;
        for (std::size_t b = 0; b < 128; ++b) {
            const float w = (*fb)[m * 128 + b];
            EXPECT_GE(w, 0.0f);
            sum += w;
            peak = std::max(peak, w);
        }
        EXPECT_GT(sum, 0.0f) << "filter " << m;
        EXPECT_LE(peak, 1.0f + 1e-5f);
    }
}

TEST(Catalog, MelFilterbanksAreBanded)
{
    // Banding (contiguous nonzero span) is what the DRX compiler's
    // banded MatVec lowering exploits.
    const auto fb = makeMelFilterbank(32, 256, 16000);
    for (std::size_t m = 0; m < 32; ++m) {
        std::size_t first = 256, last = 0;
        for (std::size_t b = 0; b < 256; ++b) {
            if ((*fb)[m * 256 + b] != 0.0f) {
                first = std::min(first, b);
                last = b;
            }
        }
        ASSERT_LT(first, 256u) << "empty filter " << m;
        // The span is contiguous: no zeros strictly inside it.
        for (std::size_t b = first; b <= last; ++b) {
            // Triangular filters may touch zero only at the edges.
            if (b > first && b < last)
                EXPECT_GT((*fb)[m * 256 + b], 0.0f);
        }
        EXPECT_LT(last - first + 1, 256u / 2); // narrow vs full width
    }
}

TEST(Catalog, ResizeIndicesCoverSource)
{
    const auto idx = makeResizeIndices(48, 64, 32);
    ASSERT_EQ(idx->size(), 32u * 32u);
    for (const std::uint32_t i : *idx)
        EXPECT_LT(i, 48u * 64u);
    // Corners map to corners.
    EXPECT_EQ((*idx)[0], 0u);
}

TEST(Catalog, VideoFrameRestructureEndToEnd)
{
    const Kernel k = videoFrameRestructure(48, 64, 32);
    EXPECT_EQ(k.output().shape, (std::vector<std::size_t>{32, 32}));
    EXPECT_EQ(k.output().dtype, DType::F16);

    Bytes frame(48 * 64);
    for (std::size_t i = 0; i < frame.size(); ++i)
        frame[i] = static_cast<std::uint8_t>(i % 251);
    const Bytes out = executeOnCpu(k, frame);
    EXPECT_EQ(out.size(), 32u * 32u * 2u);
    // Values normalized into [-0.5, 0.5].
    for (std::size_t i = 0; i < 32 * 32; ++i) {
        std::uint16_t h;
        std::memcpy(&h, &out[i * 2], 2);
        const float v = halfToFloat(h);
        EXPECT_GE(v, -0.5f - 1e-3f);
        EXPECT_LE(v, 0.5f + 1e-3f);
    }
}

TEST(Catalog, TextRecordRestructurePadsRecords)
{
    const Kernel k = textRecordRestructure(128, 32, 40);
    EXPECT_EQ(k.output().shape, (std::vector<std::size_t>{4, 40}));
    Bytes text(128);
    for (std::size_t i = 0; i < text.size(); ++i)
        text[i] = static_cast<std::uint8_t>('a' + i % 26);
    const Bytes out = executeOnCpu(k, text);
    ASSERT_EQ(out.size(), 4u * 40u);
    // Record 1 starts with text[32]; padding bytes are zero.
    EXPECT_EQ(out[40], text[32]);
    EXPECT_EQ(out[39], 0);
    EXPECT_EQ(out[79], 0);
}

TEST(Catalog, DbColumnarizeIsFieldMajor)
{
    const Kernel k = dbColumnarize(3);
    Bytes rows(3 * 16);
    for (std::size_t i = 0; i < rows.size(); ++i)
        rows[i] = static_cast<std::uint8_t>(i);
    const Bytes out = executeOnCpu(k, rows);
    ASSERT_EQ(out.size(), rows.size());
    // Field 0 of row 1 (source bytes 16..23) lands at offset 8..15.
    for (int b = 0; b < 8; ++b)
        EXPECT_EQ(out[8 + static_cast<std::size_t>(b)], 16 + b);
    // Field 1 of row 0 (source bytes 8..15) lands at 3*8 + 0.
    for (int b = 0; b < 8; ++b)
        EXPECT_EQ(out[24 + static_cast<std::size_t>(b)], 8 + b);
}

TEST(Catalog, VectorReductionSums)
{
    const Kernel k = vectorReduction(3, 4);
    const Bytes out = executeOnCpu(
        k, floatBytes({1, 2, 3, 4, 10, 20, 30, 40, 100, 200, 300, 400}));
    EXPECT_EQ(toFloats(out), (std::vector<float>{111, 222, 333, 444}));
}

TEST(Catalog, BrainSignalShapes)
{
    const Kernel k = brainSignalRestructure(8, 64, 16);
    EXPECT_EQ(k.output().shape, (std::vector<std::size_t>{8, 16}));
    EXPECT_EQ(k.output().dtype, DType::F16);
    Rng rng(3);
    std::vector<float> in(8 * 128);
    for (auto &v : in)
        v = static_cast<float>(rng.uniform(-1, 1));
    const Bytes out = executeOnCpu(k, floatBytes(in));
    EXPECT_EQ(out.size(), 8u * 16u * 2u);
}

TEST(Catalog, NerTokenShapes)
{
    const Kernel k = nerTokenRestructure(100, 16, 32);
    EXPECT_EQ(k.output().shape, (std::vector<std::size_t>{16, 32}));
    EXPECT_EQ(k.output().dtype, DType::F32);
    const Bytes out = executeOnCpu(k, Bytes(100, 65));
    // 'A' (65) -> 65/255 - 0.5.
    const auto v = toFloats(out);
    EXPECT_NEAR(v[0], 65.0f / 255.0f - 0.5f, 1e-6f);
}

TEST(DtypeTest, HalfRoundTripExactForSmallInts)
{
    for (float v : {0.0f, 1.0f, -2.0f, 0.5f, 1024.0f, -0.25f})
        EXPECT_EQ(halfToFloat(floatToHalf(v)), v);
}

TEST(DtypeTest, HalfSaturatesAndRounds)
{
    EXPECT_EQ(halfToFloat(floatToHalf(1e9f)), 65504.0f); // saturate
    // 2049 is not representable in f16 (11-bit mantissa): rounds to 2048.
    EXPECT_EQ(halfToFloat(floatToHalf(2049.0f)), 2048.0f);
    EXPECT_EQ(halfToFloat(floatToHalf(2051.0f)), 2052.0f);
}

TEST(DtypeTest, SubnormalHalf)
{
    const float tiny = 5.96046448e-8f; // smallest positive subnormal
    EXPECT_GT(halfToFloat(floatToHalf(tiny)), 0.0f);
    EXPECT_EQ(halfToFloat(floatToHalf(1e-12f)), 0.0f); // underflow
}
