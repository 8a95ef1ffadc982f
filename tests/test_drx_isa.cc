/**
 * @file
 * DRX ISA-level tests: the Transposition Engine functions (TransB,
 * Deint*), segmented sums, run-patterned streams, descriptor gathers,
 * and the disassembler - exercised through hand-written programs.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>

#include "drx/machine.hh"
#include "drx/program.hh"

using namespace dmx;
using namespace dmx::drx;

namespace
{

std::vector<std::uint8_t>
floatBytes(const std::vector<float> &v)
{
    std::vector<std::uint8_t> b(v.size() * 4);
    std::memcpy(b.data(), v.data(), b.size());
    return b;
}

std::vector<float>
toFloats(const std::vector<std::uint8_t> &b)
{
    std::vector<float> v(b.size() / 4);
    std::memcpy(v.data(), b.data(), b.size());
    return v;
}

} // namespace

TEST(DrxIsa, TranspositionEngineBlockTranspose)
{
    DrxMachine m;
    const auto in = m.alloc(6 * 4);
    const auto out = m.alloc(6 * 4);
    const auto data = floatBytes({1, 2, 3, 4, 5, 6}); // 2x3
    m.write(in, data.data(), data.size());

    Program p = ProgramBuilder("transb")
                    .loop(0, 1)
                    .streamCfg(0, in, DType::F32, 0, 0, 0, 6)
                    .streamCfg(1, out, DType::F32, 0, 0, 0, 6)
                    .sync()
                    .load(0, 0)
                    .transpose(1, 0, 2, 3)
                    .store(1, 1)
                    .build();
    m.run(p);
    EXPECT_EQ(toFloats(m.read(out, 24)),
              (std::vector<float>{1, 4, 2, 5, 3, 6}));
}

TEST(DrxIsa, TransposeShapeMismatchIsFatal)
{
    DrxMachine m;
    const auto in = m.alloc(6 * 4);
    Program p = ProgramBuilder("bad")
                    .loop(0, 1)
                    .streamCfg(0, in, DType::F32, 0, 0, 0, 6)
                    .sync()
                    .load(0, 0)
                    .transpose(1, 0, 4, 4) // 16 != 6
                    .build();
    EXPECT_THROW(m.run(p), std::runtime_error);
}

TEST(DrxIsa, DeinterleaveSplitsEvenOdd)
{
    DrxMachine m;
    const auto in = m.alloc(8 * 4);
    const auto out_e = m.alloc(4 * 4);
    const auto out_o = m.alloc(4 * 4);
    const auto data = floatBytes({0, 10, 1, 11, 2, 12, 3, 13});
    m.write(in, data.data(), data.size());

    Program p = ProgramBuilder("deint")
                    .loop(0, 1)
                    .streamCfg(0, in, DType::F32, 0, 0, 0, 8)
                    .streamCfg(1, out_e, DType::F32, 0, 0, 0, 4)
                    .streamCfg(2, out_o, DType::F32, 0, 0, 0, 4)
                    .sync()
                    .load(0, 0)
                    .compute1(VFunc::DeintEven, 1, 0)
                    .compute1(VFunc::DeintOdd, 2, 0)
                    .store(1, 1)
                    .store(2, 2)
                    .build();
    m.run(p);
    EXPECT_EQ(toFloats(m.read(out_e, 16)),
              (std::vector<float>{0, 1, 2, 3}));
    EXPECT_EQ(toFloats(m.read(out_o, 16)),
              (std::vector<float>{10, 11, 12, 13}));
}

TEST(DrxIsa, SegSumComputesChunkSums)
{
    DrxMachine m;
    const auto in = m.alloc(8 * 4);
    const auto out = m.alloc(4 * 4);
    const auto data = floatBytes({1, 2, 3, 4, 5, 6, 7, 8});
    m.write(in, data.data(), data.size());

    Program p = ProgramBuilder("segsum")
                    .loop(0, 1)
                    .streamCfg(0, in, DType::F32, 0, 0, 0, 8)
                    .streamCfg(1, out, DType::F32, 0, 0, 0, 4)
                    .sync()
                    .load(0, 0)
                    .segsum(1, 0, 2)
                    .store(1, 1)
                    .build();
    m.run(p);
    EXPECT_EQ(toFloats(m.read(out, 16)),
              (std::vector<float>{3, 7, 11, 15}));
}

TEST(DrxIsa, SegSumRejectsNonDividingWidth)
{
    DrxMachine m;
    const auto in = m.alloc(8 * 4);
    Program p = ProgramBuilder("segbad")
                    .loop(0, 1)
                    .streamCfg(0, in, DType::F32, 0, 0, 0, 8)
                    .sync()
                    .load(0, 0)
                    .segsum(1, 0, 3)
                    .build();
    EXPECT_THROW(m.run(p), std::runtime_error);
}

TEST(DrxIsa, RunPatternedStreamGathersStridedFields)
{
    // 4 "rows" of 4 floats; collect column pairs (fields) via runs.
    DrxMachine m;
    const auto in = m.alloc(16 * 4);
    const auto out = m.alloc(8 * 4);
    std::vector<float> rows;
    for (int r = 0; r < 4; ++r)
        for (int c = 0; c < 4; ++c)
            rows.push_back(static_cast<float>(10 * r + c));
    const auto data = floatBytes(rows);
    m.write(in, data.data(), data.size());

    // Tile of 8 = 4 runs of length 2, runs 4 elements apart: extracts
    // the first two columns of every row.
    Program p = ProgramBuilder("runs")
                    .loop(0, 1)
                    .streamCfg(0, in, DType::F32, 0, 0, 0, 8)
                    .runs(2, 4)
                    .streamCfg(1, out, DType::F32, 0, 0, 0, 8)
                    .sync()
                    .load(0, 0)
                    .store(1, 0)
                    .build();
    const RunResult res = m.run(p);
    EXPECT_EQ(toFloats(m.read(out, 32)),
              (std::vector<float>{0, 1, 10, 11, 20, 21, 30, 31}));
    // Only the touched bytes are read functionally.
    EXPECT_EQ(res.bytes_read, 8u * 4u);
}

TEST(DrxIsa, RunsMustDivideTile)
{
    ProgramBuilder b("bad");
    b.streamCfg(0, 0, DType::F32, 0, 0, 0, 8);
    EXPECT_THROW(b.runs(3, 4), std::runtime_error);
    ProgramBuilder c("bad2");
    c.loop(0, 1);
    EXPECT_THROW(c.runs(2, 4), std::runtime_error); // not a cfg.stream
}

TEST(DrxIsa, DescriptorGatherExpandsRuns)
{
    DrxMachine m;
    const auto table = m.alloc(16 * 4);
    const auto idx = m.alloc(2 * 4);
    const auto out = m.alloc(6 * 4);
    std::vector<float> vals;
    for (int i = 0; i < 16; ++i)
        vals.push_back(static_cast<float>(i));
    const auto data = floatBytes(vals);
    m.write(table, data.data(), data.size());
    const std::int32_t starts[2] = {4, 9};
    m.write(idx, reinterpret_cast<const std::uint8_t *>(starts), 8);

    // Each descriptor fetches a run of 3 consecutive elements.
    Program p = ProgramBuilder("desc_gather")
                    .loop(0, 1)
                    .streamCfg(0, idx, DType::I32, 0, 0, 0, 2)
                    .streamCfg(1, table, DType::F32, 0, 0, 0, 6)
                    .streamCfg(2, out, DType::F32, 0, 0, 0, 6)
                    .sync()
                    .load(0, 0)
                    .gather(1, 1, 0, 3)
                    .store(2, 1)
                    .build();
    m.run(p);
    EXPECT_EQ(toFloats(m.read(out, 24)),
              (std::vector<float>{4, 5, 6, 9, 10, 11}));
}

TEST(DrxIsa, GatherRejectsIndicesWithNoIntegerValue)
{
    // Casting a negative, NaN or huge float to an integer is undefined
    // behaviour; on x86 such an index wraps the address back into the
    // DRAM and reads a stale word. Both gather loops must reject it.
    const float bad[] = {-2.0f, std::nanf(""), 1e30f};
    for (const std::uint32_t run_len : {1u, 3u}) {
        for (const float v : bad) {
            DrxMachine m;
            const auto stale = m.alloc(16 * 4);
            const auto table = m.alloc(16 * 4);
            const auto idx = m.alloc(2 * 4);
            const auto old = floatBytes(std::vector<float>(16, 714.0f));
            m.write(stale, old.data(), old.size());
            const auto ids = floatBytes({1.0f, v});
            m.write(idx, ids.data(), ids.size());
            Program p = ProgramBuilder("bad_index")
                            .loop(0, 1)
                            .streamCfg(0, idx, DType::F32, 0, 0, 0, 2)
                            .streamCfg(1, table, DType::F32, 0, 0, 0,
                                       2 * run_len)
                            .sync()
                            .load(0, 0)
                            .gather(1, 1, 0, run_len)
                            .build();
            EXPECT_THROW(m.run(p), std::runtime_error)
                << "index " << v << ", run length " << run_len;
        }
    }
}

TEST(DrxIsa, StreamAddressesThatWrapPast64BitsAreFatal)
{
    // A dim-0 stride of 2^62 F32 elements is 2^64 bytes: in wrapping
    // arithmetic the second iteration's address lands back on the
    // first tile and passes the range check (a load read 1 2 3 4
    // twice). Each stream kind must reject it instead.
    constexpr std::int64_t huge = std::int64_t{1} << 62;
    for (const char *what : {"load", "store", "gather"}) {
        const std::string kind = what;
        DrxMachine m;
        const auto in = m.alloc(4 * 4);
        const auto idx = m.alloc(4 * 4);
        const auto out = m.alloc(8 * 4);
        const auto data = floatBytes({1, 2, 3, 4});
        m.write(in, data.data(), data.size());
        const auto ids = floatBytes({0, 1, 2, 3});
        m.write(idx, ids.data(), ids.size());
        ProgramBuilder b("wrap64");
        b.loop(0, 2)
            .streamCfg(0, in, DType::F32, kind == "load" ? huge : 0, 0, 0, 4)
            .streamCfg(1, out, DType::F32, kind == "store" ? huge : 4, 0,
                       0, 4)
            .streamCfg(2, idx, DType::F32, 0, 0, 0, 4)
            .streamCfg(3, in, DType::F32, kind == "gather" ? huge : 0, 0,
                       0, 4)
            .sync();
        if (kind == "gather")
            b.load(1, 2).gather(0, 3, 1);
        else
            b.load(0, 0);
        b.store(1, 0);
        const Program p = b.build();
        EXPECT_THROW(m.run(p), std::runtime_error) << what;
    }
}

TEST(DrxIsa, StrideTimesIndexOverflowingInt64IsFatal)
{
    // (2^62 + 1) * 4 overflows int64 and wraps to 4, a valid offset.
    // Placed post at depth 0, the load runs only at dim-1 index 4, so
    // no earlier access can fail first.
    DrxMachine m;
    const auto in = m.alloc(8 * 4);
    const auto out = m.alloc(4 * 4);
    Program p = ProgramBuilder("stride_overflow")
                    .loop(0, 1)
                    .loop(1, 5)
                    .streamCfg(0, in, DType::F32, 0,
                               (std::int64_t{1} << 62) + 1, 0, 4)
                    .streamCfg(1, out, DType::F32, 0, 0, 0, 4)
                    .sync()
                    .load(0, 0)
                    .at(0, true)
                    .store(1, 0)
                    .at(0, true)
                    .build();
    EXPECT_THROW(m.run(p), std::runtime_error);
}

TEST(DrxIsa, ScalarOpsViaSingleElementTiles)
{
    // "Scalar mode": tiles of one element exercise the serial path the
    // paper keeps for pointer-chasing work.
    DrxMachine m;
    const auto in = m.alloc(4 * 4);
    const auto out = m.alloc(4 * 4);
    const auto data = floatBytes({1, 2, 3, 4});
    m.write(in, data.data(), data.size());
    Program p = ProgramBuilder("scalar")
                    .loop(0, 4)
                    .streamCfg(0, in, DType::F32, 1, 0, 0, 1)
                    .streamCfg(1, out, DType::F32, 1, 0, 0, 1)
                    .sync()
                    .load(0, 0)
                    .compute1(VFunc::AddS, 1, 0, 100.0f)
                    .store(1, 1)
                    .build();
    m.run(p);
    EXPECT_EQ(toFloats(m.read(out, 16)),
              (std::vector<float>{101, 102, 103, 104}));
}

TEST(DrxIsa, MinMaxAbsExpClampFunctions)
{
    DrxMachine m;
    const auto in = m.alloc(4 * 4);
    const auto out = m.alloc(4 * 4);
    const auto data = floatBytes({-2, -0.5f, 0.5f, 2});
    m.write(in, data.data(), data.size());
    Program p = ProgramBuilder("chain")
                    .loop(0, 1)
                    .streamCfg(0, in, DType::F32, 0, 0, 0, 4)
                    .streamCfg(1, out, DType::F32, 0, 0, 0, 4)
                    .sync()
                    .load(0, 0)
                    .compute1(VFunc::Abs, 1, 0)          // |x|
                    .compute1(VFunc::MinS, 2, 1, 1.0f)   // min(|x|,1)
                    .compute1(VFunc::MaxS, 3, 2, 0.75f)  // max(...,0.75)
                    .store(1, 3)
                    .build();
    m.run(p);
    EXPECT_EQ(toFloats(m.read(out, 16)),
              (std::vector<float>{1.0f, 0.75f, 0.75f, 1.0f}));
}

TEST(DrxIsa, DisassemblyNamesEveryMnemonic)
{
    Program p = ProgramBuilder("dis")
                    .loop(0, 2)
                    .streamCfg(0, 0x40, DType::F16, 4, 2, 0, 4)
                    .runs(2, 8)
                    .sync()
                    .load(0, 0)
                    .gather(1, 0, 0, 4)
                    .compute(VFunc::Mac, 2, 1, 1)
                    .segsum(3, 2, 2)
                    .reset(4)
                    .append(4, 3)
                    .fill(5, 1.5f, 4)
                    .transpose(6, 5, 2, 2)
                    .store(0, 0)
                    .build();
    const std::string d = p.disassemble();
    for (const char *needle :
         {"cfg.loop", "cfg.stream", "f16", "ld.tile", "ld.gather",
          "v.mac", "v.segsum", "v.reset", "v.append", "v.fill",
          "v.transb", "st.tile", "sync", "halt"}) {
        EXPECT_NE(d.find(needle), std::string::npos)
            << "missing '" << needle << "' in:\n" << d;
    }
}

TEST(DrxIsa, InstructionCountAndICacheAccounting)
{
    DrxMachine m;
    const auto in = m.alloc(64 * 4);
    Program p = ProgramBuilder("count")
                    .loop(0, 8)
                    .streamCfg(0, in, DType::F32, 8, 0, 0, 8)
                    .sync()
                    .load(0, 0)
                    .compute1(VFunc::MulS, 1, 0, 2.0f)
                    .store(0, 1)
                    .build();
    const RunResult res = m.run(p);
    // cfg.loop + cfg.stream + sync + halt issue once; 3 body
    // instructions replay for each of the 8 iterations.
    EXPECT_EQ(res.dyn_instructions, 4u + 24u);
}

// ------------------------------------------------------------------
// Gather decoding. A Gather validates and converts its index register
// once and reuses the decode, within one run, while the register holds
// the same bits. The outputs and every RunResult field below are pinned
// to the interpreter that re-decoded the indices on every Gather.

namespace
{

/** Every timing field of a fault-free RunResult. */
struct RunFields
{
    Cycles total;
    Cycles compute;
    Cycles mem;
    std::uint64_t read;
    std::uint64_t written;
    std::uint64_t instructions;
};

void
expectFields(const RunResult &r, const RunFields &want,
             const std::string &what)
{
    EXPECT_EQ(r.total_cycles, want.total) << what;
    EXPECT_EQ(r.compute_cycles, want.compute) << what;
    EXPECT_EQ(r.mem_cycles, want.mem) << what;
    EXPECT_EQ(r.bytes_read, want.read) << what;
    EXPECT_EQ(r.bytes_written, want.written) << what;
    EXPECT_EQ(r.dyn_instructions, want.instructions) << what;
    EXPECT_FALSE(r.faulted) << what;
    EXPECT_EQ(r.ecc_corrected, 0u) << what;
    EXPECT_FALSE(r.ecc_uncorrectable) << what;
}

/** Write 100, 101, ... as @p n F32 elements at a fresh allocation. */
std::uint64_t
countingTable(DrxMachine &m, int n)
{
    std::vector<float> vals;
    for (int i = 0; i < n; ++i)
        vals.push_back(100.0f + static_cast<float>(i));
    const auto at = m.alloc(vals.size() * 4);
    const auto data = floatBytes(vals);
    m.write(at, data.data(), data.size());
    return at;
}

} // namespace

TEST(DrxIsa, GatherDecodeFollowsIndexRegisterRewrittenBetweenGathers)
{
    // Each iteration reloads the same index tile, gathers through it,
    // adds 1 to the index register in place and gathers again. The
    // gather stream's base moves 8 elements per iteration, so a decode
    // reused across iterations must still address the moved span.
    DrxMachine m;
    const auto table = countingTable(m, 40);
    const auto idx = m.alloc(4 * 4);
    const auto out = m.alloc(3 * 8 * 4);
    const auto ids = floatBytes({0, 2, 4, 5});
    m.write(idx, ids.data(), ids.size());
    const Program p = ProgramBuilder("rewrite_between")
                          .loop(0, 3)
                          .streamCfg(0, idx, DType::F32, 0, 0, 0, 4)
                          .streamCfg(1, table, DType::F32, 8, 0, 0, 4)
                          .streamCfg(2, out, DType::F32, 8, 0, 0, 4)
                          .streamCfg(3, out + 16, DType::F32, 8, 0, 0, 4)
                          .sync()
                          .load(0, 0)
                          .gather(1, 1, 0)
                          .compute1(VFunc::AddS, 0, 0, 1.0f)
                          .gather(2, 1, 0)
                          .store(2, 1)
                          .store(3, 2)
                          .build();
    const RunResult res = m.run(p);
    EXPECT_EQ(toFloats(m.read(out, 3 * 8 * 4)),
              (std::vector<float>{100, 102, 104, 105, 101, 103, 105, 106,
                                  108, 110, 112, 113, 109, 111, 113, 114,
                                  116, 118, 120, 121, 117, 119, 121, 122}));
    expectFields(res, {117, 25, 53, 144, 96, 25}, "rewrite_between");
}

TEST(DrxIsa, GatherIntoItsOwnIndexRegisterThenGatherAgain)
{
    // The first Gather overwrites its own index register with the
    // gathered values, which the second Gather then uses as indices.
    // Both run twice, so the second iteration reuses both decodes.
    DrxMachine m;
    const auto table = m.alloc(8 * 4);
    const auto perm = floatBytes({3, 0, 1, 2, 7, 5, 6, 4});
    m.write(table, perm.data(), perm.size());
    const auto idx = m.alloc(3 * 4);
    const auto ids = floatBytes({1, 4, 6});
    m.write(idx, ids.data(), ids.size());
    const auto out = m.alloc(2 * 6 * 4);
    const Program p = ProgramBuilder("gather_in_place")
                          .loop(0, 2)
                          .streamCfg(0, idx, DType::F32, 0, 0, 0, 3)
                          .streamCfg(1, table, DType::F32, 0, 0, 0, 3)
                          .streamCfg(2, out, DType::F32, 6, 0, 0, 3)
                          .streamCfg(3, out + 12, DType::F32, 6, 0, 0, 3)
                          .sync()
                          .load(0, 0)
                          .gather(0, 1, 0)
                          .store(2, 0)
                          .gather(1, 1, 0)
                          .store(3, 1)
                          .build();
    const RunResult res = m.run(p);
    EXPECT_EQ(toFloats(m.read(out, 2 * 6 * 4)),
              (std::vector<float>{0, 7, 6, 3, 4, 6, 0, 7, 6, 3, 4, 6}));
    expectFields(res, {104, 17, 40, 72, 48, 17}, "gather_in_place");
}

TEST(DrxIsa, GatherReusesDecodeOnlyWhileIndexBitsRepeat)
{
    // The index tile is reloaded every iteration: the same bits twice,
    // then the same values with -0.0 for 0.0 (other bits, so decoded
    // again), then other indices. Run-compressed mode too.
    const RunFields pinned[] = {{97, 18, 33, 96, 48, 18},
                                {106, 18, 42, 144, 96, 18}};
    for (const std::uint32_t run_len : {1u, 2u}) {
        DrxMachine m;
        const auto table = countingTable(m, 16);
        const auto idx = m.alloc(4 * 3 * 4);
        const auto tiles =
            floatBytes({0, 3, 4, 0, 3, 4, -0.0f, 3, 4, 9, 3, 2});
        m.write(idx, tiles.data(), tiles.size());
        const std::uint32_t data_tile = 3 * run_len;
        const auto out = m.alloc(4 * data_tile * 4);
        const Program p =
            ProgramBuilder("reload_" + std::to_string(run_len))
                .loop(0, 4)
                .streamCfg(0, idx, DType::F32, 3, 0, 0, 3)
                .streamCfg(1, table, DType::F32, 0, 0, 0, data_tile)
                .streamCfg(2, out, DType::F32, data_tile, 0, 0, data_tile)
                .sync()
                .load(0, 0)
                .gather(1, 1, 0, run_len)
                .store(2, 1)
                .build();
        const RunResult res = m.run(p);
        std::vector<float> want;
        for (const int first : {0, 3, 4, 0, 3, 4, 0, 3, 4, 9, 3, 2})
            for (std::uint32_t k = 0; k < run_len; ++k)
                want.push_back(100.0f + static_cast<float>(first + k));
        EXPECT_EQ(toFloats(m.read(out, 4 * data_tile * 4)), want)
            << "run length " << run_len;
        expectFields(res, pinned[run_len - 1],
                     "run length " + std::to_string(run_len));
    }
}

TEST(DrxIsa, GatherIndexOutOfRangeAfterReuseIsStillFatal)
{
    // Two iterations reuse one decode; the third tile holds an index
    // with no element, which must be fatal like on a first decode.
    for (const std::uint32_t run_len : {1u, 3u}) {
        DrxMachine m;
        const auto table = countingTable(m, 16);
        const auto idx = m.alloc(3 * 2 * 4);
        const auto tiles = floatBytes({1, 2, 1, 2, 1, -1});
        m.write(idx, tiles.data(), tiles.size());
        const Program p = ProgramBuilder("late_bad_index")
                              .loop(0, 3)
                              .streamCfg(0, idx, DType::F32, 2, 0, 0, 2)
                              .streamCfg(1, table, DType::F32, 0, 0, 0,
                                         2 * run_len)
                              .sync()
                              .load(0, 0)
                              .gather(1, 1, 0, run_len)
                              .build();
        try {
            m.run(p);
            ADD_FAILURE() << "run length " << run_len << ": no fatal";
        } catch (const std::runtime_error &e) {
            EXPECT_NE(std::string(e.what()).find(
                          "gather index out of range"),
                      std::string::npos)
                << e.what();
        }
    }
}

TEST(DrxIsa, GatherThroughNeverLoadedIndexRegisterTwice)
{
    // run() empties every register, and register 5 is never loaded, so
    // both iterations gather through an empty index register: the
    // second compares an empty register with an empty decode.
    DrxMachine m;
    const auto table = countingTable(m, 4);
    const Program p = ProgramBuilder("gather_empty_index")
                          .loop(0, 2)
                          .streamCfg(1, table, DType::F32, 0, 0, 0, 4)
                          .sync()
                          .gather(1, 1, 5)
                          .compute1(VFunc::AddS, 1, 1, 1.0f)
                          .build();
    const RunResult res = m.run(p);
    expectFields(res, {72, 8, 0, 0, 0, 8}, "gather_empty_index");
}
