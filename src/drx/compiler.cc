#include "drx/compiler.hh"

#include <algorithm>
#include <cstring>

#include "common/logging.hh"

namespace dmx::drx
{

using restructure::BufferDesc;
using restructure::Kernel;
using restructure::MapFn;
using restructure::MapStep;
using restructure::Stage;
using restructure::StageOp;

namespace
{

/** Largest divisor of @p n that is <= @p cap (tiling helper). */
std::uint32_t
pickTile(std::size_t n, std::size_t cap)
{
    if (n == 0)
        dmx_fatal("drx compiler: cannot tile an empty buffer");
    const std::size_t limit = std::min(n, cap);
    for (std::size_t t = limit; t >= 1; --t) {
        if (n % t == 0)
            return static_cast<std::uint32_t>(t);
    }
    return 1;
}

/**
 * The plan-phase allocation sink: mirrors DrxMachine's 64-byte-aligned
 * bump allocator exactly (so a plan installed at allocator position 0
 * lands on the same addresses compileKernel used to produce), but
 * records constants as serialized segments instead of writing device
 * DRAM. Keeping the lowering functions on this sink is what makes
 * planKernel a pure function of (kernel, config).
 */
struct PlanSink
{
    const DrxConfig &cfg;
    CompiledKernel &out;
    std::uint64_t brk = 0;

    std::uint64_t
    alloc(std::uint64_t bytes)
    {
        const std::uint64_t base = (brk + 63) & ~63ull;
        if (bytes > cfg.dram_bytes || base > cfg.dram_bytes - bytes)
            dmx_fatal("DrxMachine::alloc: out of device DRAM "
                      "(%llu requested at %llu of %zu)",
                      static_cast<unsigned long long>(bytes),
                      static_cast<unsigned long long>(base),
                      static_cast<std::size_t>(cfg.dram_bytes));
        brk = base + bytes;
        return base;
    }

    void
    place(std::uint64_t addr, std::vector<std::uint8_t> raw)
    {
        out.consts.push_back(ConstSegment{addr, std::move(raw)});
    }
};

/** Plan a vector of u32 as an I32 constant buffer. */
std::uint64_t
placeIndices(PlanSink &m, const std::vector<std::uint32_t> &idx)
{
    const std::uint64_t addr = m.alloc(idx.size() * 4);
    std::vector<std::uint8_t> raw(idx.size() * 4);
    for (std::size_t i = 0; i < idx.size(); ++i) {
        std::int32_t v = static_cast<std::int32_t>(idx[i]);
        std::memcpy(&raw[i * 4], &v, 4);
    }
    m.place(addr, std::move(raw));
    return addr;
}

/** Plan floats as an F32 constant buffer. */
std::uint64_t
placeFloats(PlanSink &m, const std::vector<float> &w)
{
    const std::uint64_t addr = m.alloc(w.size() * 4);
    std::vector<std::uint8_t> raw(w.size() * 4);
    std::memcpy(raw.data(), w.data(), raw.size());
    m.place(addr, std::move(raw));
    return addr;
}

VFunc
mapFnToVFunc(MapFn fn)
{
    switch (fn) {
      case MapFn::Scale:    return VFunc::MulS;
      case MapFn::Offset:   return VFunc::AddS;
      case MapFn::Abs:      return VFunc::Abs;
      case MapFn::Sqrt:     return VFunc::Sqrt;
      case MapFn::Log1p:    return VFunc::Log1p;
      case MapFn::Exp:      return VFunc::Exp;
      case MapFn::ClampMin: return VFunc::MaxS;
      case MapFn::ClampMax: return VFunc::MinS;
    }
    dmx_panic("drx compiler: bad MapFn");
}

/** Append a Map chain to a builder, reg 'cur' -> returned reg. */
unsigned
emitSteps(ProgramBuilder &b, const std::vector<MapStep> &steps,
          unsigned cur, unsigned scratch_a, unsigned scratch_b)
{
    for (const MapStep &step : steps) {
        const unsigned nxt = cur == scratch_a ? scratch_b : scratch_a;
        b.compute1(mapFnToVFunc(step.fn), nxt, cur, step.arg);
        cur = nxt;
    }
    return cur;
}

/** Elementwise pass over equal-sized in/out buffers (Map / Cast). */
Program
lowerElementwise(const std::string &name, DType in_t, std::size_t elems,
                 DType out_t, const std::vector<MapStep> &steps,
                 std::uint64_t in_addr, std::uint64_t out_addr)
{
    const std::uint32_t tile = pickTile(elems, max_tile_elems / 2);
    ProgramBuilder b(name);
    b.loop(0, static_cast<std::uint32_t>(elems / tile));
    b.streamCfg(0, in_addr, in_t, tile, 0, 0, tile);
    b.streamCfg(1, out_addr, out_t, tile, 0, 0, tile);
    b.sync();
    b.load(0, 0);
    const unsigned out_reg = emitSteps(b, steps, 0, 1, 0);
    b.store(1, out_reg);
    return b.build();
}

/** Magnitude: interleaved complex -> |z|, with optional fused steps. */
Program
lowerMagnitude(const BufferDesc &in, const std::vector<MapStep> &steps,
               DType out_t, std::uint64_t in_addr, std::uint64_t out_addr)
{
    const std::size_t out_n = in.elems() / 2;
    const std::uint32_t tile = pickTile(out_n, max_tile_elems / 4);
    ProgramBuilder b("magnitude");
    b.loop(0, static_cast<std::uint32_t>(out_n / tile));
    b.streamCfg(0, in_addr, in.dtype, 2 * tile, 0, 0, 2 * tile);
    b.streamCfg(1, out_addr, out_t, tile, 0, 0, tile);
    b.sync();
    b.load(0, 0);
    b.compute1(VFunc::DeintEven, 1, 0);
    b.compute1(VFunc::DeintOdd, 2, 0);
    b.compute(VFunc::Mul, 3, 1, 1);
    b.compute(VFunc::Mac, 3, 2, 2);
    b.compute1(VFunc::Sqrt, 4, 3);
    const unsigned out_reg = emitSteps(b, steps, 4, 5, 4);
    b.store(1, out_reg);
    return b.build();
}

/** Affine structure detected in a gather index table. */
struct AffinePattern
{
    bool ok = false;
    std::size_t run = 0;    ///< consecutive elements per run (L)
    std::size_t inner = 0;  ///< runs per outer block (m)
    std::int64_t inner_stride = 0; ///< A
    std::size_t outer = 0;  ///< outer blocks (o)
    std::int64_t outer_stride = 0; ///< B
    std::uint32_t start = 0;
};

/**
 * Detect whether @p idx is an affine 2-level run pattern:
 *   idx[(oi*m + mi)*L + e] == start + oi*B + mi*A + e.
 * Such gathers lower to pure strided streams with no index table -
 * the compiler optimization that makes layout transforms (columnar
 * conversion, integer-ratio resizes, reshapes) cheap on the DRX.
 */
AffinePattern
detectAffine(const std::vector<std::uint32_t> &idx)
{
    AffinePattern p;
    if (idx.empty())
        return p;
    // Run length of the first run.
    std::size_t L = 1;
    while (L < idx.size() && idx[L] == idx[L - 1] + 1)
        ++L;
    if (idx.size() % L != 0)
        return p;
    const std::size_t runs = idx.size() / L;
    // Validate every run and collect starts.
    std::vector<std::uint32_t> starts(runs);
    for (std::size_t r = 0; r < runs; ++r) {
        starts[r] = idx[r * L];
        for (std::size_t e = 1; e < L; ++e) {
            if (idx[r * L + e] != starts[r] + e)
                return p;
        }
    }
    p.run = L;
    p.start = starts[0];
    if (runs == 1) {
        p.ok = true;
        p.inner = 1;
        p.outer = 1;
        return p;
    }
    const std::int64_t A = static_cast<std::int64_t>(starts[1]) -
                           static_cast<std::int64_t>(starts[0]);
    std::size_t m = 1;
    while (m < runs &&
           static_cast<std::int64_t>(starts[m]) -
                   static_cast<std::int64_t>(starts[m - 1]) ==
               A) {
        ++m;
    }
    if (runs % m != 0)
        return p;
    const std::size_t o = runs / m;
    const std::int64_t B =
        o > 1 ? static_cast<std::int64_t>(starts[m]) -
                    static_cast<std::int64_t>(starts[0])
              : 0;
    for (std::size_t oi = 0; oi < o; ++oi) {
        for (std::size_t mi = 0; mi < m; ++mi) {
            const std::int64_t expect =
                static_cast<std::int64_t>(p.start) +
                static_cast<std::int64_t>(oi) * B +
                static_cast<std::int64_t>(mi) * A;
            if (static_cast<std::int64_t>(starts[oi * m + mi]) != expect)
                return p;
        }
    }
    // Descending patterns (e.g. a reversing permutation) would need
    // negative stream offsets, which the machine's address generator
    // does not produce; such gathers take the index-table path.
    if (A < 0 || B < 0)
        return p;
    p.ok = true;
    p.inner = m;
    p.inner_stride = A;
    p.outer = o;
    p.outer_stride = B;
    return p;
}

/** Strided-stream lowering of an affine gather (no index table). */
Program
lowerAffineGather(const std::string &name, const BufferDesc &in,
                  const AffinePattern &p, const std::vector<MapStep> &steps,
                  DType out_t, std::uint64_t in_addr,
                  std::uint64_t out_addr)
{
    const std::size_t esz_in = dtypeSize(in.dtype);
    // Group G runs per instruction to amortize issue cost.
    std::size_t G = 1;
    for (std::size_t g = p.inner; g >= 1; --g) {
        if (p.inner % g == 0 && g * p.run <= max_tile_elems / 2) {
            G = g;
            break;
        }
    }
    const auto tile = static_cast<std::uint32_t>(G * p.run);
    ProgramBuilder b(name);
    b.loop(0, static_cast<std::uint32_t>(p.outer));
    b.loop(1, static_cast<std::uint32_t>(p.inner / G));
    b.streamCfg(0, in_addr + p.start * esz_in, in.dtype, p.outer_stride,
                p.inner_stride * static_cast<std::int64_t>(G), 0, tile);
    if (G > 1 || p.run < tile)
        b.runs(static_cast<std::uint32_t>(p.run), p.inner_stride);
    b.streamCfg(1, out_addr, out_t,
                static_cast<std::int64_t>(p.inner * p.run),
                static_cast<std::int64_t>(G * p.run), 0, tile);
    b.sync();
    b.load(0, 0);
    const unsigned out_reg = emitSteps(b, steps, 0, 1, 0);
    b.store(1, out_reg);
    return b.build();
}

/**
 * Gather through a DRAM index table, with optional fused steps.
 * When the table consists of fixed-length consecutive runs (@p run_len
 * from the caller's analysis), the table is compressed to one
 * descriptor per run, cutting index traffic by that factor.
 */
Program
lowerGather(const std::string &name, const BufferDesc &in,
            std::size_t out_elems, std::size_t run_len,
            const std::vector<MapStep> &steps, DType out_t,
            std::uint64_t idx_addr, std::uint64_t in_addr,
            std::uint64_t out_addr)
{
    if (in.elems() >= (1ull << 24))
        dmx_fatal("drx compiler: gather source too large for exact "
                  "float indices (%zu elems)", in.elems());
    const std::size_t runs = out_elems / run_len;
    const std::uint32_t idx_tile = pickTile(
        runs, std::max<std::size_t>(1, (max_tile_elems / 2) / run_len));
    const auto data_tile =
        static_cast<std::uint32_t>(idx_tile * run_len);
    ProgramBuilder b(name);
    b.loop(0, static_cast<std::uint32_t>(runs / idx_tile));
    b.streamCfg(0, idx_addr, DType::I32, idx_tile, 0, 0, idx_tile);
    b.streamCfg(1, in_addr, in.dtype, 0, 0, 0, data_tile);
    b.streamCfg(2, out_addr, out_t, data_tile, 0, 0, data_tile);
    b.sync();
    b.load(0, 0); // run descriptors
    b.gather(1, 1, 0, static_cast<std::uint32_t>(run_len));
    const unsigned out_reg = emitSteps(b, steps, 1, 2, 1);
    b.store(2, out_reg);
    return b.build();
}

/** MatVec: banded when the weight rows are narrow, dense otherwise. */
Program
lowerMatVec(const Stage &st, const BufferDesc &in, PlanSink &m,
            std::uint64_t in_addr, std::uint64_t out_addr)
{
    const std::size_t rows = in.rows();
    const std::size_t cols = st.mat_cols;
    const std::size_t mat_rows = st.mat_rows;
    const std::vector<float> &w = *st.weights;
    if (mat_rows > max_tile_elems)
        dmx_fatal("drx compiler: matvec with %zu output rows exceeds the "
                  "tile limit", mat_rows);

    // Band analysis: find the nonzero span of each weight row.
    std::size_t max_width = 0;
    std::vector<std::size_t> lo(mat_rows, 0);
    for (std::size_t r = 0; r < mat_rows; ++r) {
        std::size_t first = cols, last = 0;
        for (std::size_t c = 0; c < cols; ++c) {
            if (w[r * cols + c] != 0.0f) {
                first = std::min(first, c);
                last = c;
            }
        }
        if (first == cols) {
            lo[r] = 0; // all-zero row
        } else {
            lo[r] = first;
            max_width = std::max(max_width, last - first + 1);
        }
    }
    if (max_width == 0)
        max_width = 1;

    const bool banded = max_width <= 512 && max_width * 3 <= cols;
    if (banded) {
        // Pack per-row bands (weights + in-row index taps), padded to a
        // common width W with zero weights.
        const std::size_t width = max_width;
        std::vector<float> packed(mat_rows * width, 0.0f);
        std::vector<std::uint32_t> taps(mat_rows * width, 0);
        for (std::size_t r = 0; r < mat_rows; ++r) {
            const std::size_t base = std::min(lo[r], cols - width);
            for (std::size_t k = 0; k < width; ++k) {
                packed[r * width + k] = w[r * cols + base + k];
                taps[r * width + k] =
                    static_cast<std::uint32_t>(base + k);
            }
        }
        const std::uint64_t wts = placeFloats(m, packed);
        const std::uint64_t idx = placeIndices(m, taps);

        const std::size_t bank_floats = mat_rows * width;
        // Live scratch: taps + weights + gathered band (reused for the
        // product) + the output row.
        const bool bank_fits =
            bank_floats <= max_tile_elems &&
            (3 * bank_floats + mat_rows) * sizeof(float) <=
                m.cfg.scratch_bytes;
        if (bank_fits) {
            // Row-batched lowering: the whole packed filter bank fits a
            // tile, so one iteration per input row computes every
            // output with a single gather + multiply + segmented sum,
            // and the taps/weights are hoisted out of the loop.
            const auto bank =
                static_cast<std::uint32_t>(mat_rows * width);
            ProgramBuilder b("matvec.banded.rowbatch");
            b.loop(0, 1);
            b.loop(1, static_cast<std::uint32_t>(rows));
            b.streamCfg(0, idx, DType::I32, 0, 0, 0, bank);
            b.streamCfg(1, wts, DType::F32, 0, 0, 0, bank);
            b.streamCfg(2, in_addr, in.dtype, 0,
                        static_cast<std::int64_t>(cols), 0, bank);
            b.streamCfg(3, out_addr, DType::F32, 0,
                        static_cast<std::int64_t>(mat_rows), 0,
                        static_cast<std::uint32_t>(mat_rows));
            b.sync();
            b.load(0, 0).at(0);      // taps: loop-invariant
            b.load(1, 1).at(0);      // packed weights: loop-invariant
            b.gather(2, 2, 0);       // all bands of this row at once
            b.compute(VFunc::Mul, 2, 1, 2); // product in place
            b.segsum(4, 2, static_cast<std::uint32_t>(width));
            b.store(3, 4);
            return b.build();
        }

        ProgramBuilder b("matvec.banded");
        b.loop(0, static_cast<std::uint32_t>(rows));
        b.loop(1, static_cast<std::uint32_t>(mat_rows));
        const auto wu = static_cast<std::int64_t>(width);
        b.streamCfg(0, idx, DType::I32, 0, wu, 0,
                    static_cast<std::uint32_t>(width));
        b.streamCfg(1, wts, DType::F32, 0, wu, 0,
                    static_cast<std::uint32_t>(width));
        b.streamCfg(2, in_addr, in.dtype,
                    static_cast<std::int64_t>(cols), 0, 0,
                    static_cast<std::uint32_t>(width));
        b.streamCfg(3, out_addr, DType::F32,
                    static_cast<std::int64_t>(mat_rows), 0, 0,
                    static_cast<std::uint32_t>(mat_rows));
        b.sync();
        b.reset(5).at(0, false);
        b.load(0, 0);       // taps
        b.load(1, 1);       // packed weights
        b.gather(2, 2, 0);  // input band (row offset via stream stride)
        b.compute(VFunc::Mul, 3, 1, 2);
        b.compute(VFunc::RedSum, 4, 3, 3);
        b.append(5, 4);
        b.store(3, 5).at(0, true);
        return b.build();
    }

    // Dense fallback: hoist the input row, stream weight rows.
    if (cols > max_tile_elems)
        dmx_fatal("drx compiler: dense matvec with %zu cols exceeds the "
                  "tile limit", cols);
    ProgramBuilder b("matvec.dense");
    b.loop(0, static_cast<std::uint32_t>(rows));
    b.loop(1, static_cast<std::uint32_t>(mat_rows));
    const std::uint64_t wts = placeFloats(m, w);
    b.streamCfg(0, in_addr, in.dtype, static_cast<std::int64_t>(cols), 0,
                0, static_cast<std::uint32_t>(cols));
    b.streamCfg(1, wts, DType::F32, 0, static_cast<std::int64_t>(cols), 0,
                static_cast<std::uint32_t>(cols));
    b.streamCfg(3, out_addr, DType::F32,
                static_cast<std::int64_t>(mat_rows), 0, 0,
                static_cast<std::uint32_t>(mat_rows));
    b.sync();
    b.reset(5).at(0, false);
    b.load(0, 0).at(0, false); // input row: loop-invariant across dim 1
    b.load(1, 1);              // weight row
    b.compute(VFunc::Mul, 3, 1, 0);
    b.compute(VFunc::RedSum, 4, 3, 3);
    b.append(5, 4);
    b.store(3, 5).at(0, true);
    return b.build();
}

/** Row-wise sum over the innermost dimension. */
Program
lowerReduce(const BufferDesc &in, std::uint64_t in_addr,
            std::uint64_t out_addr)
{
    const std::size_t rows = in.rows();
    const std::size_t cols = in.inner();
    if (cols > max_tile_elems)
        dmx_fatal("drx compiler: reduce with %zu cols exceeds the tile "
                  "limit", cols);
    ProgramBuilder b("reduce");
    b.loop(0, static_cast<std::uint32_t>(rows));
    b.streamCfg(0, in_addr, in.dtype, static_cast<std::int64_t>(cols), 0,
                0, static_cast<std::uint32_t>(cols));
    b.streamCfg(1, out_addr, DType::F32, 1, 0, 0, 1);
    b.sync();
    b.load(0, 0);
    b.compute(VFunc::RedSum, 1, 0, 0);
    b.store(1, 1);
    return b.build();
}

/** Pad the innermost dimension with a constant. */
Program
lowerPad(const Stage &st, const BufferDesc &in, std::uint64_t in_addr,
         std::uint64_t out_addr)
{
    const std::size_t rows = in.rows();
    const std::size_t cols = in.inner();
    const std::size_t padded = st.pad_to;
    if (padded > max_tile_elems)
        dmx_fatal("drx compiler: pad width %zu exceeds the tile limit",
                  padded);
    ProgramBuilder b("pad");
    b.loop(0, static_cast<std::uint32_t>(rows));
    b.streamCfg(0, in_addr, in.dtype, static_cast<std::int64_t>(cols), 0,
                0, static_cast<std::uint32_t>(cols));
    b.streamCfg(1, out_addr, in.dtype, static_cast<std::int64_t>(padded),
                0, 0, static_cast<std::uint32_t>(padded));
    b.sync();
    b.load(0, 0);
    b.fill(1, st.pad_value, static_cast<std::uint32_t>(padded - cols));
    b.reset(2);
    b.append(2, 0);
    b.append(2, 1);
    b.store(1, 2);
    return b.build();
}

/** Fused Transpose2D+Reduce: elementwise sum across the outer dim. */
Program
lowerFusedSum(const BufferDesc &in, std::uint64_t in_addr,
              std::uint64_t out_addr)
{
    const std::size_t n = in.shape[0];
    const std::size_t elems = in.inner();
    const std::uint32_t tile = pickTile(elems, max_tile_elems / 2);
    ProgramBuilder b("fused_transpose_reduce");
    b.loop(0, static_cast<std::uint32_t>(elems / tile));
    b.loop(1, static_cast<std::uint32_t>(n));
    b.streamCfg(0, in_addr, in.dtype, tile,
                static_cast<std::int64_t>(elems), 0, tile);
    b.streamCfg(1, out_addr, DType::F32, tile, 0, 0, tile);
    b.sync();
    b.fill(2, 0.0f, tile).at(0, false);
    b.load(0, 0);
    b.compute(VFunc::Add, 2, 2, 0);
    b.store(1, 2).at(0, true);
    return b.build();
}

/** Build a flat transpose index table for the last two dims. */
std::vector<std::uint32_t>
transposeIndices(const BufferDesc &in)
{
    const std::size_t rank = in.shape.size();
    const std::size_t r = in.shape[rank - 2];
    const std::size_t c = in.shape[rank - 1];
    const std::size_t outer = in.elems() / (r * c);
    std::vector<std::uint32_t> idx(in.elems());
    std::size_t o = 0;
    for (std::size_t b = 0; b < outer; ++b)
        for (std::size_t x = 0; x < c; ++x)
            for (std::size_t y = 0; y < r; ++y)
                idx[o++] = static_cast<std::uint32_t>(b * r * c + y * c +
                                                      x);
    return idx;
}

/**
 * @return the fixed run length of @p idx (every chunk of L entries is
 * consecutive), or 1 when no such L > 1 exists.
 */
std::size_t
fixedRunLength(const std::vector<std::uint32_t> &idx)
{
    std::size_t L = 1;
    while (L < idx.size() && idx[L] == idx[L - 1] + 1)
        ++L;
    if (L <= 1 || idx.size() % L != 0)
        return 1;
    for (std::size_t r = 1; r < idx.size() / L; ++r) {
        for (std::size_t e = 1; e < L; ++e) {
            if (idx[r * L + e] != idx[r * L] + e)
                return 1;
        }
    }
    return L;
}

bool
isElementwise(const Stage &st)
{
    return st.op == StageOp::Map || st.op == StageOp::Cast;
}

} // namespace

CompiledKernel
planKernel(const Kernel &kernel, const DrxConfig &cfg)
{
    CompiledKernel out;
    PlanSink machine{cfg, out};
    const std::vector<BufferDesc> descs = kernel.stageDescs();
    out.in_desc = kernel.input;
    out.out_desc = descs.back();
    out.input_addr = machine.alloc(kernel.input.bytes());

    const auto finalize = [&]() -> CompiledKernel & {
        out.dram_bytes = machine.brk;
        return out;
    };

    // Fusion: the Transpose+Reduce collective idiom.
    if (kernel.stages.size() == 2 &&
        kernel.stages[0].op == StageOp::Transpose2D &&
        kernel.stages[1].op == StageOp::Reduce &&
        kernel.input.shape.size() == 2) {
        out.output_addr = machine.alloc(out.out_desc.bytes());
        out.programs.push_back(
            lowerFusedSum(kernel.input, out.input_addr, out.output_addr));
        return finalize();
    }

    std::uint64_t cur_addr = out.input_addr;
    BufferDesc cur = kernel.input;
    std::size_t si = 0;
    while (si < kernel.stages.size()) {
        const Stage &st = kernel.stages[si];

        // Greedily fuse the trailing Map/Cast chain of this group. The
        // fused pass works in float and narrows only its last buffer,
        // so a stage joins only if narrowing the buffer that enters it
        // would leave the pass's floats unchanged: that buffer is F32,
        // or it is the output of a Gather / Transpose2D head, a pure
        // move of elements already in its dtype.
        std::size_t sj = si + 1;
        std::vector<MapStep> fused_steps;
        const bool fusable_head =
            isElementwise(st) || st.op == StageOp::Gather ||
            st.op == StageOp::Transpose2D || st.op == StageOp::Magnitude;
        const bool move_head =
            st.op == StageOp::Gather || st.op == StageOp::Transpose2D;
        auto exact_entry = [&](std::size_t j) {
            return descs[j].dtype == DType::F32 || (j == si + 1 && move_head);
        };
        if (st.op == StageOp::Map)
            fused_steps = st.steps;
        if (fusable_head) {
            while (sj < kernel.stages.size() &&
                   isElementwise(kernel.stages[sj]) && exact_entry(sj)) {
                if (kernel.stages[sj].op == StageOp::Map) {
                    const auto &steps = kernel.stages[sj].steps;
                    fused_steps.insert(fused_steps.end(), steps.begin(),
                                       steps.end());
                }
                ++sj;
            }
        }
        const BufferDesc &next = descs[sj];
        const std::uint64_t next_addr = machine.alloc(next.bytes());

        switch (st.op) {
          case StageOp::Map:
          case StageOp::Cast:
            out.programs.push_back(lowerElementwise(
                "elementwise", cur.dtype, cur.elems(), next.dtype,
                fused_steps, cur_addr, next_addr));
            break;
          case StageOp::Transpose2D:
          case StageOp::Gather: {
            std::vector<std::uint32_t> local;
            const std::vector<std::uint32_t> *idx = nullptr;
            if (st.op == StageOp::Transpose2D) {
                local = transposeIndices(cur);
                idx = &local;
            } else {
                idx = st.indices.get();
            }
            const AffinePattern pattern = detectAffine(*idx);
            if (pattern.ok && pattern.inner == 1 && pattern.outer == 1) {
                // Degenerate affine gather: a contiguous copy (e.g. a
                // pure reshape); lower as a tiled elementwise pass.
                out.programs.push_back(lowerElementwise(
                    "gather.copy", cur.dtype, idx->size(), next.dtype,
                    fused_steps,
                    cur_addr + pattern.start * dtypeSize(cur.dtype),
                    next_addr));
            } else if (pattern.ok &&
                       pattern.run <= max_tile_elems / 2) {
                out.programs.push_back(lowerAffineGather(
                    "gather.affine", cur, pattern, fused_steps,
                    next.dtype, cur_addr, next_addr));
            } else {
                // Compress fixed-length runs into per-run descriptors.
                const std::size_t run_len = fixedRunLength(*idx);
                std::uint64_t idx_addr;
                if (run_len > 1) {
                    std::vector<std::uint32_t> starts(idx->size() /
                                                      run_len);
                    for (std::size_t r = 0; r < starts.size(); ++r)
                        starts[r] = (*idx)[r * run_len];
                    idx_addr = placeIndices(machine, starts);
                } else {
                    idx_addr = placeIndices(machine, *idx);
                }
                out.programs.push_back(lowerGather(
                    "gather", cur, idx->size(), run_len, fused_steps,
                    next.dtype, idx_addr, cur_addr, next_addr));
            }
            break;
          }
          case StageOp::MatVec:
            out.programs.push_back(
                lowerMatVec(st, cur, machine, cur_addr, next_addr));
            break;
          case StageOp::Magnitude:
            out.programs.push_back(lowerMagnitude(
                cur, fused_steps, next.dtype, cur_addr, next_addr));
            break;
          case StageOp::Reduce:
            out.programs.push_back(
                lowerReduce(cur, cur_addr, next_addr));
            break;
          case StageOp::Pad:
            if (st.pad_to == cur.inner()) {
                out.programs.push_back(lowerElementwise(
                    "pad.copy", cur.dtype, cur.elems(), cur.dtype, {},
                    cur_addr, next_addr));
            } else {
                out.programs.push_back(
                    lowerPad(st, cur, cur_addr, next_addr));
            }
            break;
        }
        cur = next;
        cur_addr = next_addr;
        si = sj;
    }
    out.output_addr = cur_addr;
    return finalize();
}

std::shared_ptr<const CompiledKernel>
installPlan(std::shared_ptr<const CompiledKernel> plan, DrxMachine &machine)
{
    // One reservation covers the whole plan: the plan's internal
    // allocations replay the same 64-byte-aligned bump arithmetic, so
    // reserving the footprint in one step leaves the machine allocator
    // exactly where the legacy interleaved compile left it.
    const std::uint64_t base = machine.alloc(plan->dram_bytes);
    if (base == 0) {
        for (const ConstSegment &seg : plan->consts)
            machine.write(seg.addr, seg.bytes.data(), seg.bytes.size());
        return plan;
    }
    // Rebase: alignment is additive for 64-byte-aligned bases, so
    // shifting every address by the reservation base reproduces what
    // an interleaved compile at this allocator position would emit.
    auto rb = std::make_shared<CompiledKernel>(*plan);
    rb->input_addr += base;
    rb->output_addr += base;
    for (ConstSegment &seg : rb->consts)
        seg.addr += base;
    for (Program &prog : rb->programs) {
        for (Instruction &ins : prog.code) {
            if (ins.op == Opcode::CfgStream)
                ins.base += base;
        }
    }
    for (const ConstSegment &seg : rb->consts)
        machine.write(seg.addr, seg.bytes.data(), seg.bytes.size());
    return rb;
}

CompiledKernel
compileKernel(const Kernel &kernel, DrxMachine &machine)
{
    auto plan = std::make_shared<const CompiledKernel>(
        planKernel(kernel, machine.config()));
    return *installPlan(std::move(plan), machine);
}

RunResult
runPlanOnDrx(const std::string &name, const CompiledKernel &plan,
             const restructure::Bytes &input, DrxMachine &machine,
             restructure::Bytes *out, Tick &trace_cursor)
{
    if (input.size() != plan.in_desc.bytes())
        dmx_fatal("runKernelOnDrx('%s'): input is %zu bytes, expected %zu",
                  name.c_str(), input.size(), plan.in_desc.bytes());
    machine.write(plan.input_addr, input.data(), input.size());
    RunResult res;
    for (const Program &p : plan.programs) {
        const RunResult stage = machine.run(p, trace_cursor);
        trace_cursor += stage.time(machine.config().freq_hz);
        res += stage;
        if (res.faulted)
            break; // the machine trapped; later stages never start
    }
    if (out && !res.faulted) {
        *out = machine.read(plan.output_addr, plan.out_desc.bytes());
    }
    return res;
}

RunResult
runKernelOnDrx(const Kernel &kernel, const restructure::Bytes &input,
               DrxMachine &machine, restructure::Bytes *out,
               Tick trace_base)
{
    if (input.size() != kernel.input.bytes())
        dmx_fatal("runKernelOnDrx('%s'): input is %zu bytes, expected %zu",
                  kernel.name.c_str(), input.size(), kernel.input.bytes());
    const CompiledKernel compiled = compileKernel(kernel, machine);
    return runPlanOnDrx(kernel.name, compiled, input, machine, out,
                        trace_base);
}

} // namespace dmx::drx
