#include "restructure/cpu_exec.hh"

#include <cmath>

#include "common/logging.hh"

namespace dmx::restructure
{

namespace
{

/** Map primitive @p F of @p x (see MapFn). */
template <MapFn F>
float
mapFn(float x, float arg)
{
    if constexpr (F == MapFn::Scale)
        return x * arg;
    else if constexpr (F == MapFn::Offset)
        return x + arg;
    else if constexpr (F == MapFn::Abs)
        return std::fabs(x);
    else if constexpr (F == MapFn::Sqrt)
        return std::sqrt(std::max(x, 0.0f));
    else if constexpr (F == MapFn::Log1p)
        return std::log1p(std::max(x, 0.0f));
    else if constexpr (F == MapFn::Exp)
        return std::exp(x);
    else if constexpr (F == MapFn::ClampMin)
        return std::max(x, arg);
    else
        return std::min(x, arg);
}

/** Call @p g(std::integral_constant<MapFn, fn>{}). */
template <class G>
decltype(auto)
visitMapFn(MapFn fn, G &&g)
{
    using F = MapFn;
    switch (fn) {
      case F::Scale:    return g(std::integral_constant<F, F::Scale>{});
      case F::Offset:   return g(std::integral_constant<F, F::Offset>{});
      case F::Abs:      return g(std::integral_constant<F, F::Abs>{});
      case F::Sqrt:     return g(std::integral_constant<F, F::Sqrt>{});
      case F::Log1p:    return g(std::integral_constant<F, F::Log1p>{});
      case F::Exp:      return g(std::integral_constant<F, F::Exp>{});
      case F::ClampMin: return g(std::integral_constant<F, F::ClampMin>{});
      case F::ClampMax: return g(std::integral_constant<F, F::ClampMax>{});
    }
    dmx_panic("visitMapFn: bad MapFn");
}

/** Apply one Map primitive. */
float
applyStep(const MapStep &step, float x)
{
    return visitMapFn(step.fn,
                      [&](auto f) { return mapFn<f.value>(x, step.arg); });
}

/** Virtual base address of staging buffer @p i (ping-pong regions). */
std::uint64_t
bufferBase(std::size_t i)
{
    // 256 MB apart: staging buffers never alias.
    return 0x100000000ull + static_cast<std::uint64_t>(i) * 0x10000000ull;
}

/** Element reads of a byte buffer, each reported to the tracer. */
struct View
{
    const Bytes *bytes;
    DType dtype;
    std::uint64_t base;
    MemTracer *tracer;

    float
    load(std::size_t idx) const
    {
        const std::size_t esz = dtypeSize(dtype);
        tracer->read(base + idx * esz, esz);
        return loadAsFloat(bytes->data() + idx * esz, dtype);
    }
};

/** Element writes of a byte buffer, each reported to the tracer. */
struct MutView
{
    Bytes *bytes;
    DType dtype;
    std::uint64_t base;
    MemTracer *tracer;

    void
    store(std::size_t idx, float v)
    {
        const std::size_t esz = dtypeSize(dtype);
        tracer->write(base + idx * esz, esz);
        storeFromFloat(bytes->data() + idx * esz, dtype, v);
    }
};

/**
 * Run stage @p st element by element through View / MutView, reporting
 * every access to @p tracer in program order: the host address stream
 * the Figure-5 characterization replays.
 */
void
runTraced(const Stage &st, const BufferDesc &in_desc,
          const BufferDesc &out_desc, const Bytes &cur, Bytes &out,
          std::size_t si, MemTracer *tracer)
{
    View in{&cur, in_desc.dtype, bufferBase(si), tracer};
    MutView dst{&out, out_desc.dtype, bufferBase(si + 1), tracer};

    switch (st.op) {
      case StageOp::Map: {
        const std::size_t n = in_desc.elems();
        for (std::size_t i = 0; i < n; ++i) {
            float v = in.load(i);
            for (const MapStep &step : st.steps)
                v = applyStep(step, v);
            dst.store(i, v);
        }
        break;
      }
      case StageOp::Cast: {
        const std::size_t n = in_desc.elems();
        for (std::size_t i = 0; i < n; ++i)
            dst.store(i, in.load(i));
        break;
      }
      case StageOp::Transpose2D: {
        const std::size_t rank = in_desc.shape.size();
        const std::size_t r = in_desc.shape[rank - 2];
        const std::size_t c = in_desc.shape[rank - 1];
        const std::size_t outer = in_desc.elems() / (r * c);
        for (std::size_t o = 0; o < outer; ++o)
            for (std::size_t y = 0; y < r; ++y)
                for (std::size_t x = 0; x < c; ++x)
                    dst.store(o * r * c + x * r + y,
                              in.load(o * r * c + y * c + x));
        break;
      }
      case StageOp::MatVec: {
        const std::size_t rows = in_desc.rows();
        const std::size_t cols = st.mat_cols;
        const std::vector<float> &w = *st.weights;
        for (std::size_t row = 0; row < rows; ++row) {
            for (std::size_t m = 0; m < st.mat_rows; ++m) {
                float acc = 0.0f;
                for (std::size_t k = 0; k < cols; ++k) {
                    acc += w[m * cols + k] * in.load(row * cols + k);
                    tracer->read(0x080000000ull + (m * cols + k) * 4, 4);
                }
                dst.store(row * st.mat_rows + m, acc);
            }
        }
        break;
      }
      case StageOp::Gather: {
        const std::vector<std::uint32_t> &idx = *st.indices;
        for (std::size_t i = 0; i < idx.size(); ++i)
            dst.store(i, in.load(idx[i]));
        break;
      }
      case StageOp::Magnitude: {
        const std::size_t n = out_desc.elems();
        for (std::size_t i = 0; i < n; ++i) {
            const float re = in.load(2 * i);
            const float im = in.load(2 * i + 1);
            dst.store(i, std::sqrt(re * re + im * im));
        }
        break;
      }
      case StageOp::Reduce: {
        const std::size_t rows = in_desc.rows();
        const std::size_t cols = in_desc.inner();
        for (std::size_t row = 0; row < rows; ++row) {
            float acc = 0.0f;
            for (std::size_t k = 0; k < cols; ++k)
                acc += in.load(row * cols + k);
            dst.store(row, acc);
        }
        break;
      }
      case StageOp::Pad: {
        const std::size_t rows = in_desc.rows();
        const std::size_t cols = in_desc.inner();
        for (std::size_t row = 0; row < rows; ++row) {
            for (std::size_t k = 0; k < st.pad_to; ++k) {
                const float v = k < cols ? in.load(row * cols + k)
                                         : st.pad_value;
                dst.store(row * st.pad_to + k, v);
            }
        }
        break;
      }
    }
}

// The typed stage loops below apply the same float operations to each
// element, in the same order, as runTraced: only the dispatch moves out
// of the element loop, and Map and MatVec interleave independent
// elements or outputs.

/// Elements a Map or Cast stage widens at a time: each Map step then
/// runs as one dense loop over the chunk, its MapFn dispatch hoisted.
constexpr std::size_t chunk_elems = 256;

/**
 * Map and Cast: widen the @p n elements of type @p from chunk by chunk,
 * apply each of @p steps (none for a Cast), narrow to type @p to.
 */
void
runElementwise(const std::vector<MapStep> &steps, DType from, DType to,
               std::size_t n, const std::uint8_t *src, std::uint8_t *dst)
{
    const std::size_t in_esz = dtypeSize(from);
    const std::size_t out_esz = dtypeSize(to);
    float v[chunk_elems];
    for (std::size_t at = 0; at < n; at += chunk_elems) {
        const std::size_t len = std::min(chunk_elems, n - at);
        loadRun(src + at * in_esz, from, v, len);
        for (const MapStep &step : steps) {
            visitMapFn(step.fn, [&](auto f) {
                for (std::size_t e = 0; e < len; ++e)
                    v[e] = mapFn<f.value>(v[e], step.arg);
            });
        }
        storeRun(dst + at * out_esz, to, v, len);
    }
}

template <DType T>
void
runTranspose(std::size_t outer, std::size_t r, std::size_t c,
             const std::uint8_t *src, std::uint8_t *dst)
{
    constexpr std::size_t esz = dtype_bytes<T>;
    for (std::size_t o = 0; o < outer; ++o)
        for (std::size_t y = 0; y < r; ++y)
            for (std::size_t x = 0; x < c; ++x)
                storeAs<T>(dst + (o * r * c + x * r + y) * esz,
                           loadAs<T>(src + (o * r * c + y * c + x) * esz));
}

void
runMatVec(const Stage &st, DType dtype, std::size_t rows,
          const std::uint8_t *src, std::uint8_t *dst)
{
    // Outputs computed at once: each has its own accumulator, which
    // still sums k = 0..cols-1 in order, so the independent chains only
    // overlap in the pipeline (and in SIMD lanes).
    constexpr std::size_t width = 8;
    const std::size_t cols = st.mat_cols;
    const std::size_t outs = st.mat_rows;
    const std::size_t blocks = outs / width;
    const float *w = st.weights->data();
    // Each block's weights k-major: the block's products for one k sit
    // side by side, so its accumulators advance as one vector.
    std::vector<float> wk(blocks * cols * width);
    for (std::size_t b = 0; b < blocks; ++b)
        for (std::size_t k = 0; k < cols; ++k)
            for (std::size_t j = 0; j < width; ++j)
                wk[(b * cols + k) * width + j] =
                    w[(b * width + j) * cols + k];
    std::vector<float> x(cols);
    for (std::size_t row = 0; row < rows; ++row) {
        loadRun(src + row * cols * dtypeSize(dtype), dtype, x.data(), cols);
        std::uint8_t *y = dst + row * outs * 4;
        for (std::size_t b = 0; b < blocks; ++b) {
            float acc[width] = {};
            const float *wb = wk.data() + b * cols * width;
            for (std::size_t k = 0; k < cols; ++k)
                for (std::size_t j = 0; j < width; ++j)
                    acc[j] += wb[k * width + j] * x[k];
            storeRun(y + b * width * 4, DType::F32, acc, width);
        }
        for (std::size_t m = blocks * width; m < outs; ++m) {
            float acc = 0.0f;
            for (std::size_t k = 0; k < cols; ++k)
                acc += w[m * cols + k] * x[k];
            storeAs<DType::F32>(y + m * 4, acc);
        }
    }
}

template <DType T>
void
runGather(const std::vector<std::uint32_t> &idx, const std::uint8_t *src,
          std::uint8_t *dst)
{
    constexpr std::size_t esz = dtype_bytes<T>;
    for (std::size_t i = 0; i < idx.size(); ++i)
        storeAs<T>(dst + i * esz,
                   loadAs<T>(src + static_cast<std::size_t>(idx[i]) * esz));
}

template <DType T>
void
runMagnitude(std::size_t n, const std::uint8_t *src, std::uint8_t *dst)
{
    constexpr std::size_t esz = dtype_bytes<T>;
    for (std::size_t i = 0; i < n; ++i) {
        const float re = loadAs<T>(src + 2 * i * esz);
        const float im = loadAs<T>(src + (2 * i + 1) * esz);
        storeAs<DType::F32>(dst + i * 4, std::sqrt(re * re + im * im));
    }
}

template <DType T>
void
runReduce(std::size_t rows, std::size_t cols, const std::uint8_t *src,
          std::uint8_t *dst)
{
    constexpr std::size_t esz = dtype_bytes<T>;
    for (std::size_t row = 0; row < rows; ++row) {
        float acc = 0.0f;
        for (std::size_t k = 0; k < cols; ++k)
            acc += loadAs<T>(src + (row * cols + k) * esz);
        storeAs<DType::F32>(dst + row * 4, acc);
    }
}

template <DType T>
void
runPad(std::size_t rows, std::size_t cols, const Stage &st,
       const std::uint8_t *src, std::uint8_t *dst)
{
    constexpr std::size_t esz = dtype_bytes<T>;
    for (std::size_t row = 0; row < rows; ++row) {
        std::uint8_t *out = dst + row * st.pad_to * esz;
        for (std::size_t k = 0; k < cols; ++k)
            storeAs<T>(out + k * esz, loadAs<T>(src + (row * cols + k) * esz));
        for (std::size_t k = cols; k < st.pad_to; ++k)
            storeAs<T>(out + k * esz, st.pad_value);
    }
}

/**
 * Run stage @p st with the dtype dispatch hoisted out of the element
 * loop. Map, Cast and MatVec convert contiguous runs with the run
 * forms; the other stages keep their input dtype (Magnitude and Reduce
 * produce F32) and run one typed loop each.
 */
void
runTyped(const Stage &st, const BufferDesc &in_desc,
         const BufferDesc &out_desc, const Bytes &cur, Bytes &out)
{
    const std::uint8_t *src = cur.data();
    std::uint8_t *dst = out.data();
    const DType t = in_desc.dtype;
    switch (st.op) {
      case StageOp::Map:
      case StageOp::Cast:
        runElementwise(st.steps, t, out_desc.dtype, in_desc.elems(), src,
                       dst);
        return;
      case StageOp::Transpose2D: {
        const std::size_t rank = in_desc.shape.size();
        const std::size_t r = in_desc.shape[rank - 2];
        const std::size_t c = in_desc.shape[rank - 1];
        visitDType(t, [&](auto in) {
            runTranspose<in.value>(in_desc.elems() / (r * c), r, c, src,
                                   dst);
        });
        return;
      }
      case StageOp::MatVec:
        runMatVec(st, t, in_desc.rows(), src, dst);
        return;
      case StageOp::Gather:
        visitDType(t, [&](auto in) {
            runGather<in.value>(*st.indices, src, dst);
        });
        return;
      case StageOp::Magnitude:
        visitDType(t, [&](auto in) {
            runMagnitude<in.value>(out_desc.elems(), src, dst);
        });
        return;
      case StageOp::Reduce:
        visitDType(t, [&](auto in) {
            runReduce<in.value>(in_desc.rows(), in_desc.inner(), src, dst);
        });
        return;
      case StageOp::Pad:
        visitDType(t, [&](auto in) {
            runPad<in.value>(in_desc.rows(), in_desc.inner(), st, src, dst);
        });
        return;
    }
}

/**
 * Charge stage @p st to @p total.
 * @return its rough instruction count for MemTracer::retire(): load +
 * compute + store + loop bookkeeping per element
 */
std::uint64_t
chargeStage(const Stage &st, const BufferDesc &in_desc,
            const BufferDesc &out_desc, kernels::OpCount &total)
{
    switch (st.op) {
      case StageOp::Map: {
        const std::size_t n = in_desc.elems();
        total.flops += n * st.steps.size();
        return n * (4 + st.steps.size());
      }
      case StageOp::Cast:
        total.int_ops += in_desc.elems();
        return in_desc.elems() * 4;
      case StageOp::Transpose2D:
        total.int_ops += in_desc.elems() * 2;
        return in_desc.elems() * 6;
      case StageOp::MatVec: {
        const std::size_t rows = in_desc.rows();
        total.flops += 2ull * rows * st.mat_rows * st.mat_cols;
        return rows * st.mat_rows * st.mat_cols * 3;
      }
      case StageOp::Gather: {
        const std::size_t n = st.indices->size();
        total.int_ops += n * 4;
        // Fancy indexing streams the index table as well as the data
        // (numpy/MKL gather semantics).
        total.bytes_read += n * 4;
        return n * 5;
      }
      case StageOp::Magnitude:
        total.flops += out_desc.elems() * 4;
        return out_desc.elems() * 7;
      case StageOp::Reduce: {
        const std::size_t n = in_desc.rows() * in_desc.inner();
        total.flops += n;
        return n * 2;
      }
      case StageOp::Pad: {
        const std::size_t n = in_desc.rows() * st.pad_to;
        total.int_ops += n;
        return n * 4;
      }
    }
    dmx_panic("chargeStage: bad StageOp");
}

} // namespace

Bytes
executeOnCpu(const Kernel &kernel, const Bytes &input,
             kernels::OpCount *ops, MemTracer *tracer)
{
    if (input.size() != kernel.input.bytes())
        dmx_fatal("executeOnCpu('%s'): input is %zu bytes, expected %zu",
                  kernel.name.c_str(), input.size(), kernel.input.bytes());
    if (kernel.stages.empty())
        return input;

    const std::vector<BufferDesc> descs = kernel.stageDescs();
    const Bytes *in = &input;
    Bytes cur;
    kernels::OpCount total;

    for (std::size_t si = 0; si < kernel.stages.size(); ++si) {
        const Stage &st = kernel.stages[si];
        const BufferDesc &in_desc = descs[si];
        const BufferDesc &out_desc = descs[si + 1];
        Bytes out(out_desc.bytes());

        if (tracer)
            runTraced(st, in_desc, out_desc, *in, out, si, tracer);
        else
            runTyped(st, in_desc, out_desc, *in, out);

        const std::uint64_t instr = chargeStage(st, in_desc, out_desc, total);
        if (tracer)
            tracer->retire(instr, 160); // tight loop body, in bytes
        total.bytes_read += in->size();
        total.bytes_written += out.size();

        cur = std::move(out);
        in = &cur;
    }

    if (ops)
        *ops += total;
    return cur;
}

} // namespace dmx::restructure
