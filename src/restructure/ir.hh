/**
 * @file
 * Intermediate representation of data-restructuring kernels.
 *
 * A restructuring kernel is a short pipeline of Stages applied to a
 * typed, shaped buffer as it moves between two accelerators: element
 * type conversion, arithmetic normalization, layout transformation
 * (transpose / gather), spectral binning (matrix-vector against constant
 * filter banks), padding and reduction. The same IR has
 *   - a scalar CPU reference executor (cpu_exec.hh) used as ground truth
 *     and for host-side characterization, and
 *   - a DRX compiler (drx/compiler.hh) that lowers it to DRX programs.
 */

#ifndef DMX_RESTRUCTURE_IR_HH
#define DMX_RESTRUCTURE_IR_HH

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/dtype.hh"

namespace dmx::restructure
{

/** Flat byte buffer holding typed elements. */
using Bytes = std::vector<std::uint8_t>;

/** Shape + element type of a buffer. */
struct BufferDesc
{
    DType dtype = DType::F32;
    std::vector<std::size_t> shape;

    /** @return number of elements. */
    std::size_t elems() const;

    /** @return total bytes. */
    std::size_t bytes() const { return elems() * dtypeSize(dtype); }

    /** @return the last (innermost) dimension. */
    std::size_t inner() const;

    /** @return product of all dimensions except the last. */
    std::size_t rows() const;
};

/** Elementwise primitive applied by a Map stage. */
enum class MapFn : std::uint8_t
{
    Scale,    ///< x * arg
    Offset,   ///< x + arg
    Abs,      ///< |x|
    Sqrt,     ///< sqrt(max(x, 0))
    Log1p,    ///< log(1 + max(x, 0))
    Exp,      ///< exp(x)
    ClampMin, ///< max(x, arg)
    ClampMax, ///< min(x, arg)
};

/** One step of a Map chain. */
struct MapStep
{
    MapFn fn;
    float arg = 0.0f;
};

/** Stage kinds (see the file header). */
enum class StageOp : std::uint8_t
{
    Map,         ///< elementwise chain, dtype preserved
    Cast,        ///< convert element type (values preserved)
    Transpose2D, ///< swap the last two dimensions
    MatVec,      ///< rows x inner -> rows x mat_rows against weights
    Gather,      ///< out[i] = in[indices[i]], arbitrary layout transform
    Magnitude,   ///< interleaved (re,im) pairs -> magnitudes, inner/2
    Reduce,      ///< sum over the innermost dimension
    Pad,         ///< widen the innermost dimension with a constant
};

/** One pipeline stage. */
struct Stage
{
    StageOp op = StageOp::Map;

    // Map
    std::vector<MapStep> steps;

    // Cast
    DType to = DType::F32;

    // MatVec: weights are mat_rows x mat_cols, row-major, constant.
    std::size_t mat_rows = 0;
    std::size_t mat_cols = 0;
    std::shared_ptr<const std::vector<float>> weights;

    // Gather: flat element indices into the stage input; out_shape is
    // the resulting shape.
    std::shared_ptr<const std::vector<std::uint32_t>> indices;
    std::vector<std::size_t> out_shape;

    // Pad
    std::size_t pad_to = 0;
    float pad_value = 0.0f;
};

/** A complete restructuring kernel. */
struct Kernel
{
    std::string name;
    BufferDesc input;
    std::vector<Stage> stages;

    /**
     * Infer the buffer descriptor after @p upto stages.
     * @param upto number of stages applied (defaults to all)
     * @throws via fatal on shape/type inconsistencies
     */
    BufferDesc descAfter(std::size_t upto) const;

    /**
     * Infer every stage's descriptor in one pass: element i equals
     * descAfter(i), for i = 0 (the input) up to stages.size() (the
     * output). Each Gather index is validated once.
     * @throws via fatal on shape/type inconsistencies
     */
    std::vector<BufferDesc> stageDescs() const;

    /** @return descriptor of the kernel output. */
    BufferDesc output() const { return descAfter(stages.size()); }
};

/** Convenience builders for the Stage variants. */
Stage mapStage(std::vector<MapStep> steps);
Stage castStage(DType to);
Stage transposeStage();
Stage matVecStage(std::size_t rows, std::size_t cols,
                  std::shared_ptr<const std::vector<float>> weights);
Stage gatherStage(std::shared_ptr<const std::vector<std::uint32_t>> idx,
                  std::vector<std::size_t> out_shape);
Stage magnitudeStage();
Stage reduceStage();
Stage padStage(std::size_t pad_to, float value);

} // namespace dmx::restructure

#endif // DMX_RESTRUCTURE_IR_HH
