#include "restructure/ir.hh"

#include "common/logging.hh"

namespace dmx::restructure
{

std::size_t
BufferDesc::elems() const
{
    std::size_t n = 1;
    for (std::size_t d : shape)
        n *= d;
    return shape.empty() ? 0 : n;
}

std::size_t
BufferDesc::inner() const
{
    if (shape.empty())
        dmx_fatal("BufferDesc::inner: rank-0 buffer");
    return shape.back();
}

std::size_t
BufferDesc::rows() const
{
    if (shape.empty())
        return 0;
    std::size_t n = 1;
    for (std::size_t i = 0; i + 1 < shape.size(); ++i)
        n *= shape[i];
    return n;
}

namespace
{

/**
 * Apply stage @p i of @p k to @p desc: the shape and type after it.
 * @throws via fatal on shape/type inconsistencies
 */
void
inferStage(const Kernel &k, std::size_t i, BufferDesc &desc)
{
    const Stage &st = k.stages[i];
    switch (st.op) {
      case StageOp::Map:
        if (st.steps.empty())
            dmx_fatal("Kernel '%s' stage %zu: empty Map", k.name.c_str(),
                      i);
        break;
      case StageOp::Cast:
        desc.dtype = st.to;
        break;
      case StageOp::Transpose2D: {
        if (desc.shape.size() < 2)
            dmx_fatal("Kernel '%s' stage %zu: Transpose2D needs rank>=2",
                      k.name.c_str(), i);
        std::swap(desc.shape[desc.shape.size() - 1],
                  desc.shape[desc.shape.size() - 2]);
        break;
      }
      case StageOp::MatVec:
        if (!st.weights || st.weights->size() != st.mat_rows * st.mat_cols)
            dmx_fatal("Kernel '%s' stage %zu: bad MatVec weights",
                      k.name.c_str(), i);
        if (desc.inner() != st.mat_cols)
            dmx_fatal("Kernel '%s' stage %zu: MatVec cols %zu != inner %zu",
                      k.name.c_str(), i, st.mat_cols, desc.inner());
        desc.shape.back() = st.mat_rows;
        desc.dtype = DType::F32;
        break;
      case StageOp::Gather: {
        if (!st.indices || st.out_shape.empty())
            dmx_fatal("Kernel '%s' stage %zu: bad Gather", k.name.c_str(),
                      i);
        std::size_t out_elems = 1;
        for (std::size_t d : st.out_shape)
            out_elems *= d;
        if (st.indices->size() != out_elems)
            dmx_fatal("Kernel '%s' stage %zu: Gather index count %zu != "
                      "out elems %zu",
                      k.name.c_str(), i, st.indices->size(), out_elems);
        const std::size_t in_elems = desc.elems();
        for (std::uint32_t idx : *st.indices) {
            if (idx >= in_elems)
                dmx_fatal("Kernel '%s' stage %zu: Gather index %u out of "
                          "range %zu",
                          k.name.c_str(), i, idx, in_elems);
        }
        desc.shape = st.out_shape;
        break;
      }
      case StageOp::Magnitude:
        if (desc.inner() % 2 != 0)
            dmx_fatal("Kernel '%s' stage %zu: Magnitude needs even inner "
                      "dim",
                      k.name.c_str(), i);
        desc.shape.back() = desc.inner() / 2;
        desc.dtype = DType::F32;
        break;
      case StageOp::Reduce:
        desc.shape.back() = 1;
        desc.dtype = DType::F32;
        break;
      case StageOp::Pad:
        if (st.pad_to < desc.inner())
            dmx_fatal("Kernel '%s' stage %zu: Pad %zu below inner %zu",
                      k.name.c_str(), i, st.pad_to, desc.inner());
        desc.shape.back() = st.pad_to;
        break;
    }
}

} // namespace

BufferDesc
Kernel::descAfter(std::size_t upto) const
{
    if (upto > stages.size())
        dmx_fatal("Kernel '%s': descAfter(%zu) beyond %zu stages",
                  name.c_str(), upto, stages.size());
    BufferDesc desc = input;
    for (std::size_t i = 0; i < upto; ++i)
        inferStage(*this, i, desc);
    return desc;
}

std::vector<BufferDesc>
Kernel::stageDescs() const
{
    std::vector<BufferDesc> descs;
    descs.reserve(stages.size() + 1);
    descs.push_back(input);
    for (std::size_t i = 0; i < stages.size(); ++i) {
        descs.push_back(descs.back());
        inferStage(*this, i, descs.back());
    }
    return descs;
}

Stage
mapStage(std::vector<MapStep> steps)
{
    Stage s;
    s.op = StageOp::Map;
    s.steps = std::move(steps);
    return s;
}

Stage
castStage(DType to)
{
    Stage s;
    s.op = StageOp::Cast;
    s.to = to;
    return s;
}

Stage
transposeStage()
{
    Stage s;
    s.op = StageOp::Transpose2D;
    return s;
}

Stage
matVecStage(std::size_t rows, std::size_t cols,
            std::shared_ptr<const std::vector<float>> weights)
{
    Stage s;
    s.op = StageOp::MatVec;
    s.mat_rows = rows;
    s.mat_cols = cols;
    s.weights = std::move(weights);
    return s;
}

Stage
gatherStage(std::shared_ptr<const std::vector<std::uint32_t>> idx,
            std::vector<std::size_t> out_shape)
{
    Stage s;
    s.op = StageOp::Gather;
    s.indices = std::move(idx);
    s.out_shape = std::move(out_shape);
    return s;
}

Stage
magnitudeStage()
{
    Stage s;
    s.op = StageOp::Magnitude;
    return s;
}

Stage
reduceStage()
{
    Stage s;
    s.op = StageOp::Reduce;
    return s;
}

Stage
padStage(std::size_t pad_to, float value)
{
    Stage s;
    s.op = StageOp::Pad;
    s.pad_to = pad_to;
    s.pad_value = value;
    return s;
}

} // namespace dmx::restructure
