#include "common/dtype.hh"

#include "common/logging.hh"

namespace dmx
{

std::size_t
dtypeSize(DType t)
{
    return visitDType(t, [](auto c) { return dtype_bytes<c.value>; });
}

std::string
dtypeName(DType t)
{
    switch (t) {
      case DType::F32: return "f32";
      case DType::F16: return "f16";
      case DType::I32: return "i32";
      case DType::I16: return "i16";
      case DType::I8:  return "i8";
      case DType::U8:  return "u8";
    }
    return "?";
}

void
badDType(const char *where)
{
    dmx_panic("%s: bad dtype", where);
}

float
loadAsFloat(const std::uint8_t *src, DType t)
{
    return visitDType(t, [src](auto c) { return loadAs<c.value>(src); });
}

void
storeFromFloat(std::uint8_t *dst, DType t, float v)
{
    visitDType(t, [dst, v](auto c) { storeAs<c.value>(dst, v); });
}

void
loadRun(const std::uint8_t *src, DType t, float *out, std::size_t n)
{
    if (t == DType::F32) {
        // loadAs<F32> is a 4-byte copy; one bulk copy is bit-identical.
        std::memcpy(out, src, n * 4);
        return;
    }
    visitDType(t, [=](auto c) {
        constexpr std::size_t esz = dtype_bytes<c.value>;
        for (std::size_t e = 0; e < n; ++e)
            out[e] = loadAs<c.value>(src + e * esz);
    });
}

void
storeRun(std::uint8_t *dst, DType t, const float *in, std::size_t n)
{
    if (t == DType::F32) {
        std::memcpy(dst, in, n * 4);
        return;
    }
    visitDType(t, [=](auto c) {
        constexpr std::size_t esz = dtype_bytes<c.value>;
        for (std::size_t e = 0; e < n; ++e)
            storeAs<c.value>(dst + e * esz, in[e]);
    });
}

} // namespace dmx
