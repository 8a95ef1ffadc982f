#include "common/dtype.hh"

#include <cfloat>

#include "common/logging.hh"

namespace dmx
{

namespace
{

// The run form rounds by magic addition, which is exact only when float
// expressions are evaluated in float precision (not x87 extended).
static_assert(FLT_EVAL_METHOD == 0,
              "storeRun's rounding needs float evaluation in float");

/**
 * storeAs<U8> over a run: branch-free, with no libm call, so the loop
 * vectorizes. Adding 2^23 to a float in [0, 2^23) leaves no fraction
 * bits, so the addition rounds it to an integer, ties to even like
 * nearbyintf, and subtracting 2^23 again is exact. A value outside that
 * range lies far outside [0, 255] and still lands on the right side of
 * the clamp, because float addition is monotone. NaN narrows to 0.
 */
void
narrowU8Run(std::uint8_t *dst, const float *in, std::size_t n)
{
    constexpr float magic = 0x1p23f;
    for (std::size_t e = 0; e < n; ++e) {
        const float v = in[e];
        float r = (v + magic) - magic;
        r = r < 0.0f ? 0.0f : r;
        r = r > 255.0f ? 255.0f : r;
        r = v == v ? r : 0.0f;
        dst[e] = static_cast<std::uint8_t>(static_cast<std::int32_t>(r));
    }
}

} // namespace

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
    if (t == DType::U8) {
        narrowU8Run(dst, in, n);
        return;
    }
    visitDType(t, [=](auto c) {
        constexpr std::size_t esz = dtype_bytes<c.value>;
        for (std::size_t e = 0; e < n; ++e)
            storeAs<c.value>(dst + e * esz, in[e]);
    });
}

} // namespace dmx
