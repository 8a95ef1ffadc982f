/**
 * @file
 * Element data types used by restructuring kernels and the DRX.
 *
 * Data restructuring between heterogeneous accelerators routinely
 * changes element types (the paper's "typecasting" operations), so the
 * type system is modelled for real: buffers hold genuinely converted
 * bytes, including IEEE-754 half precision.
 *
 * Each element conversion is written once, as the inline typed
 * converters loadAs<T>() / storeAs<T>(). Element loops pick the type
 * once with visitDType() and then run with inline typed access; the
 * runtime-typed loadAsFloat() / storeFromFloat() and the run forms
 * loadRun() / storeRun() are thin switches over the same converters.
 */

#ifndef DMX_COMMON_DTYPE_HH
#define DMX_COMMON_DTYPE_HH

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <string>
#include <type_traits>

namespace dmx
{

/** Supported element types. */
enum class DType : std::uint8_t { F32, F16, I32, I16, I8, U8 };

/** @return element size in bytes. */
std::size_t dtypeSize(DType t);

/** @return human name, e.g. "f16". */
std::string dtypeName(DType t);

/** IEEE-754 binary16 encode (round-to-nearest-even, with saturation). */
inline std::uint16_t
floatToHalf(float v)
{
    std::uint32_t bits;
    std::memcpy(&bits, &v, 4);
    const std::uint16_t sign = static_cast<std::uint16_t>((bits >> 16) &
                                                          0x8000);
    const std::int32_t exp = static_cast<std::int32_t>((bits >> 23) &
                                                       0xff) - 127 + 15;
    std::uint32_t mant = bits & 0x7fffff;

    if (((bits >> 23) & 0xff) == 0xff) {
        // Inf / NaN.
        return static_cast<std::uint16_t>(sign | 0x7c00 |
                                          (mant ? 0x200 : 0));
    }
    if (exp >= 0x1f) {
        // Overflow: saturate to max finite half (65504).
        return static_cast<std::uint16_t>(sign | 0x7bff);
    }
    if (exp <= 0) {
        // Subnormal or underflow to zero.
        if (exp < -10)
            return sign;
        mant |= 0x800000;
        const int shift = 14 - exp;
        std::uint32_t half_mant = mant >> shift;
        // Round to nearest even.
        const std::uint32_t rem = mant & ((1u << shift) - 1);
        const std::uint32_t halfway = 1u << (shift - 1);
        if (rem > halfway || (rem == halfway && (half_mant & 1)))
            ++half_mant;
        return static_cast<std::uint16_t>(sign | half_mant);
    }
    // Normalized. Round mantissa from 23 to 10 bits, nearest even.
    std::uint32_t half_mant = mant >> 13;
    const std::uint32_t rem = mant & 0x1fff;
    if (rem > 0x1000 || (rem == 0x1000 && (half_mant & 1))) {
        ++half_mant;
        if (half_mant == 0x400) {
            half_mant = 0;
            if (exp + 1 >= 0x1f)
                return static_cast<std::uint16_t>(sign | 0x7bff);
            return static_cast<std::uint16_t>(
                sign | ((exp + 1) << 10));
        }
    }
    return static_cast<std::uint16_t>(sign | (exp << 10) | half_mant);
}

/** IEEE-754 binary16 decode. */
inline float
halfToFloat(std::uint16_t h)
{
    const std::uint32_t sign = (h & 0x8000u) << 16;
    const std::uint32_t exp = (h >> 10) & 0x1f;
    const std::uint32_t mant = h & 0x3ff;
    std::uint32_t bits;
    if (exp == 0) {
        if (mant == 0) {
            bits = sign;
        } else {
            // Subnormal: normalize.
            int e = -1;
            std::uint32_t m = mant;
            do {
                ++e;
                m <<= 1;
            } while (!(m & 0x400));
            bits = sign | static_cast<std::uint32_t>(127 - 15 - e) << 23 |
                   ((m & 0x3ff) << 13);
        }
    } else if (exp == 0x1f) {
        bits = sign | 0x7f800000 | (mant << 13);
    } else {
        bits = sign | ((exp - 15 + 127) << 23) | (mant << 13);
    }
    float out;
    std::memcpy(&out, &bits, 4);
    return out;
}

/** Element size of @p T in bytes, as a constant expression. */
template <DType T>
inline constexpr std::size_t dtype_bytes =
    T == DType::F32 || T == DType::I32   ? 4
    : T == DType::F16 || T == DType::I16 ? 2
                                         : 1;

/**
 * Read one element of type @p T at @p src and widen it to float.
 * Integer types are read as their numeric value.
 */
template <DType T>
inline float
loadAs(const std::uint8_t *src)
{
    if constexpr (T == DType::F32) {
        float v;
        std::memcpy(&v, src, 4);
        return v;
    } else if constexpr (T == DType::F16) {
        std::uint16_t h;
        std::memcpy(&h, src, 2);
        return halfToFloat(h);
    } else if constexpr (T == DType::I32) {
        std::int32_t v;
        std::memcpy(&v, src, 4);
        return static_cast<float>(v);
    } else if constexpr (T == DType::I16) {
        std::int16_t v;
        std::memcpy(&v, src, 2);
        return static_cast<float>(v);
    } else if constexpr (T == DType::I8) {
        return static_cast<float>(static_cast<std::int8_t>(*src));
    } else {
        return static_cast<float>(*src);
    }
}

/**
 * Narrow @p v to type @p T and store it at @p dst.
 * Integer targets round to nearest (ties to even) and saturate at the
 * type bounds; NaN narrows to 0.
 */
template <DType T>
inline void
storeAs(std::uint8_t *dst, float v)
{
    if constexpr (T == DType::F32) {
        std::memcpy(dst, &v, 4);
    } else if constexpr (T == DType::F16) {
        const std::uint16_t h = floatToHalf(v);
        std::memcpy(dst, &h, 2);
    } else if (std::isnan(v)) {
        // Casting NaN to an integer is undefined behaviour.
        std::memset(dst, 0, dtype_bytes<T>);
    } else if constexpr (T == DType::I32) {
        const double r = std::nearbyint(static_cast<double>(v));
        const auto clamped = static_cast<std::int32_t>(
            std::clamp(r, -2147483648.0, 2147483647.0));
        std::memcpy(dst, &clamped, 4);
    } else if constexpr (T == DType::I16) {
        const auto clamped = static_cast<std::int16_t>(
            std::clamp(std::nearbyintf(v), -32768.0f, 32767.0f));
        std::memcpy(dst, &clamped, 2);
    } else if constexpr (T == DType::I8) {
        *dst = static_cast<std::uint8_t>(static_cast<std::int8_t>(
            std::clamp(std::nearbyintf(v), -128.0f, 127.0f)));
    } else {
        *dst = static_cast<std::uint8_t>(
            std::clamp(std::nearbyintf(v), 0.0f, 255.0f));
    }
}

/** Panic on a DType value outside the enum (never returns). */
[[noreturn]] void badDType(const char *where);

/**
 * The one runtime-to-compile-time dtype dispatch: call
 * @p f(std::integral_constant<DType, t>{}) and return its result, so
 * the callee can run a whole element loop with loadAs / storeAs of one
 * fixed type (read it as `c.value`).
 */
template <class F>
inline decltype(auto)
visitDType(DType t, F &&f)
{
    using D = DType;
    switch (t) {
      case D::F32: return f(std::integral_constant<D, D::F32>{});
      case D::F16: return f(std::integral_constant<D, D::F16>{});
      case D::I32: return f(std::integral_constant<D, D::I32>{});
      case D::I16: return f(std::integral_constant<D, D::I16>{});
      case D::I8:  return f(std::integral_constant<D, D::I8>{});
      case D::U8:  return f(std::integral_constant<D, D::U8>{});
    }
    badDType("visitDType");
}

/** loadAs for a runtime dtype @p t. */
float loadAsFloat(const std::uint8_t *src, DType t);

/** storeAs for a runtime dtype @p t. */
void storeFromFloat(std::uint8_t *dst, DType t, float v);

/** Widen the @p n contiguous elements of type @p t at @p src. */
void loadRun(const std::uint8_t *src, DType t, float *out, std::size_t n);

/**
 * Narrow @p n floats into contiguous elements of type @p t at @p dst,
 * byte for byte as storeAs would. U8 runs a branch-free form of
 * storeAs<U8> that vectorizes; storeAs itself keeps nearbyintf, through
 * which GCC folds a storeAs(loadAs(x)) move loop into a copy.
 */
void storeRun(std::uint8_t *dst, DType t, const float *in, std::size_t n);

} // namespace dmx

#endif // DMX_COMMON_DTYPE_HH
