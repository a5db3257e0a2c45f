#include "core/codebook.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <optional>

#include "common/logging.hpp"

namespace mvq::core {

float
quantizeValue(float v, float scale, int qbits)
{
    const float qmax = static_cast<float>((1 << (qbits - 1)) - 1);
    const float qmin = -static_cast<float>(1 << (qbits - 1));
    float q = std::round(v / scale);
    q = std::min(std::max(q, qmin), qmax);
    return dequantizeLevel(static_cast<std::int64_t>(q), scale);
}

namespace {

/**
 * The level in [lo, hi] that dequantizeLevel decodes to exactly `v`, if
 * there is one. The rounded quotient v / scale is that level up to 2^24;
 * past it a float holds only every 2nd, 4th, ... integer, so the level
 * may sit one float step away, and the top level may round up to
 * 2^(qbits-1) itself: the neighbours of the quotient's float are tried
 * too, clamped into range.
 */
std::optional<std::int64_t>
gridLevel(float v, float scale, std::int64_t lo, std::int64_t hi)
{
    const double q =
        std::round(static_cast<double>(v) / static_cast<double>(scale));
    // Also rejects NaN, and keeps the integer conversion defined.
    if (!(q >= 2.0 * static_cast<double>(lo) - 2.0
          && q <= 2.0 * static_cast<double>(hi) + 2.0))
        return std::nullopt;
    const auto c = static_cast<std::int64_t>(q);
    const float f = static_cast<float>(c);
    const float inf = std::numeric_limits<float>::infinity();
    for (const std::int64_t cand :
         {c, c - 1, c + 1,
          static_cast<std::int64_t>(std::nextafter(f, -inf)),
          static_cast<std::int64_t>(std::nextafter(f, inf))}) {
        const std::int64_t level = std::clamp(cand, lo, hi);
        if (dequantizeLevel(level, scale) == v)
            return level;
    }
    return std::nullopt;
}

double
quantMse(const Tensor &cw, float scale, int qbits)
{
    double err = 0.0;
    for (std::int64_t i = 0; i < cw.numel(); ++i) {
        const double d = static_cast<double>(cw[i])
            - static_cast<double>(quantizeValue(cw[i], scale, qbits));
        err += d * d;
    }
    return err;
}

} // namespace

std::pair<std::int64_t, std::int64_t>
levelRange(int qbits)
{
    const std::int64_t half = std::int64_t{1} << (qbits - 1);
    return {-half, half - 1};
}

std::vector<std::int32_t>
encodeLevels(const Codebook &cb, std::size_t id)
{
    fatalIf(cb.qbits < 1 || cb.qbits > 32, "codebook ", id,
            " has invalid qbits ", cb.qbits);
    fatalIf(!std::isfinite(cb.scale) || cb.scale <= 0.0f, "codebook ", id,
            " is quantized (qbits ", cb.qbits, ") with scale ", cb.scale,
            "; its levels need a finite scale > 0");
    const auto [lo, hi] = levelRange(cb.qbits);
    const float *cw = cb.codewords.data();
    std::vector<std::int32_t> levels(
        static_cast<std::size_t>(cb.codewords.numel()));
    for (std::size_t i = 0; i < levels.size(); ++i) {
        const std::optional<std::int64_t> level =
            gridLevel(cw[i], cb.scale, lo, hi);
        if (!level)
            fatal("codebook ", id, ": codeword ", i, " = ", cw[i],
                  " is not on its ", cb.qbits, "-bit grid of step ",
                  cb.scale, " (snap it with requantizeCodebook)");
        levels[i] = static_cast<std::int32_t>(*level);
    }
    return levels;
}

float
quantizeCodebook(Codebook &cb, int qbits)
{
    fatalIf(qbits < 2 || qbits > 16, "unsupported codebook bit-width ",
            qbits);
    const float absmax = cb.codewords.absMax();
    if (absmax == 0.0f) {
        cb.scale = 1.0f;
        cb.qbits = qbits;
        return cb.scale;
    }

    const float qmax = static_cast<float>((1 << (qbits - 1)) - 1);
    const float base = absmax / qmax;

    // Geometric grid around the absmax-derived scale; the MSE in the scale
    // is piecewise-smooth and unimodal in practice, a fine grid suffices.
    float best_scale = base;
    double best_err = quantMse(cb.codewords, base, qbits);
    for (int i = 1; i <= 40; ++i) {
        const float s = base * (1.0f - 0.02f * static_cast<float>(i));
        if (s <= 0.0f)
            break;
        const double err = quantMse(cb.codewords, s, qbits);
        if (err < best_err) {
            best_err = err;
            best_scale = s;
        }
    }

    cb.scale = best_scale;
    cb.qbits = qbits;
    requantizeCodebook(cb);
    return cb.scale;
}

void
requantizeCodebook(Codebook &cb)
{
    if (cb.qbits <= 0)
        return;
    panicIf(cb.scale <= 0.0f, "requantize with non-positive scale");
    for (std::int64_t i = 0; i < cb.codewords.numel(); ++i)
        cb.codewords[i] = quantizeValue(cb.codewords[i], cb.scale, cb.qbits);
}

} // namespace mvq::core
