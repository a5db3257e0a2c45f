#include "core/codebook.hpp"

#include <cmath>

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
