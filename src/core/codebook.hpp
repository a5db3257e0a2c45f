/**
 * @file
 * Codebook container plus symmetric fixed-point quantization (paper
 * Section 4.5, Eq. 5). One scale is shared per codebook; the scale is
 * fitted by minimizing quantization MSE over a search grid, standing in
 * for the LSQ-learned step size of the paper.
 */

#ifndef MVQ_CORE_CODEBOOK_HPP
#define MVQ_CORE_CODEBOOK_HPP

#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "tensor/tensor.hpp"

namespace mvq::core {

/** A set of k codewords of length d, optionally quantized. */
struct Codebook
{
    Tensor codewords;  //!< [k, d], always the dequantized (usable) values
    float scale = 0.0f; //!< quantization step; 0 when unquantized
    int qbits = 0;      //!< quantization bit-width; 0 when unquantized

    std::int64_t k() const { return codewords.dim(0); }
    std::int64_t d() const { return codewords.dim(1); }

    /** Storage cost b_c in bits: k * d * (qbits or 32). */
    std::int64_t
    storageBits() const
    {
        return codewords.numel() * (qbits > 0 ? qbits : 32);
    }
};

/**
 * The one decode of a quantized codeword: its signed level times the
 * codebook's scale. quantizeValue, the `.mvq` stream reader and the MVQI
 * reader all call it, so a codeword snapped by one decodes to the same
 * float bits through the others.
 */
inline float
dequantizeLevel(std::int64_t level, float scale)
{
    return static_cast<float>(level) * scale;
}

/** Smallest and largest signed level a qbits-bit codeword holds. */
std::pair<std::int64_t, std::int64_t> levelRange(int qbits);

/**
 * The one level encoder, shared by the `.mvq` stream writer and the MVQI
 * writer: every codeword of a quantized codebook (qbits != 0) as the
 * level in levelRange(qbits) that dequantizeLevel decodes back to it
 * exactly, so a written codebook loses nothing. FatalError naming
 * codebook `id` when qbits is outside [1, 32], the scale is not finite
 * and > 0, or a codeword has no such level (off its grid, or past the
 * top level; requantizeCodebook snaps it).
 */
std::vector<std::int32_t> encodeLevels(const Codebook &cb, std::size_t id);

/**
 * Symmetric uniform quantization of v with scale s and qb bits:
 * round(v / s) clamped to [-2^(qb-1), 2^(qb-1)-1], times s.
 */
float quantizeValue(float v, float scale, int qbits);

/**
 * Fit the shared scale minimizing the MSE of quantizing all codewords,
 * then snap every codeword to its quantized value in place.
 *
 * The scale search evaluates a geometric grid around absmax / qmax, which
 * converges to the same optimum LSQ reaches for symmetric uniform grids.
 *
 * @return The fitted scale.
 */
float quantizeCodebook(Codebook &cb, int qbits);

/** Re-snap codewords to the existing (scale, qbits) grid after an update. */
void requantizeCodebook(Codebook &cb);

} // namespace mvq::core

#endif // MVQ_CORE_CODEBOOK_HPP
