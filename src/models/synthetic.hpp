/**
 * @file
 * Synthetic compressed models for full layer geometry. The paper's
 * hardware results depend on layer shapes, the N:M pattern and the
 * codebook size, not on trained weight values, so benches and tests that
 * need a whole compressed network draw its symbols from a seed over a
 * models::ModelSpec instead of clustering real weights.
 */

#ifndef MVQ_MODELS_SYNTHETIC_HPP
#define MVQ_MODELS_SYNTHETIC_HPP

#include <cstdint>

#include "core/compressed_layer.hpp"
#include "core/io/mvqi_format.hpp"
#include "models/layer_spec.hpp"

namespace mvq::models {

/**
 * One CompressedLayer per conv of `spec` (d = 16, output-channel-wise
 * grouping, weight shape [out_c, in_c/groups, kernel, kernel], dense_flops
 * = 2 * macs) over one shared k x 16 int8 codebook (qbits 8, scale 1/64,
 * codewords intIn(-127, 127) * scale). Per subvector one assignment in
 * [0, k) is drawn, then d/M mask codes, from one Rng(seed) stream; at
 * 4:16 and k = 256 this is the draw order of the repo benchmark's own
 * synthesizer, so the images agree byte for byte.
 *
 * When `opts` is given, each conv's `groups` is recorded in
 * opts->layer_groups so the MVQI image bakes the operands the conv uses.
 * FatalError on a conv whose weight count is not a multiple of 16, on
 * k < 1, or on a pattern whose M does not divide 16.
 */
core::CompressedModel synthesizeCompressed(
    const ModelSpec &spec, core::NmPattern pattern, std::int64_t k,
    std::uint64_t seed, core::io::MvqiWriteOptions *opts = nullptr);

} // namespace mvq::models

#endif // MVQ_MODELS_SYNTHETIC_HPP
