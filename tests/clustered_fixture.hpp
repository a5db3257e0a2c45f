/**
 * @file
 * Shared test fixture: one 4:16, k=16 compressed layer built the real
 * way — a seeded random kernel is grouped, N:M-masked, clustered with
 * masked k-means and int8-quantized — for the tests that need actual
 * clustering output (mask round trips, packed operands, conv forwards).
 * Tests that only need symbols use models::synthesizeCompressed.
 */

#ifndef MVQ_TESTS_CLUSTERED_FIXTURE_HPP
#define MVQ_TESTS_CLUSTERED_FIXTURE_HPP

#include <cstdint>
#include <utility>

#include "core/compressed_layer.hpp"

namespace mvq {

struct ClusteredFixture
{
    Shape shape;
    core::MvqLayerConfig cfg;
    Tensor w4;
    core::Mask mask;
    core::KmeansResult km;
    core::CompressedLayer layer;
    core::Codebook cb;

    /**
     * concentrate=true scales every 16th block's first four output
     * channels up hard, so the magnitude mask keeps (nearly) the same
     * four channels at every column — realistic channel-norm spread taken
     * to the extreme, guaranteeing the pack produces multi-row buckets.
     */
    explicit ClusteredFixture(Shape s = Shape({32, 4, 3, 3}),
                              std::uint64_t seed = 131,
                              bool concentrate = false)
        : shape(std::move(s))
    {
        cfg.k = 16;
        cfg.d = 16;
        cfg.pattern = core::NmPattern{4, 16};
        cfg.codebook_bits = 8;

        Rng rng(seed);
        w4 = Tensor(shape);
        w4.fillNormal(rng, 0.0f, 1.0f);
        if (concentrate) {
            const std::int64_t per_k = shape.numel() / shape.dim(0);
            for (std::int64_t k = 0; k < shape.dim(0); ++k) {
                if (k % 16 >= 4)
                    continue;
                float *row = w4.data() + k * per_k;
                for (std::int64_t i = 0; i < per_k; ++i)
                    row[i] *= 16.0f;
            }
        }
        Tensor wr = core::groupWeights(w4, cfg.d, cfg.grouping);
        mask = core::nmMask(wr, cfg.pattern);
        core::applyMask(wr, mask);

        core::KmeansConfig kc;
        kc.k = cfg.k;
        km = core::maskedKmeans(wr, mask, kc);
        cb.codewords = km.codebook;
        core::quantizeCodebook(cb, cfg.codebook_bits);
        layer = core::makeCompressedLayer("conv", shape, cfg, mask, km, 0);
    }
};

} // namespace mvq

#endif // MVQ_TESTS_CLUSTERED_FIXTURE_HPP
