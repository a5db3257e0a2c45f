#include "models/synthetic.hpp"

#include "common/logging.hpp"
#include "common/random.hpp"
#include "core/mask_codec.hpp"

namespace mvq::models {

core::CompressedModel
synthesizeCompressed(const ModelSpec &spec, core::NmPattern pattern,
                     std::int64_t k, std::uint64_t seed,
                     core::io::MvqiWriteOptions *opts)
{
    using namespace mvq::core;
    constexpr std::int64_t kD = 16;
    const MaskCodec codec(pattern);
    fatalIf(k < 1, "synthesizeCompressed(", spec.name, "): k = ", k,
            " must be >= 1");
    fatalIf(kD % pattern.m != 0, "synthesizeCompressed(", spec.name,
            "): M = ", pattern.m, " does not divide d = ", kD);
    const std::int64_t codes_per_sub = kD / pattern.m;
    const auto max_code = static_cast<std::int64_t>(codec.codeCount()) - 1;

    CompressedModel model;
    Rng rng(seed);

    Codebook cb;
    cb.qbits = 8;
    cb.scale = 1.0f / 64.0f;
    cb.codewords = Tensor(Shape({k, kD}));
    for (std::int64_t i = 0; i < cb.codewords.numel(); ++i)
        cb.codewords[i] =
            static_cast<float>(rng.intIn(-127, 127)) * cb.scale;
    model.codebooks.push_back(std::move(cb));

    for (const ConvLayerSpec &c : spec.convs) {
        fatalIf(c.weightCount() % kD != 0, "synthesizeCompressed(",
                spec.name, "): conv ", c.name, " has ", c.weightCount(),
                " weights, not a multiple of d = ", kD);
        CompressedLayer l;
        l.name = c.name;
        l.weight_shape =
            Shape({c.out_c, c.in_c / c.groups, c.kernel, c.kernel});
        l.cfg.k = k;
        l.cfg.d = kD;
        l.cfg.pattern = pattern;
        l.cfg.grouping = Grouping::OutputChannelWise;
        l.cfg.codebook_bits = 8;
        l.codebook_id = 0;
        l.dense_flops = 2 * c.macs();
        const std::int64_t ng = c.weightCount() / kD;
        l.assignments.reserve(static_cast<std::size_t>(ng));
        l.mask_codes.reserve(static_cast<std::size_t>(ng * codes_per_sub));
        for (std::int64_t j = 0; j < ng; ++j) {
            l.assignments.push_back(
                static_cast<std::int32_t>(rng.intIn(0, k - 1)));
            for (std::int64_t q = 0; q < codes_per_sub; ++q)
                l.mask_codes.push_back(
                    static_cast<std::uint32_t>(rng.intIn(0, max_code)));
        }
        if (opts != nullptr)
            opts->layer_groups[l.name] = c.groups;
        model.layers.push_back(std::move(l));
    }
    return model;
}

} // namespace mvq::models
