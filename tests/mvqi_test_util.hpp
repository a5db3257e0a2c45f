/**
 * @file
 * Shared helpers for the model-artifact / MVQI tests: a byte-deterministic
 * compressed model for the golden fixture (no float *computation* — every
 * stored value is an exact binary fraction derived from integers, so the
 * emitted image is identical across compilers and -ffp-contract choices),
 * the write options the golden images bake, fixture file access, and the
 * full untrusted-input path the corruption and fuzz tests drive.
 */

#ifndef MVQ_TESTS_MVQI_TEST_UTIL_HPP
#define MVQ_TESTS_MVQI_TEST_UTIL_HPP

#include <gtest/gtest.h>

#include <cstdint>
#include <fstream>
#include <iterator>
#include <string>
#include <vector>

#include "common/random.hpp"
#include "core/compressed_layer.hpp"
#include "core/io/model_artifact.hpp"
#include "core/io/mvqi_format.hpp"
#include "core/mask_codec.hpp"
#include "core/nm_pruning.hpp"
#include "nn/compressed_conv2d.hpp"

#ifndef MVQ_SOURCE_DIR
#define MVQ_SOURCE_DIR "."
#endif

namespace mvq::core {

/**
 * Deterministic two-layer, two-codebook model exercising both N:M
 * patterns (4:16 and 2:4), grouped conv packing (layer 1 is baked for
 * groups=2 in the golden image), and quantized + unquantized codebooks.
 * Every float is of the form (small integer) * 2^-2, exactly
 * representable, so serialization is byte-stable everywhere.
 */
inline CompressedModel
makeGoldenModel()
{
    CompressedModel model;

    {
        Codebook cb;
        cb.qbits = 8;
        cb.scale = 0.25f;
        cb.codewords = Tensor(Shape({16, 16}));
        for (std::int64_t i = 0; i < cb.codewords.numel(); ++i)
            cb.codewords[i] =
                static_cast<float>(i % 17 - 8) * 0.25f;
        model.codebooks.push_back(std::move(cb));
    }
    {
        Codebook cb; // unquantized fp32 codebook
        cb.qbits = 0;
        cb.scale = 0.0f;
        cb.codewords = Tensor(Shape({8, 16}));
        for (std::int64_t i = 0; i < cb.codewords.numel(); ++i)
            cb.codewords[i] =
                static_cast<float>((i * 7) % 23 - 11) * 0.25f;
        model.codebooks.push_back(std::move(cb));
    }

    {
        CompressedLayer l;
        l.name = "conv0";
        l.weight_shape = Shape({16, 2, 2, 2});
        l.cfg.k = 16;
        l.cfg.d = 16;
        l.cfg.pattern = NmPattern{4, 16};
        l.cfg.grouping = Grouping::OutputChannelWise;
        l.cfg.codebook_bits = 8;
        l.codebook_id = 0;
        l.dense_flops = 4096;
        const std::int64_t ng = l.weight_shape.numel() / l.cfg.d;
        const MaskCodec codec(l.cfg.pattern);
        for (std::int64_t j = 0; j < ng; ++j)
            l.assignments.push_back(
                static_cast<std::int32_t>((j * 5) % l.cfg.k));
        const std::int64_t codes = ng * (l.cfg.d / l.cfg.pattern.m);
        for (std::int64_t j = 0; j < codes; ++j)
            l.mask_codes.push_back(static_cast<std::uint32_t>(
                (j * 131u + 17u) % codec.codeCount()));
        model.layers.push_back(std::move(l));
    }
    {
        CompressedLayer l;
        l.name = "conv1_grouped";
        l.weight_shape = Shape({16, 4, 3, 3}); // C/groups=4 with groups=2
        l.cfg.k = 8;
        l.cfg.d = 16;
        l.cfg.pattern = NmPattern{2, 4};
        l.cfg.grouping = Grouping::OutputChannelWise;
        l.cfg.codebook_bits = 0;
        l.codebook_id = 1;
        l.dense_flops = 9216;
        const std::int64_t ng = l.weight_shape.numel() / l.cfg.d;
        const MaskCodec codec(l.cfg.pattern);
        for (std::int64_t j = 0; j < ng; ++j)
            l.assignments.push_back(
                static_cast<std::int32_t>((j * 3 + 1) % l.cfg.k));
        const std::int64_t codes = ng * (l.cfg.d / l.cfg.pattern.m);
        for (std::int64_t j = 0; j < codes; ++j)
            l.mask_codes.push_back(static_cast<std::uint32_t>(
                (j * 37u + 2u) % codec.codeCount()));
        model.layers.push_back(std::move(l));
    }
    return model;
}

/** The conv groups the golden image bakes per layer (layer 1 is a
 *  2-group conv; see makeGoldenModel). */
inline io::MvqiWriteOptions
goldenWriteOptions()
{
    io::MvqiWriteOptions opts;
    opts.layer_groups["conv1_grouped"] = 2;
    return opts;
}

/** Path of a checked-in fixture under tests/data/. */
inline std::string
goldenPath(const char *name)
{
    return std::string(MVQ_SOURCE_DIR) + "/tests/data/" + name;
}

/** Whole-file read (empty, with a test failure, if it cannot be read). */
inline std::vector<std::uint8_t>
readBytes(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    EXPECT_TRUE(in.good()) << "missing file " << path;
    return {std::istreambuf_iterator<char>(in),
            std::istreambuf_iterator<char>()};
}

/** Write `bytes` to `path`, replacing it. */
inline void
writeBytes(const std::vector<std::uint8_t> &bytes, const std::string &path)
{
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out.write(reinterpret_cast<const char *>(bytes.data()),
              static_cast<std::streamsize>(bytes.size()));
}

/**
 * Open + validate + borrow + forward every layer — the full
 * untrusted-input path — then one repack at a group count the image did
 * not bake, which materializes the model from the file's assignments and
 * mask codes. Corrupt input must surface as FatalError.
 */
inline void
loadAndUse(const std::string &path)
{
    const auto art = io::openArtifact(path);
    for (std::int64_t i = 0; i < art->layerCount(); ++i) {
        const io::SharedOperands ops = art->packedOperands(i);
        const Shape ws = art->layerShape(i);
        nn::CompressedConv2d conv(art->layerName(i), ws, ops, 1, 0);
        Tensor x(Shape({1,
                        ws.dim(1) * static_cast<std::int64_t>(ops->size()),
                        5, 5}));
        Rng rng(3);
        x.fillNormal(rng, 0.0f, 1.0f);
        conv.forward(x);
    }
    if (art->layerCount() > 0)
        art->packedOperands(0, art->bakedGroups(0) == 1 ? 2 : 1);
}

} // namespace mvq::core

#endif // MVQ_TESTS_MVQI_TEST_UTIL_HPP
