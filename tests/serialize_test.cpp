/**
 * @file
 * Serialization tests: bit-stream round trips, full-model round trips
 * with exact reconstruction equality (across N:M patterns and codebook
 * sizes, on synthetic symbols), and file size vs the Eq. 7 storage
 * accounting.
 */

#include <gtest/gtest.h>

#include <cstdio>

#include "common/logging.hpp"
#include "core/io/model_artifact.hpp"
#include "core/serialize.hpp"
#include "models/synthetic.hpp"
#include "tensor/ops.hpp"

namespace mvq::core {
namespace {

TEST(BitStream, RoundTripMixedWidths)
{
    BitWriter w;
    w.put(0b101, 3);
    w.put(0xDEAD, 16);
    w.put(1, 1);
    w.put(0x123456789ULL, 36);
    const auto bytes = w.finish();

    BitReader r(bytes);
    EXPECT_EQ(r.get(3), 0b101u);
    EXPECT_EQ(r.get(16), 0xDEADu);
    EXPECT_EQ(r.get(1), 1u);
    EXPECT_EQ(r.get(36), 0x123456789ULL);
}

TEST(BitStream, OverrunFatal)
{
    BitWriter w;
    w.put(3, 2);
    const auto bytes = w.finish();
    BitReader r(bytes);
    r.get(8);
    EXPECT_THROW(r.get(8), FatalError);
}

TEST(BitStream, BitCountMatches)
{
    BitWriter w;
    w.put(0, 7);
    w.put(0, 9);
    EXPECT_EQ(w.bitCount(), 16);
}

/** A one-conv model with synthetic symbols. */
CompressedModel
makeModel(NmPattern pattern = NmPattern{4, 16}, std::int64_t k = 32,
          std::int64_t in_c = 8, std::uint64_t seed = 221)
{
    models::ModelSpec spec;
    spec.name = "serialize";
    spec.convs.push_back({"conv", 32, in_c, 3, 1, 1, 1, 8, 8});
    return models::synthesizeCompressed(spec, pattern, k, seed);
}

TEST(Serialize, ModelRoundTripExact)
{
    CompressedModel model = makeModel();
    const auto bytes = serializeModel(model);
    CompressedModel back = deserializeModel(bytes);

    ASSERT_EQ(back.layers.size(), model.layers.size());
    ASSERT_EQ(back.codebooks.size(), model.codebooks.size());
    EXPECT_EQ(back.dense_reconstruct, model.dense_reconstruct);

    const auto &l0 = model.layers[0];
    const auto &l1 = back.layers[0];
    EXPECT_EQ(l1.name, l0.name);
    EXPECT_EQ(l1.weight_shape, l0.weight_shape);
    EXPECT_EQ(l1.cfg.k, l0.cfg.k);
    EXPECT_EQ(l1.cfg.pattern.n, l0.cfg.pattern.n);
    EXPECT_EQ(l1.assignments, l0.assignments);
    EXPECT_EQ(l1.mask_codes, l0.mask_codes);
    EXPECT_EQ(l1.dense_flops, l0.dense_flops);

    // The reconstruction must be bit-identical.
    EXPECT_FLOAT_EQ(
        maxAbsDiff(model.reconstructLayer(0), back.reconstructLayer(0)),
        0.0f);
}

TEST(Serialize, FileSizeTracksEq7Accounting)
{
    CompressedModel model = makeModel();
    const auto bytes = serializeModel(model);
    const StorageCost cost = model.storage();
    // Payload bits plus bounded header/metadata overhead.
    const double payload_bytes =
        static_cast<double>(cost.totalBits()) / 8.0;
    EXPECT_GT(static_cast<double>(bytes.size()), payload_bytes);
    EXPECT_LT(static_cast<double>(bytes.size()),
              payload_bytes + 256.0);
}

TEST(Serialize, SaveLoadFile)
{
    CompressedModel model = makeModel();
    const std::string path = "/tmp/mvq_serialize_test.mvq";
    io::saveArtifact(model, path, io::ArtifactFormat::Stream);
    CompressedModel back = io::openArtifact(path)->model();
    EXPECT_FLOAT_EQ(
        maxAbsDiff(model.reconstructLayer(0), back.reconstructLayer(0)),
        0.0f);
    std::remove(path.c_str());
}

/** Round-trip must hold for every N:M pattern / k / grouping combo. */
class SerializeSweep
    : public ::testing::TestWithParam<std::tuple<int, int, int>>
{
};

TEST_P(SerializeSweep, RoundTripAcrossConfigs)
{
    const auto [n, m, k] = GetParam();
    const CompressedModel model = makeModel(NmPattern{n, m}, k, 4, 223);

    CompressedModel back = deserializeModel(serializeModel(model));
    EXPECT_FLOAT_EQ(
        maxAbsDiff(model.reconstructLayer(0), back.reconstructLayer(0)),
        0.0f);
    EXPECT_EQ(back.layers[0].assignments, model.layers[0].assignments);
    EXPECT_EQ(back.layers[0].mask_codes, model.layers[0].mask_codes);
}

INSTANTIATE_TEST_SUITE_P(
    Patterns, SerializeSweep,
    ::testing::Values(std::make_tuple(4, 16, 32),
                      std::make_tuple(1, 2, 8),
                      std::make_tuple(2, 4, 64),
                      std::make_tuple(8, 16, 16),
                      std::make_tuple(1, 1, 128),
                      std::make_tuple(2, 8, 7)));

TEST(Serialize, RejectsGarbage)
{
    std::vector<std::uint8_t> junk = {1, 2, 3, 4, 5, 6, 7, 8};
    EXPECT_THROW(deserializeModel(junk), FatalError);
}

TEST(Serialize, RejectsTruncationAtEveryPrefix)
{
    // Every strict prefix of a valid stream must fail with FatalError
    // (clean overrun or bounds message), never crash or mis-decode. The
    // remainingBits checks specifically keep a truncated header from
    // driving a huge codeword/assignment allocation.
    const auto bytes = serializeModel(makeModel());
    for (std::size_t cut : {std::size_t{0}, std::size_t{3},
                            std::size_t{4}, std::size_t{7},
                            std::size_t{9}, std::size_t{16},
                            bytes.size() / 2, bytes.size() - 1}) {
        const std::vector<std::uint8_t> trunc(bytes.begin(),
                                              bytes.begin()
                                                  + static_cast<long>(cut));
        EXPECT_THROW(deserializeModel(trunc), FatalError)
            << "prefix of " << cut << " bytes decoded without error";
    }
}

TEST(Serialize, BitReaderRemainingBits)
{
    BitWriter w;
    w.put(0x3f, 6);
    w.put(0, 10);
    const auto bytes = w.finish();
    BitReader r(bytes);
    EXPECT_EQ(r.remainingBits(), 16);
    r.get(6);
    EXPECT_EQ(r.remainingBits(), 10);
    r.get(10);
    EXPECT_EQ(r.remainingBits(), 0);
}

TEST(Serialize, UnquantizedCodebookRoundTrip)
{
    CompressedModel model = makeModel();
    // Replace with an unquantized codebook (fp32 path).
    Rng rng(222);
    model.codebooks[0].qbits = 0;
    model.codebooks[0].scale = 0.0f;
    model.codebooks[0].codewords.fillNormal(rng, 0.0f, 1.0f);
    const auto bytes = serializeModel(model);
    CompressedModel back = deserializeModel(bytes);
    EXPECT_FLOAT_EQ(maxAbsDiff(back.codebooks[0].codewords,
                               model.codebooks[0].codewords),
                    0.0f);
}

} // namespace
} // namespace mvq::core
