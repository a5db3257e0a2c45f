/**
 * @file
 * Compressed-container tests: mask round trips through the codec,
 * reconstruction equivalence, Eq. 7 compression-ratio accounting against
 * hand-computed bit counts, and applyTo() name matching.
 */

#include <gtest/gtest.h>

#include "clustered_fixture.hpp"
#include "common/logging.hpp"
#include "core/compressed_layer.hpp"
#include "nn/conv2d.hpp"
#include "nn/network.hpp"
#include "tensor/ops.hpp"

namespace mvq::core {
namespace {

TEST(CompressedLayer, MaskDecodeRoundTrip)
{
    ClusteredFixture f;
    EXPECT_EQ(f.layer.decodeMask(), f.mask);
}

TEST(CompressedLayer, ReconstructMatchesGroupedReconstruction)
{
    ClusteredFixture f;
    Tensor via_layer = f.layer.reconstruct(f.cb);
    Tensor wr = reconstructGrouped(f.cb.codewords, f.km.assignments,
                                   f.mask);
    Tensor direct = ungroupWeights(wr, f.shape, f.cfg.d, f.cfg.grouping);
    EXPECT_FLOAT_EQ(maxAbsDiff(via_layer, direct), 0.0f);
}

TEST(CompressedLayer, DenseReconstructIgnoresMask)
{
    ClusteredFixture f;
    Tensor dense = f.layer.reconstructDense(f.cb);
    Tensor sparse = f.layer.reconstruct(f.cb);
    EXPECT_GE(sparse.countZeros(), dense.countZeros());
}

TEST(CompressedLayer, StorageAccountingMatchesHandComputation)
{
    ClusteredFixture f;
    const std::int64_t ng = f.shape.numel() / f.cfg.d; // 72
    StorageCost cost = f.layer.assignmentStorage();
    EXPECT_EQ(cost.weight_count, f.shape.numel());
    EXPECT_EQ(cost.assignment_bits, ng * 4);  // log2(16) = 4
    EXPECT_EQ(cost.mask_bits, ng * 11);       // C(16,4) -> 11 bits
    EXPECT_EQ(cost.codebook_bits, 0);         // counted at model level
}

TEST(CompressedLayer, Eq7CompressionRatio)
{
    ClusteredFixture f;
    CompressedModel cm;
    cm.layers.push_back(f.layer);
    cm.codebooks.push_back(f.cb);

    const std::int64_t ng = f.shape.numel() / f.cfg.d;
    const std::int64_t ba = ng * 4;
    const std::int64_t bm = ng * 11;
    const std::int64_t bc = f.cfg.k * f.cfg.d * 8;
    const double expected = static_cast<double>(f.shape.numel()) * 32.0
        / static_cast<double>(ba + bm + bc);
    EXPECT_NEAR(cm.compressionRatio(32), expected, 1e-9);

    StorageCost total = cm.storage();
    EXPECT_EQ(total.codebook_bits, bc);
    EXPECT_NEAR(total.bitsPerWeight(),
                static_cast<double>(ba + bm + bc)
                    / static_cast<double>(f.shape.numel()),
                1e-12);
}

TEST(CompressedLayer, DenseReconstructDropsMaskStorage)
{
    ClusteredFixture f;
    CompressedModel cm;
    cm.layers.push_back(f.layer);
    cm.codebooks.push_back(f.cb);
    cm.dense_reconstruct = true;
    EXPECT_EQ(cm.storage().mask_bits, 0);
}

TEST(CompressedLayer, SparseFlopsScaleWithPattern)
{
    ClusteredFixture f;
    CompressedLayer layer = f.layer;
    layer.dense_flops = 1000;
    EXPECT_EQ(layer.sparseFlops(), 250); // 4:16 keeps 1/4
}

TEST(CompressedModel, ApplyToMatchesByName)
{
    ClusteredFixture f;
    CompressedModel cm;
    cm.layers.push_back(f.layer);
    cm.codebooks.push_back(f.cb);

    Rng rng(132);
    nn::Sequential net("net");
    nn::Conv2dConfig cc{4, 32, 3, 1, 1, 1, false};
    net.add<nn::Conv2d>("conv", cc, rng);
    cm.applyTo(net);
    Tensor expected = cm.reconstructLayer(0);
    EXPECT_FLOAT_EQ(
        maxAbsDiff(nn::convLayers(net)[0]->weight().value, expected),
        0.0f);

    nn::Sequential other("other");
    other.add<nn::Conv2d>("different", cc, rng);
    EXPECT_THROW(cm.applyTo(other), FatalError);
}

TEST(CompressedModel, CrosslayerCodebookCountedOnce)
{
    ClusteredFixture f;
    CompressedModel cm;
    cm.layers.push_back(f.layer);
    CompressedLayer second = f.layer;
    second.name = "conv2";
    cm.layers.push_back(second);
    cm.codebooks.push_back(f.cb); // shared: both layers use id 0

    const StorageCost cost = cm.storage();
    EXPECT_EQ(cost.codebook_bits, f.cb.storageBits());
    EXPECT_EQ(cost.weight_count, 2 * f.shape.numel());
}

TEST(CompressedLayer, MismatchedInputsRejected)
{
    ClusteredFixture f;
    KmeansResult bad = f.km;
    bad.assignments.pop_back();
    EXPECT_THROW(
        makeCompressedLayer("x", f.shape, f.cfg, f.mask, bad, 0),
        FatalError);
}

} // namespace
} // namespace mvq::core
