/**
 * @file
 * Weight-loader tests: the hardware decode path (LUT + CRF + AND gates)
 * must reproduce CompressedLayer::reconstruct exactly, and the stream
 * bit model must match the paper's per-format loading widths.
 */

#include <gtest/gtest.h>

#include "common/logging.hpp"
#include "models/synthetic.hpp"
#include "sim/weight_loader.hpp"
#include "tensor/ops.hpp"

namespace mvq::sim {
namespace {

TEST(WeightLoader, DecodeMatchesReconstruct)
{
    models::ModelSpec spec;
    spec.convs.push_back({"conv", 32, 4, 3, 1, 1, 1, 8, 8});
    const auto cm =
        models::synthesizeCompressed(spec, core::NmPattern{4, 16}, 16, 171);
    AccelConfig cfg = makeHwSetting(HwSetting::EWS_CMS, 16);
    Counters counters;
    DecodedWeights dec = decodeCompressedLayer(
        cfg, cm.layers[0], cm.codebooks[0], counters);
    Tensor expected = cm.reconstructLayer(0);
    EXPECT_FLOAT_EQ(maxAbsDiff(dec.weights, expected), 0.0f);
    EXPECT_EQ(dec.grouped_mask, cm.layers[0].decodeMask());
    // One CRF read per subvector.
    EXPECT_EQ(counters.crf_reads, cm.layers[0].ng());
    EXPECT_GT(counters.l2_read_bytes, 0);
}

TEST(WeightLoader, StreamBitsPerFormat)
{
    // Dense 8-bit: 8 bits per weight.
    AccelConfig dense = makeHwSetting(HwSetting::EWS_Base, 16);
    EXPECT_EQ(streamBits(dense, 1000), 8000);
    EXPECT_DOUBLE_EQ(dense.loadedBitsPerWeight(), 8.0);

    // EWS-C: k=1024 d=8 -> 10 bits per 8 weights = 1.25 b/w.
    AccelConfig vq = makeHwSetting(HwSetting::EWS_C, 16);
    EXPECT_DOUBLE_EQ(vq.loadedBitsPerWeight(), 10.0 / 8.0);

    // EWS-CM/CMS: k=512 d=16 4:16 -> (9 + 11)/16 = 1.25 b/w.
    AccelConfig mvq = makeHwSetting(HwSetting::EWS_CMS, 16);
    EXPECT_DOUBLE_EQ(mvq.loadedBitsPerWeight(), 20.0 / 16.0);

    // The headline claim: MVQ loads 6.4x fewer bits than dense.
    EXPECT_NEAR(dense.loadedBitsPerWeight() / mvq.loadedBitsPerWeight(),
                6.4, 1e-9);
}

TEST(WeightLoader, LoadCyclesAtDmaWidth)
{
    AccelConfig cfg = makeHwSetting(HwSetting::EWS_Base, 16);
    // 64-bit DMA: 8 dense weights per cycle.
    EXPECT_EQ(loadCycles(cfg, 8), 1);
    EXPECT_EQ(loadCycles(cfg, 9), 2);
    EXPECT_EQ(loadCycles(cfg, 64), 8);
}

TEST(WeightLoader, WrapDense)
{
    Tensor w(Shape({8, 2, 3, 3}), 1.0f);
    DecodedWeights dec = wrapDenseWeights(w, 8);
    EXPECT_EQ(dec.weights.shape(), w.shape());
    EXPECT_EQ(dec.grouped_mask.size(),
              static_cast<std::size_t>(w.numel()));
    for (auto b : dec.grouped_mask)
        EXPECT_EQ(b, 1);
}

TEST(AccelConfig, SettingFactories)
{
    for (auto s : {HwSetting::WS_Base, HwSetting::WS_CMS,
                   HwSetting::EWS_Base, HwSetting::EWS_C,
                   HwSetting::EWS_CM, HwSetting::EWS_CMS}) {
        for (std::int64_t size : {16, 32, 64}) {
            AccelConfig cfg = makeHwSetting(s, size);
            EXPECT_EQ(cfg.array_h, size);
            EXPECT_EQ(cfg.l1_bytes,
                      (size == 16 ? 128 : 256) * 1024);
            EXPECT_EQ(cfg.l2_bytes, 2 * 1024 * 1024);
        }
    }
    EXPECT_EQ(makeHwSetting(HwSetting::WS_Base, 16).dataflow,
              Dataflow::WS);
    EXPECT_EQ(makeHwSetting(HwSetting::EWS_C, 16).vq_k, 1024);
    EXPECT_EQ(makeHwSetting(HwSetting::EWS_CMS, 16).sparseQ(), 4);
    EXPECT_THROW(makeHwSetting(HwSetting::EWS_Base, 48),
                 mvq::FatalError);
}

} // namespace
} // namespace mvq::sim
