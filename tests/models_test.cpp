/**
 * @file
 * Model-zoo tests: full-size layer tables must reproduce the published
 * MAC and parameter counts of each architecture, the synthetic-model
 * builder must turn any table into a valid compressed model, and every
 * mini model must train-forward with the right shapes.
 */

#include <gtest/gtest.h>

#include "common/logging.hpp"
#include "core/io/mvqi_format.hpp"
#include "core/pipeline.hpp"
#include "models/detector.hpp"
#include "models/layer_spec.hpp"
#include "models/mini_models.hpp"
#include "models/synthetic.hpp"
#include "nn/network.hpp"

namespace mvq::models {
namespace {

struct SpecCase
{
    const char *name;
    double macs_g;    //!< expected GMACs (torchvision convention)
    double params_m;  //!< expected M parameters (conv + fc weights)
    double tol;       //!< relative tolerance
};

class ZooSpec : public ::testing::TestWithParam<SpecCase>
{
};

TEST_P(ZooSpec, MacsAndParamsMatchPublished)
{
    const SpecCase sc = GetParam();
    ModelSpec spec = modelSpecByName(sc.name);
    const double macs_g =
        static_cast<double>(spec.totalMacs()) / 1e9;
    const double params_m =
        static_cast<double>(spec.totalWeights()) / 1e6;
    EXPECT_NEAR(macs_g, sc.macs_g, sc.macs_g * sc.tol) << sc.name;
    EXPECT_NEAR(params_m, sc.params_m, sc.params_m * sc.tol) << sc.name;
}

// Published numbers (weights only, biases/BN excluded, 224x224 input).
INSTANTIATE_TEST_SUITE_P(
    Published, ZooSpec,
    ::testing::Values(
        SpecCase{"resnet18", 1.81, 11.68, 0.03},
        SpecCase{"resnet50", 4.09, 25.50, 0.03},
        SpecCase{"vgg16", 15.47, 138.34, 0.03},
        SpecCase{"alexnet", 0.71, 61.0, 0.05},
        SpecCase{"mobilenet_v1", 0.57, 4.2, 0.05},
        SpecCase{"mobilenet_v2", 0.30, 3.4, 0.08},
        SpecCase{"efficientnet_b0", 0.39, 5.3, 0.20}));

TEST(ZooSpec, ResNet18LayerStructure)
{
    ModelSpec spec = resnet18Spec();
    // conv1 + 16 block convs + 3 downsamples = 20 conv layers.
    EXPECT_EQ(spec.convs.size(), 20u);
    EXPECT_EQ(spec.fcs.size(), 1u);
    EXPECT_EQ(spec.convs.front().kernel, 7);
    EXPECT_EQ(spec.convs.front().outH(), 112);
    // VGG caveat input: biggest ifmap of ResNet-18 fits in L2.
    EXPECT_LT(spec.maxIfmapElems(), 2 * 1024 * 1024);
}

TEST(ZooSpec, Vgg16HasHugeEarlyFmaps)
{
    ModelSpec spec = vgg16Spec();
    EXPECT_EQ(spec.convs.size(), 13u);
    EXPECT_EQ(spec.fcs.size(), 3u);
    EXPECT_GT(spec.maxIfmapElems(), 2 * 1024 * 1024);
}

TEST(ZooSpec, DepthwiseFlagged)
{
    ModelSpec spec = mobilenetV1Spec();
    int dw = 0;
    for (const auto &c : spec.convs)
        dw += c.isDepthwise() ? 1 : 0;
    EXPECT_EQ(dw, 13);
}

TEST(ZooSpec, UnknownNameFatal)
{
    EXPECT_THROW(modelSpecByName("lenet"), FatalError);
    EXPECT_EQ(hardwareEvalSpecs().size(), 5u);
}

TEST(ZooSpec, EdgeServeChainsAtConstantSize)
{
    const ModelSpec spec = edgeServeSpec();
    ASSERT_EQ(spec.convs.size(), 3u);
    EXPECT_EQ(spec.convs[0].in_c, 8);
    for (const auto &c : spec.convs) {
        EXPECT_EQ(c.out_c, 16) << c.name;
        EXPECT_EQ(c.outH(), 8) << c.name;
        EXPECT_EQ(c.groups, 1) << c.name;
    }
    EXPECT_EQ(spec.convs[1].in_c, 16);
    EXPECT_TRUE(spec.fcs.empty());
}

// --------------------------------------------------- synthetic models

TEST(Synthetic, SeedDeterminesTheImage)
{
    const auto image = [](std::uint64_t seed) {
        core::io::MvqiWriteOptions opts;
        return core::io::buildMvqiImage(
            synthesizeCompressed(edgeServeSpec(), core::NmPattern{4, 16},
                                 256, seed, &opts),
            opts);
    };
    EXPECT_EQ(image(5), image(5));
    EXPECT_NE(image(5), image(6));
}

TEST(Synthetic, ValidAcrossPatternsAndCodebookSizes)
{
    const ModelSpec spec = edgeServeSpec();
    for (const core::NmPattern p :
         {core::NmPattern{4, 16}, core::NmPattern{2, 4},
          core::NmPattern{1, 2}, core::NmPattern{2, 8},
          core::NmPattern{1, 1}}) {
        for (const std::int64_t k : {7, 256}) {
            const std::string what = std::to_string(p.n) + ":"
                + std::to_string(p.m) + " k=" + std::to_string(k);
            const core::CompressedModel m =
                synthesizeCompressed(spec, p, k, 3);
            EXPECT_NO_THROW(m.validate(what));
            ASSERT_EQ(m.codebooks.size(), 1u) << what;
            EXPECT_EQ(m.codebooks[0].codewords.shape(), Shape({k, 16}))
                << what;
            ASSERT_EQ(m.layers.size(), spec.convs.size()) << what;
            for (std::size_t i = 0; i < m.layers.size(); ++i) {
                const core::CompressedLayer &l = m.layers[i];
                EXPECT_EQ(l.ng(), spec.convs[i].weightCount() / 16) << what;
                EXPECT_EQ(static_cast<std::int64_t>(l.mask_codes.size()),
                          l.ng() * (16 / p.m))
                    << what;
                EXPECT_EQ(l.dense_flops, 2 * spec.convs[i].macs()) << what;
            }
        }
    }
}

TEST(Synthetic, FullNetworksRecordConvGroups)
{
    // Every conv of both benchmark networks is d=16-groupable, and the
    // write options carry each conv's groups (in_c for depthwise).
    for (const ModelSpec &spec : {resnet18Spec(), mobilenetV1Spec()}) {
        core::io::MvqiWriteOptions opts;
        const core::CompressedModel m = synthesizeCompressed(
            spec, core::NmPattern{4, 16}, 256, 1, &opts);
        ASSERT_EQ(m.layers.size(), spec.convs.size()) << spec.name;
        int depthwise = 0;
        for (const ConvLayerSpec &c : spec.convs) {
            EXPECT_EQ(opts.layer_groups.at(c.name), c.groups) << c.name;
            if (c.isDepthwise()) {
                ++depthwise;
                EXPECT_EQ(opts.layer_groups.at(c.name), c.in_c) << c.name;
            }
        }
        EXPECT_EQ(depthwise, spec.name == "mobilenet_v1" ? 13 : 0);
    }
}

TEST(Synthetic, RejectsBadInput)
{
    ModelSpec spec;
    spec.name = "odd";
    spec.convs.push_back({"odd", 1, 1, 3, 1, 1, 1, 8, 8}); // 9 weights
    EXPECT_THROW(synthesizeCompressed(spec, core::NmPattern{4, 16}, 256, 1),
                 FatalError);
    EXPECT_THROW(synthesizeCompressed(edgeServeSpec(), core::NmPattern{2, 5},
                                      256, 1),
                 FatalError); // M does not divide d = 16
    EXPECT_THROW(synthesizeCompressed(edgeServeSpec(), core::NmPattern{4, 16},
                                      0, 1),
                 FatalError);
}

class MiniModelForward
    : public ::testing::TestWithParam<const char *>
{
};

TEST_P(MiniModelForward, ProducesLogits)
{
    MiniConfig mc;
    mc.classes = 5;
    mc.width = 8;
    auto net = miniModelByName(GetParam(), mc);
    Rng rng(201);
    Tensor x(Shape({2, 3, 12, 12}));
    x.fillNormal(rng, 0.0f, 1.0f);
    Tensor out = net->forward(x, false);
    ASSERT_EQ(out.rank(), 2);
    EXPECT_EQ(out.dim(0), 2);
    EXPECT_EQ(out.dim(1), 5);
    EXPECT_GT(nn::parameterCount(*net), 1000);
}

INSTANTIATE_TEST_SUITE_P(Families, MiniModelForward,
                         ::testing::Values("resnet18", "resnet50",
                                           "vgg16", "alexnet",
                                           "mobilenet_v1",
                                           "mobilenet_v2",
                                           "efficientnet"));

TEST(MiniModels, DeepLabOutputsDenseLogits)
{
    MiniConfig mc;
    mc.classes = 5;
    mc.width = 8;
    auto net = miniDeepLab(mc);
    Rng rng(202);
    Tensor x(Shape({2, 3, 16, 16}));
    x.fillNormal(rng, 0.0f, 1.0f);
    Tensor out = net->forward(x, false);
    EXPECT_EQ(out.shape(), Shape({2, 5, 16, 16}));
}

TEST(MiniModels, DetectorHeadsAndTraining)
{
    nn::DetectionConfig dc;
    dc.train_count = 256;
    dc.test_count = 64;
    nn::DetectionDataset data(dc);

    MiniConfig mc;
    mc.classes = dc.classes;
    mc.width = 8;
    MiniDetector det(mc, dc.size);

    Rng rng(203);
    Tensor x(Shape({2, 3, dc.size, dc.size}));
    x.fillNormal(rng, 0.0f, 1.0f);
    DetectorOutput out = det.forwardAll(x, false);
    EXPECT_EQ(out.class_logits.shape(), Shape({2, dc.classes}));
    EXPECT_EQ(out.box_pred.shape(), Shape({2, 4}));
    EXPECT_EQ(out.mask_logits.shape(), Shape({2, 2, dc.size, dc.size}));

    const DetMetrics before = evalDetector(det, data, data.testSet());
    DetectorTrainConfig tc;
    tc.epochs = 8;
    trainDetector(det, data, tc);
    const DetMetrics after = evalDetector(det, data, data.testSet());
    EXPECT_GE(after.ap_bb, before.ap_bb);
    EXPECT_GT(after.ap_bb, 15.0) << "detector should learn something";

    // The Layer facade is traversal-only.
    EXPECT_THROW(det.forward(x, false), PanicError);
    EXPECT_FALSE(nn::convLayers(det.backbone()).empty());
}

TEST(MiniModels, ChannelsAreGroupable)
{
    // Every mini model must expose convs groupable at d = 8 (and the
    // ResNets at d = 16) so the compression benches work unchanged.
    MiniConfig mc;
    mc.width = 16;
    for (const char *name : {"resnet18", "resnet50", "vgg16"}) {
        auto net = miniModelByName(name, mc);
        core::MvqLayerConfig lc;
        lc.d = 16;
        EXPECT_FALSE(core::compressibleConvs(*net, lc, true).empty())
            << name;
    }
    for (const char *name : {"mobilenet_v1", "mobilenet_v2",
                             "efficientnet", "alexnet"}) {
        auto net = miniModelByName(name, mc);
        core::MvqLayerConfig lc;
        lc.d = 8;
        EXPECT_FALSE(core::compressibleConvs(*net, lc, true).empty())
            << name;
    }
}

} // namespace
} // namespace mvq::models
