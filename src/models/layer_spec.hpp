/**
 * @file
 * Full-size layer-shape tables of the CNNs evaluated in the paper's
 * hardware experiments. Only geometry is stored — the accelerator's
 * cycle, access, energy, and area models depend on layer shapes, sparsity
 * and compression parameters, not on trained weight values — so these
 * tables reproduce the exact workloads (ResNet-18/50, VGG-16, AlexNet,
 * MobileNet-v1/v2, EfficientNet-B0 at 224x224 input).
 */

#ifndef MVQ_MODELS_LAYER_SPEC_HPP
#define MVQ_MODELS_LAYER_SPEC_HPP

#include <cstdint>
#include <string>
#include <vector>

namespace mvq::models {

/** Geometry of one convolution layer. */
struct ConvLayerSpec
{
    std::string name;
    std::int64_t out_c = 1;  //!< K
    std::int64_t in_c = 1;   //!< C (total, before grouping)
    std::int64_t kernel = 3; //!< R (= S)
    std::int64_t stride = 1;
    std::int64_t pad = 0;
    std::int64_t groups = 1; //!< = in_c for depthwise
    std::int64_t in_h = 1;
    std::int64_t in_w = 1;

    // Same clamp as ConvGeom::outH/outW: a negative numerator truncating
    // toward zero would report a bogus positive size for an invalid
    // geometry (and macs() would count FLOPs for it), so it maps to 0.
    std::int64_t outH() const
    {
        const std::int64_t num = in_h + 2 * pad - kernel;
        return num < 0 ? 0 : num / stride + 1;
    }
    std::int64_t outW() const
    {
        const std::int64_t num = in_w + 2 * pad - kernel;
        return num < 0 ? 0 : num / stride + 1;
    }

    bool isDepthwise() const { return groups == in_c && groups == out_c; }
    bool isPointwise() const { return kernel == 1 && groups == 1; }

    /** Kernel element count. */
    std::int64_t
    weightCount() const
    {
        return out_c * (in_c / groups) * kernel * kernel;
    }

    /** Multiply-accumulate count for one image. */
    std::int64_t
    macs() const
    {
        return outH() * outW() * weightCount();
    }
};

/** A fully connected layer (counted for params/FLOPs, not simulated). */
struct FcLayerSpec
{
    std::string name;
    std::int64_t in_features = 1;
    std::int64_t out_features = 1;

    std::int64_t weightCount() const { return in_features * out_features; }
    std::int64_t macs() const { return weightCount(); }
};

/** A whole network as an ordered list of conv layers plus FC layers. */
struct ModelSpec
{
    std::string name;
    std::vector<ConvLayerSpec> convs;
    std::vector<FcLayerSpec> fcs;

    std::int64_t totalConvMacs() const;
    std::int64_t totalMacs() const;
    std::int64_t totalConvWeights() const;
    std::int64_t totalWeights() const;

    /** Largest single input feature map in elements (DRAM spill check). */
    std::int64_t maxIfmapElems() const;
};

/** ResNet-18, 224x224 (1.81 GMACs, 11.7M params). */
ModelSpec resnet18Spec();

/** ResNet-50, 224x224 (4.09 GMACs, 25.6M params). */
ModelSpec resnet50Spec();

/** VGG-16, 224x224 (15.47 GMACs, 138M params). */
ModelSpec vgg16Spec();

/** AlexNet (torchvision variant), 224x224 (0.71 GMACs, 61M params). */
ModelSpec alexnetSpec();

/** MobileNet-v1, 224x224 (0.57 GMACs, 4.2M params). */
ModelSpec mobilenetV1Spec();

/** MobileNet-v2, 224x224 (0.30 GMACs, 3.5M params). */
ModelSpec mobilenetV2Spec();

/** EfficientNet-B0 without SE blocks, 224x224 (~0.39 GMACs). */
ModelSpec efficientnetB0Spec();

/**
 * The 3-layer edge-serving stack: serve0 [16, 8, 3, 3] feeding serve1 and
 * serve2 [16, 16, 3, 3], all stride 1 / pad 1 over 8x8 images, so an
 * [8, H, W] image keeps its spatial size through the chain. Sized so a
 * forward's fixed per-batch costs are a visible share of its time — the
 * regime batched serving exists for.
 */
ModelSpec edgeServeSpec();

/** Look up a spec by lowercase name (resnet18, vgg16, ...). */
ModelSpec modelSpecByName(const std::string &name);

/** All specs used in the hardware evaluation figures. */
std::vector<ModelSpec> hardwareEvalSpecs();

} // namespace mvq::models

#endif // MVQ_MODELS_LAYER_SPEC_HPP
