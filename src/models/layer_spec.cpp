#include "models/layer_spec.hpp"

#include <algorithm>

#include "common/logging.hpp"

namespace mvq::models {

std::int64_t
ModelSpec::totalConvMacs() const
{
    std::int64_t n = 0;
    for (const auto &c : convs)
        n += c.macs();
    return n;
}

std::int64_t
ModelSpec::totalMacs() const
{
    std::int64_t n = totalConvMacs();
    for (const auto &f : fcs)
        n += f.macs();
    return n;
}

std::int64_t
ModelSpec::totalConvWeights() const
{
    std::int64_t n = 0;
    for (const auto &c : convs)
        n += c.weightCount();
    return n;
}

std::int64_t
ModelSpec::totalWeights() const
{
    std::int64_t n = totalConvWeights();
    for (const auto &f : fcs)
        n += f.weightCount();
    return n;
}

std::int64_t
ModelSpec::maxIfmapElems() const
{
    std::int64_t m = 0;
    for (const auto &c : convs)
        m = std::max(m, c.in_c * c.in_h * c.in_w);
    return m;
}

namespace {

/** Incremental builder tracking the running spatial size. */
class SpecBuilder
{
  public:
    SpecBuilder(std::string name, std::int64_t in_c, std::int64_t hw)
        : channels(in_c), size(hw)
    {
        spec.name = std::move(name);
    }

    /** Append a conv; updates running channels/spatial size. */
    SpecBuilder &
    conv(const std::string &name, std::int64_t out_c, std::int64_t kernel,
         std::int64_t stride, std::int64_t pad, std::int64_t groups = 1)
    {
        ConvLayerSpec c;
        c.name = name;
        c.out_c = out_c;
        c.in_c = channels;
        c.kernel = kernel;
        c.stride = stride;
        c.pad = pad;
        c.groups = groups;
        c.in_h = size;
        c.in_w = size;
        spec.convs.push_back(c);
        channels = out_c;
        size = c.outH();
        return *this;
    }

    /** Depthwise conv over the current channel count. */
    SpecBuilder &
    dwconv(const std::string &name, std::int64_t kernel, std::int64_t stride,
           std::int64_t pad)
    {
        return conv(name, channels, kernel, stride, pad, channels);
    }

    /** Pooling: only the spatial size changes. */
    SpecBuilder &
    pool(std::int64_t kernel, std::int64_t stride, std::int64_t pad = 0)
    {
        size = (size + 2 * pad - kernel) / stride + 1;
        return *this;
    }

    /** Global pooling collapses the plane. */
    SpecBuilder &
    gap()
    {
        size = 1;
        return *this;
    }

    SpecBuilder &
    fc(const std::string &name, std::int64_t out_features)
    {
        FcLayerSpec f;
        f.name = name;
        f.in_features = channels * size * size;
        f.out_features = out_features;
        spec.fcs.push_back(f);
        channels = out_features;
        size = 1;
        return *this;
    }

    std::int64_t currentChannels() const { return channels; }
    std::int64_t currentSize() const { return size; }

    ModelSpec build() { return spec; }

  private:
    ModelSpec spec;
    std::int64_t channels;
    std::int64_t size;
};

} // namespace

ModelSpec
resnet18Spec()
{
    SpecBuilder b("resnet18", 3, 224);
    b.conv("conv1", 64, 7, 2, 3).pool(3, 2, 1);

    const std::int64_t widths[4] = {64, 128, 256, 512};
    std::int64_t in_c = 64;
    std::int64_t size = 56;
    ModelSpec spec = b.build();
    for (int stage = 0; stage < 4; ++stage) {
        const std::int64_t w = widths[stage];
        for (int block = 0; block < 2; ++block) {
            const std::int64_t stride =
                (stage > 0 && block == 0) ? 2 : 1;
            const std::string prefix = "layer" + std::to_string(stage + 1)
                + "." + std::to_string(block);
            ConvLayerSpec c1{prefix + ".conv1", w, in_c, 3, stride, 1, 1,
                             size, size};
            spec.convs.push_back(c1);
            const std::int64_t out_size = c1.outH();
            spec.convs.push_back({prefix + ".conv2", w, w, 3, 1, 1, 1,
                                  out_size, out_size});
            if (stride != 1 || in_c != w) {
                spec.convs.push_back({prefix + ".down", w, in_c, 1, stride,
                                      0, 1, size, size});
            }
            in_c = w;
            size = out_size;
        }
    }
    spec.fcs.push_back({"fc", 512, 1000});
    return spec;
}

ModelSpec
resnet50Spec()
{
    SpecBuilder b("resnet50", 3, 224);
    b.conv("conv1", 64, 7, 2, 3).pool(3, 2, 1);
    ModelSpec spec = b.build();

    const std::int64_t mids[4] = {64, 128, 256, 512};
    const int counts[4] = {3, 4, 6, 3};
    std::int64_t in_c = 64;
    std::int64_t size = 56;
    for (int stage = 0; stage < 4; ++stage) {
        const std::int64_t mid = mids[stage];
        const std::int64_t out = mid * 4;
        for (int block = 0; block < counts[stage]; ++block) {
            const std::int64_t stride =
                (stage > 0 && block == 0) ? 2 : 1;
            const std::string prefix = "layer" + std::to_string(stage + 1)
                + "." + std::to_string(block);
            spec.convs.push_back({prefix + ".conv1", mid, in_c, 1, 1, 0, 1,
                                  size, size});
            ConvLayerSpec c2{prefix + ".conv2", mid, mid, 3, stride, 1, 1,
                             size, size};
            spec.convs.push_back(c2);
            const std::int64_t out_size = c2.outH();
            spec.convs.push_back({prefix + ".conv3", out, mid, 1, 1, 0, 1,
                                  out_size, out_size});
            if (stride != 1 || in_c != out) {
                spec.convs.push_back({prefix + ".down", out, in_c, 1,
                                      stride, 0, 1, size, size});
            }
            in_c = out;
            size = out_size;
        }
    }
    spec.fcs.push_back({"fc", 2048, 1000});
    return spec;
}

ModelSpec
vgg16Spec()
{
    SpecBuilder b("vgg16", 3, 224);
    const std::int64_t cfg[5][3] = {
        {64, 64, 0}, {128, 128, 0}, {256, 256, 256},
        {512, 512, 512}, {512, 512, 512}};
    int idx = 0;
    for (int blk = 0; blk < 5; ++blk) {
        for (int i = 0; i < 3; ++i) {
            if (cfg[blk][i] == 0)
                continue;
            b.conv("conv" + std::to_string(++idx), cfg[blk][i], 3, 1, 1);
        }
        b.pool(2, 2);
    }
    b.fc("fc1", 4096).fc("fc2", 4096).fc("fc3", 1000);
    return b.build();
}

ModelSpec
alexnetSpec()
{
    SpecBuilder b("alexnet", 3, 224);
    b.conv("conv1", 64, 11, 4, 2).pool(3, 2);
    b.conv("conv2", 192, 5, 1, 2).pool(3, 2);
    b.conv("conv3", 384, 3, 1, 1);
    b.conv("conv4", 256, 3, 1, 1);
    b.conv("conv5", 256, 3, 1, 1).pool(3, 2);
    b.fc("fc1", 4096).fc("fc2", 4096).fc("fc3", 1000);
    return b.build();
}

ModelSpec
mobilenetV1Spec()
{
    SpecBuilder b("mobilenet_v1", 3, 224);
    b.conv("conv1", 32, 3, 2, 1);
    const struct { std::int64_t c; std::int64_t s; } blocks[] = {
        {64, 1},  {128, 2}, {128, 1}, {256, 2}, {256, 1},
        {512, 2}, {512, 1}, {512, 1}, {512, 1}, {512, 1}, {512, 1},
        {1024, 2}, {1024, 1}};
    int idx = 0;
    for (const auto &blk : blocks) {
        ++idx;
        b.dwconv("dw" + std::to_string(idx), 3, blk.s, 1);
        b.conv("pw" + std::to_string(idx), blk.c, 1, 1, 0);
    }
    b.gap().fc("fc", 1000);
    return b.build();
}

ModelSpec
mobilenetV2Spec()
{
    SpecBuilder b("mobilenet_v2", 3, 224);
    b.conv("conv1", 32, 3, 2, 1);
    // (expansion t, channels c, repeats n, stride s)
    const struct { std::int64_t t, c, n, s; } cfg[] = {
        {1, 16, 1, 1}, {6, 24, 2, 2}, {6, 32, 3, 2}, {6, 64, 4, 2},
        {6, 96, 3, 1}, {6, 160, 3, 2}, {6, 320, 1, 1}};
    int idx = 0;
    for (const auto &blk : cfg) {
        for (std::int64_t i = 0; i < blk.n; ++i) {
            ++idx;
            const std::int64_t stride = i == 0 ? blk.s : 1;
            const std::int64_t in_c = b.currentChannels();
            const std::int64_t hidden = in_c * blk.t;
            const std::string p = "block" + std::to_string(idx);
            if (blk.t != 1)
                b.conv(p + ".expand", hidden, 1, 1, 0);
            b.dwconv(p + ".dw", 3, stride, 1);
            b.conv(p + ".project", blk.c, 1, 1, 0);
        }
    }
    b.conv("conv_last", 1280, 1, 1, 0);
    b.gap().fc("fc", 1000);
    return b.build();
}

ModelSpec
efficientnetB0Spec()
{
    SpecBuilder b("efficientnet_b0", 3, 224);
    b.conv("stem", 32, 3, 2, 1);
    // (expansion t, channels c, repeats n, stride s, kernel k)
    const struct { std::int64_t t, c, n, s, k; } cfg[] = {
        {1, 16, 1, 1, 3}, {6, 24, 2, 2, 3}, {6, 40, 2, 2, 5},
        {6, 80, 3, 2, 3}, {6, 112, 3, 1, 5}, {6, 192, 4, 2, 5},
        {6, 320, 1, 1, 3}};
    int idx = 0;
    for (const auto &blk : cfg) {
        for (std::int64_t i = 0; i < blk.n; ++i) {
            ++idx;
            const std::int64_t stride = i == 0 ? blk.s : 1;
            const std::int64_t in_c = b.currentChannels();
            const std::int64_t hidden = in_c * blk.t;
            const std::string p = "mb" + std::to_string(idx);
            if (blk.t != 1)
                b.conv(p + ".expand", hidden, 1, 1, 0);
            b.dwconv(p + ".dw", blk.k, stride, blk.k / 2);
            b.conv(p + ".project", blk.c, 1, 1, 0);
        }
    }
    b.conv("head", 1280, 1, 1, 0);
    b.gap().fc("fc", 1000);
    return b.build();
}

ModelSpec
edgeServeSpec()
{
    SpecBuilder b("edge_serve", 8, 8);
    b.conv("serve0", 16, 3, 1, 1);
    b.conv("serve1", 16, 3, 1, 1);
    b.conv("serve2", 16, 3, 1, 1);
    return b.build();
}

ModelSpec
modelSpecByName(const std::string &name)
{
    if (name == "resnet18")
        return resnet18Spec();
    if (name == "resnet50")
        return resnet50Spec();
    if (name == "vgg16")
        return vgg16Spec();
    if (name == "alexnet")
        return alexnetSpec();
    if (name == "mobilenet_v1")
        return mobilenetV1Spec();
    if (name == "mobilenet_v2")
        return mobilenetV2Spec();
    if (name == "efficientnet_b0")
        return efficientnetB0Spec();
    fatal("unknown model spec: ", name);
}

std::vector<ModelSpec>
hardwareEvalSpecs()
{
    return {resnet18Spec(), resnet50Spec(), vgg16Spec(),
            mobilenetV1Spec(), alexnetSpec()};
}

} // namespace mvq::models
