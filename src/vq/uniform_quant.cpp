#include "vq/uniform_quant.hpp"

#include <numeric>
#include <unordered_map>

#include "common/logging.hpp"
#include "core/codebook.hpp"
#include "nn/loss.hpp"
#include "nn/network.hpp"
#include "nn/optimizer.hpp"

namespace mvq::vq {

namespace {

double
quantMse(const Tensor &w, float scale, int bits)
{
    double err = 0.0;
    for (std::int64_t i = 0; i < w.numel(); ++i) {
        const double d = static_cast<double>(w[i])
            - static_cast<double>(core::quantizeValue(w[i], scale, bits));
        err += d * d;
    }
    return err;
}

} // namespace

float
uniformQuantize(Tensor &w, int bits)
{
    fatalIf(bits < 2 || bits > 16, "unsupported bit-width ", bits);
    const float absmax = w.absMax();
    if (absmax == 0.0f)
        return 1.0f;
    const float qmax = static_cast<float>((1 << (bits - 1)) - 1);
    const float base = absmax / qmax;

    float best_scale = base;
    double best_err = quantMse(w, base, bits);
    for (int i = 1; i <= 60; ++i) {
        const float s = base * (1.0f - 0.015f * static_cast<float>(i));
        if (s <= 0.0f)
            break;
        const double err = quantMse(w, s, bits);
        if (err < best_err) {
            best_err = err;
            best_scale = s;
        }
    }
    for (std::int64_t i = 0; i < w.numel(); ++i)
        w[i] = core::quantizeValue(w[i], best_scale, bits);
    return best_scale;
}

namespace {

/** Shared STE fine-tuning loop for classification and segmentation. */
template <typename DataSet, typename LossFn>
void
steFinetune(nn::Layer &model, const std::vector<nn::Conv2d *> &targets,
            const DataSet &data, LossFn &&loss_fn, const PvqOptions &opts)
{
    // Latent full-precision copies plus fixed per-layer scales.
    std::unordered_map<nn::Conv2d *, Tensor> latent;
    std::unordered_map<nn::Conv2d *, Tensor> velocity;
    std::unordered_map<nn::Conv2d *, float> scales;
    for (nn::Conv2d *conv : targets) {
        latent.emplace(conv, conv->weight().value);
        velocity.emplace(conv, Tensor(conv->weight().value.shape()));
        Tensor q = conv->weight().value;
        scales[conv] = uniformQuantize(q, opts.bits);
        conv->setWeight(q);
    }

    std::vector<nn::Parameter *> other_params;
    for (nn::Parameter *p : model.allParameters()) {
        bool is_target = false;
        for (nn::Conv2d *conv : targets) {
            if (p == &conv->weight()) {
                is_target = true;
                break;
            }
        }
        if (!is_target)
            other_params.push_back(p);
    }
    nn::Sgd other_opt(opts.other_lr, opts.momentum, 0.0f);

    Rng rng(opts.seed);
    const auto &train_set = data.trainSet();
    for (int epoch = 0; epoch < opts.finetune_epochs; ++epoch) {
        std::vector<int> order(train_set.size());
        std::iota(order.begin(), order.end(), 0);
        rng.shuffle(order);
        for (std::size_t start = 0; start < order.size();
             start += static_cast<std::size_t>(opts.batch_size)) {
            const std::size_t end = std::min(order.size(),
                start + static_cast<std::size_t>(opts.batch_size));
            std::vector<int> batch(order.begin()
                + static_cast<std::ptrdiff_t>(start),
                order.begin() + static_cast<std::ptrdiff_t>(end));

            model.zeroGrad();
            Tensor images = data.batchImages(train_set, batch);
            std::vector<int> labels = data.batchLabels(train_set, batch);
            Tensor out = model.forward(images, /*train=*/true);
            nn::LossResult lr = loss_fn(out, labels);
            model.backward(lr.grad);

            // STE: gradient of the quantized weight applied to the latent
            // weight, then re-quantize for the next forward.
            for (nn::Conv2d *conv : targets) {
                Tensor &w = latent.at(conv);
                Tensor &vel = velocity.at(conv);
                const Tensor &g = conv->weight().grad;
                for (std::int64_t i = 0; i < w.numel(); ++i) {
                    vel[i] = opts.momentum * vel[i] + g[i];
                    w[i] -= opts.latent_lr * vel[i];
                }
                Tensor q = w;
                const float s = scales.at(conv);
                for (std::int64_t i = 0; i < q.numel(); ++i)
                    q[i] = core::quantizeValue(q[i], s, opts.bits);
                conv->setWeight(q);
            }
            other_opt.step(other_params);
        }
    }
}

} // namespace

PvqResult
pvqCompressClassifier(nn::Layer &model,
                      const std::vector<nn::Conv2d *> &targets,
                      const nn::ClassificationDataset &data,
                      const PvqOptions &opts)
{
    steFinetune(model, targets, data,
                [](const Tensor &logits, const std::vector<int> &labels) {
                    return nn::softmaxCrossEntropy(logits, labels);
                },
                opts);
    PvqResult res;
    res.accuracy = nn::evalClassifier(model, data, data.testSet());
    res.compression_ratio = 32.0 / opts.bits;
    return res;
}

PvqResult
pvqCompressSegmenter(nn::Layer &model,
                     const std::vector<nn::Conv2d *> &targets,
                     const nn::SegmentationDataset &data,
                     const PvqOptions &opts)
{
    steFinetune(model, targets, data,
                [](const Tensor &logits, const std::vector<int> &labels) {
                    return nn::pixelwiseCrossEntropy(logits, labels);
                },
                opts);
    PvqResult res;
    res.accuracy = nn::evalSegmenterMiou(model, data, data.testSet());
    res.compression_ratio = 32.0 / opts.bits;
    return res;
}

} // namespace mvq::vq
