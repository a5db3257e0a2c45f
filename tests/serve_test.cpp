/**
 * @file
 * Deterministic tests for the batched serving runtime (src/serve). A
 * ManualClock drives every batching decision, so batch composition is a
 * pure function of (submissions, clock advances): coalescing honors the
 * latency deadline and MVQ_SERVE_MAX_BATCH, futures complete in
 * admission order, shutdown drains the queue, and malformed requests are
 * rejected with diagnostics. The model-level test proves the serving
 * contract that makes batching safe at all: a batched forward through
 * CompressedNet is memcmp-identical to sequential single-image forwards
 * (riding the MVQ_SIMD ctest matrix, so the proof holds per ISA).
 *
 * "Not ready" assertions use future::wait_for with a real-time grace
 * period; they are still deterministic in outcome because the fake
 * clock cannot advance on its own — a future that must not complete
 * CANNOT complete, no matter how long the wall waits.
 */

#include <gtest/gtest.h>

#include <chrono>
#include <cstdio>
#include <cstring>
#include <future>
#include <memory>
#include <string>
#include <vector>

#include "common/env.hpp"
#include "common/logging.hpp"
#include "common/random.hpp"
#include "core/io/model_artifact.hpp"
#include "models/synthetic.hpp"
#include "nn/compressed_net.hpp"
#include "serve/server.hpp"

namespace mvq::serve {
namespace {

constexpr auto kGrace = std::chrono::milliseconds(100);

/** Rank-preserving fake model: y = 2x + 1 elementwise. */
Tensor
affineEcho(const Tensor &x)
{
    Tensor y = x;
    for (std::int64_t i = 0; i < y.numel(); ++i)
        y[i] = 2.0f * y[i] + 1.0f;
    return y;
}

/** A [C, H, W] image filled with a constant tag value. */
Tensor
taggedImage(const Shape &chw, float tag)
{
    Tensor t(chw);
    t.fill(tag);
    return t;
}

bool
tensorsBitIdentical(const Tensor &a, const Tensor &b)
{
    return a.shape() == b.shape()
        && std::memcmp(a.data(), b.data(),
                       static_cast<std::size_t>(a.numel()) * sizeof(float))
            == 0;
}

/** Server over the fake clock with an explicit policy. */
struct FakeClockServer
{
    std::shared_ptr<ManualClock> clock = std::make_shared<ManualClock>();
    Shape chw{2, 3, 3};
    std::unique_ptr<Server> server;

    FakeClockServer(std::int64_t max_batch, std::int64_t deadline_us,
                    Server::BatchForward fn = &affineEcho)
    {
        ServeOptions opts;
        opts.max_batch = max_batch;
        opts.deadline_us = deadline_us;
        // Pin the overload policy: CI's hostile-knob matrix runs this
        // suite under MVQ_SERVE_MAX_QUEUE=1 / MVQ_SERVE_REQUEST_TIMEOUT_US=1
        // and must not change what these batching tests observe (the
        // overload paths have their own suite, serve_robustness_test).
        opts.max_queue = 1024;
        opts.request_timeout_us = 0;
        opts.clock = clock;
        server = std::make_unique<Server>(chw, std::move(fn), opts);
    }
};

TEST(ServeOptionsTest, ResolvesUnsetFieldsFromEnvRegistry)
{
    // The registry values themselves depend on the environment the suite
    // runs under (CI's serve step pins MVQ_SERVE_MAX_BATCH), so compare
    // against the registry rather than hard-coded defaults.
    Server s(Shape({2, 3, 3}), &affineEcho);
    EXPECT_EQ(s.maxBatch(), env::int_("MVQ_SERVE_MAX_BATCH", 8));
    EXPECT_EQ(s.deadlineMicros(), env::int_("MVQ_SERVE_DEADLINE_US", 2000));
    EXPECT_EQ(s.maxQueue(), env::int_("MVQ_SERVE_MAX_QUEUE", 1024));
    EXPECT_EQ(s.requestTimeoutMicros(),
              env::int_("MVQ_SERVE_REQUEST_TIMEOUT_US", 0));
    EXPECT_EQ(s.failThreshold(), env::int_("MVQ_SERVE_FAIL_THRESHOLD", 8));
    s.shutdown();
}

TEST(ServeOptionsTest, RejectsInvalidPolicy)
{
    ServeOptions bad_batch;
    bad_batch.max_batch = -2;
    EXPECT_THROW(Server(Shape({2, 3, 3}), &affineEcho, bad_batch),
                 FatalError);
    EXPECT_THROW(Server(Shape({2, 3}), &affineEcho), FatalError);
    EXPECT_THROW(Server(Shape({2, 3, 3}), Server::BatchForward{}),
                 FatalError);
}

TEST(ServeBatchingTest, CoalescesUntilDeadline)
{
    FakeClockServer f(/*max_batch=*/4, /*deadline_us=*/1000);
    std::vector<std::future<Tensor>> futs;
    for (int i = 0; i < 3; ++i)
        futs.push_back(f.server->submit(
            taggedImage(f.chw, static_cast<float>(i))));

    // Three of four slots filled and the clock parked before the
    // deadline: the batcher must hold the window open.
    EXPECT_EQ(futs[0].wait_for(kGrace), std::future_status::timeout);
    f.clock->advance(999);
    EXPECT_EQ(futs[0].wait_for(kGrace), std::future_status::timeout);

    // Reaching the deadline flushes the partial batch.
    f.clock->advance(1);
    for (int i = 0; i < 3; ++i) {
        const Tensor out = futs[static_cast<std::size_t>(i)].get();
        EXPECT_EQ(out.shape(), f.chw);
        EXPECT_FLOAT_EQ(out[0], 2.0f * static_cast<float>(i) + 1.0f);
    }
    const ServerStats st = f.server->stats();
    EXPECT_EQ(st.admitted, 3);
    EXPECT_EQ(st.served, 3);
    EXPECT_EQ(st.batches, 1);
    EXPECT_EQ(st.max_batch_served, 3);
    EXPECT_EQ(st.deadline_flushes, 1);
}

TEST(ServeBatchingTest, FullBatchLaunchesWithoutClockAdvance)
{
    FakeClockServer f(/*max_batch=*/4, /*deadline_us=*/1000000);
    std::vector<std::future<Tensor>> futs;
    for (int i = 0; i < 8; ++i)
        futs.push_back(f.server->submit(
            taggedImage(f.chw, static_cast<float>(i))));
    // Two full batches fire on size alone — the deadline is an hour away
    // and the fake clock never moves.
    for (int i = 0; i < 8; ++i)
        EXPECT_FLOAT_EQ(futs[static_cast<std::size_t>(i)].get()[0],
                        2.0f * static_cast<float>(i) + 1.0f);
    const ServerStats st = f.server->stats();
    EXPECT_EQ(st.batches, 2);
    EXPECT_EQ(st.max_batch_served, 4);
    EXPECT_EQ(st.deadline_flushes, 0);
}

TEST(ServeBatchingTest, OverfullQueueSplitsAtMaxBatch)
{
    FakeClockServer f(/*max_batch=*/4, /*deadline_us=*/1000);
    std::vector<std::future<Tensor>> futs;
    for (int i = 0; i < 10; ++i)
        futs.push_back(f.server->submit(
            taggedImage(f.chw, static_cast<float>(i))));
    // 10 requests, cap 4: two full batches complete on size; the
    // 2-image remainder waits for the deadline.
    for (int i = 0; i < 8; ++i)
        futs[static_cast<std::size_t>(i)].wait();
    EXPECT_EQ(futs[8].wait_for(kGrace), std::future_status::timeout);
    f.clock->advance(1000);
    for (int i = 8; i < 10; ++i)
        EXPECT_FLOAT_EQ(futs[static_cast<std::size_t>(i)].get()[0],
                        2.0f * static_cast<float>(i) + 1.0f);
    const ServerStats st = f.server->stats();
    EXPECT_EQ(st.admitted, 10);
    EXPECT_EQ(st.served, 10);
    EXPECT_EQ(st.batches, 3);
    EXPECT_EQ(st.max_batch_served, 4);
    EXPECT_EQ(st.deadline_flushes, 1);
}

TEST(ServeBatchingTest, FuturesCompleteInAdmissionOrder)
{
    FakeClockServer f(/*max_batch=*/4, /*deadline_us=*/1000);
    std::vector<std::future<Tensor>> futs;
    for (int i = 0; i < 6; ++i)
        futs.push_back(f.server->submit(
            taggedImage(f.chw, static_cast<float>(i))));
    // The first (full) batch is requests 0..3, claimed FIFO; 4 and 5
    // must still be pending when 0..3 are done.
    for (int i = 0; i < 4; ++i)
        EXPECT_FLOAT_EQ(futs[static_cast<std::size_t>(i)].get()[0],
                        2.0f * static_cast<float>(i) + 1.0f);
    EXPECT_EQ(futs[4].wait_for(std::chrono::milliseconds(0)),
              std::future_status::timeout);
    EXPECT_EQ(futs[5].wait_for(std::chrono::milliseconds(0)),
              std::future_status::timeout);
    f.clock->advance(1000);
    for (int i = 4; i < 6; ++i)
        EXPECT_FLOAT_EQ(futs[static_cast<std::size_t>(i)].get()[0],
                        2.0f * static_cast<float>(i) + 1.0f);
}

TEST(ServeBatchingTest, ShutdownDrainsQueue)
{
    FakeClockServer f(/*max_batch=*/100, /*deadline_us=*/1000000000);
    std::vector<std::future<Tensor>> futs;
    for (int i = 0; i < 5; ++i)
        futs.push_back(f.server->submit(
            taggedImage(f.chw, static_cast<float>(i))));
    EXPECT_EQ(futs[0].wait_for(kGrace), std::future_status::timeout);

    // Neither the batch size (100) nor the deadline (forever away on a
    // parked clock) is reachable: only the shutdown drain completes
    // these, and it must complete ALL of them.
    f.server->shutdown();
    for (int i = 0; i < 5; ++i)
        EXPECT_FLOAT_EQ(futs[static_cast<std::size_t>(i)].get()[0],
                        2.0f * static_cast<float>(i) + 1.0f);
    const ServerStats st = f.server->stats();
    EXPECT_EQ(st.served, 5);

    EXPECT_THROW(f.server->submit(taggedImage(f.chw, 9.0f)), FatalError);
    EXPECT_EQ(f.server->stats().rejected, 1);
}

TEST(ServeRejectionTest, MalformedRequestsAreRejectedWithDiagnostics)
{
    FakeClockServer f(/*max_batch=*/4, /*deadline_us=*/1000);
    try {
        f.server->submit(Tensor());
        FAIL() << "zero-size image accepted";
    } catch (const FatalError &e) {
        EXPECT_NE(std::string(e.what()).find("zero-size"),
                  std::string::npos)
            << e.what();
    }
    try {
        f.server->submit(Tensor(Shape({2, 4, 4})));
        FAIL() << "oversized image accepted";
    } catch (const FatalError &e) {
        EXPECT_NE(std::string(e.what()).find("[2, 3, 3]"),
                  std::string::npos)
            << e.what();
    }
    // Batched submissions are rejected too: one image per request.
    EXPECT_THROW(f.server->submit(Tensor(Shape({1, 2, 3, 3}))),
                 FatalError);
    EXPECT_EQ(f.server->stats().rejected, 3);
    EXPECT_EQ(f.server->stats().admitted, 0);
}

TEST(ServeBatchingTest, ForwardExceptionPropagatesToEveryFuture)
{
    auto throwing = [](const Tensor &) -> Tensor {
        fatal("model exploded");
    };
    FakeClockServer f(/*max_batch=*/2, /*deadline_us=*/1000, throwing);
    auto f0 = f.server->submit(taggedImage(f.chw, 0.0f));
    auto f1 = f.server->submit(taggedImage(f.chw, 1.0f));
    EXPECT_THROW(f0.get(), FatalError);
    EXPECT_THROW(f1.get(), FatalError);
    // The batcher survives a failing batch and keeps counting.
    const ServerStats st = f.server->stats();
    EXPECT_EQ(st.batches, 1);
    EXPECT_EQ(st.served, 0);
}

// ---------------------------------------------------------------- model

class ServeNetTest : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        path_ = "/tmp/mvq_serve_test.mvqi";
        core::io::MvqiWriteOptions write_opts;
        core::io::saveArtifact(
            models::synthesizeCompressed(models::edgeServeSpec(),
                                         core::NmPattern{4, 16}, 256,
                                         /*seed=*/11, &write_opts),
            path_, core::io::ArtifactFormat::Mvqi, write_opts);
        artifact_ = core::io::openArtifact(path_);
        net_ = std::make_unique<nn::CompressedNet>(*artifact_);
    }

    void TearDown() override { std::remove(path_.c_str()); }

    Tensor
    randomImage(Rng &rng) const
    {
        Tensor t(Shape({net_->inChannels(), 6, 6}));
        t.fillNormal(rng, 0.0f, 1.0f);
        return t;
    }

    std::string path_;
    std::unique_ptr<core::io::ModelArtifact> artifact_;
    std::unique_ptr<nn::CompressedNet> net_;
};

TEST_F(ServeNetTest, CompressedNetChainsLayersOverSharedOperands)
{
    EXPECT_EQ(net_->layerCount(),
              static_cast<std::int64_t>(models::edgeServeSpec().convs.size()));
    EXPECT_EQ(net_->inChannels(), 8);
    Tensor x(Shape({2, 8, 6, 6}));
    Rng rng(42);
    x.fillNormal(rng, 0.0f, 1.0f);
    const Tensor y = net_->forward(x);
    // Two pad-1 stride-1 3x3 convs: spatial size survives, channels
    // become layer 1's output count.
    EXPECT_EQ(y.shape(), Shape({2, 16, 6, 6}));
    // The net borrows the artifact's cached operands instead of packing
    // its own copy.
    EXPECT_EQ(net_->layer(0).packedOperands().get(),
              artifact_->packedOperands(0).get());
}

TEST_F(ServeNetTest, BatchedForwardBitIdenticalToSequentialForwards)
{
    constexpr int kImages = 8;
    Rng rng(7);
    std::vector<Tensor> images;
    std::vector<Tensor> refs;
    for (int i = 0; i < kImages; ++i) {
        images.push_back(randomImage(rng));
        // Sequential reference: one image per forward (batch of 1).
        Tensor x1(Shape({1, net_->inChannels(), 6, 6}));
        std::memcpy(x1.data(), images.back().data(),
                    static_cast<std::size_t>(images.back().numel())
                        * sizeof(float));
        const Tensor y1 = net_->forward(x1);
        Tensor slab(Shape({y1.dim(1), y1.dim(2), y1.dim(3)}));
        std::memcpy(slab.data(), y1.data(),
                    static_cast<std::size_t>(slab.numel()) * sizeof(float));
        refs.push_back(std::move(slab));
    }

    // One full batch of 8 ...
    {
        ServeOptions opts;
        opts.max_batch = kImages;
        opts.deadline_us = 1000000;
        opts.max_queue = 1024;       // pinned against the hostile-knob
        opts.request_timeout_us = 0; // CI matrix (see FakeClockServer)
        Server server(Shape({net_->inChannels(), 6, 6}),
                      [this](const Tensor &x) { return net_->forward(x); },
                      opts);
        std::vector<std::future<Tensor>> futs;
        for (const Tensor &img : images)
            futs.push_back(server.submit(img));
        for (int i = 0; i < kImages; ++i)
            EXPECT_TRUE(tensorsBitIdentical(
                futs[static_cast<std::size_t>(i)].get(),
                refs[static_cast<std::size_t>(i)]))
                << "image " << i << " differs in the full batch";
        EXPECT_EQ(server.stats().batches, 1);
    }
    // ... and ragged 3/3/2 batches: composition must not matter either.
    {
        ServeOptions opts;
        opts.max_batch = 3;
        opts.deadline_us = 0; // flush whatever is queued immediately
        opts.max_queue = 1024;
        opts.request_timeout_us = 0;
        Server server(Shape({net_->inChannels(), 6, 6}),
                      [this](const Tensor &x) { return net_->forward(x); },
                      opts);
        std::vector<std::future<Tensor>> futs;
        for (const Tensor &img : images)
            futs.push_back(server.submit(img));
        for (int i = 0; i < kImages; ++i)
            EXPECT_TRUE(tensorsBitIdentical(
                futs[static_cast<std::size_t>(i)].get(),
                refs[static_cast<std::size_t>(i)]))
                << "image " << i << " differs under ragged batching";
    }
}

} // namespace
} // namespace mvq::serve
