/**
 * @file
 * The repo benchmark's measuring binary. perfbench/run.py drives it in
 * two steps per run:
 *
 *   mvq_bench synth --workload W --seed S --dir D
 *       Synthesize the workload's compressed model from the seed (4:16
 *       masks, k=256, d=16) and write it as D/model.mvqi plus the same
 *       model as a bit-packed stream, D/model.mvq. Kept out of the timed
 *       process so that process holds only what a server would hold.
 *
 *   mvq_bench run --workload W --seed S --seconds T --trace 0|1 --dir D
 *                 --result R [--trace-out F]
 *       Serve the workload from D/model.mvqi, check every output, and
 *       write {"correct","attempted","failed","metrics"} to R. With
 *       --trace 1 the per-layer metrics are measured instead and the
 *       spans go to F as Chrome trace-event JSON.
 *
 * Every layer is measured from outside, by timing calls into its public
 * functions; the library is used unchanged. See perfbench/README.md for
 * the workloads, the metrics and which layer each metric belongs to.
 */

#include <algorithm>
#include <array>
#include <atomic>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <functional>
#include <future>
#include <iostream>
#include <limits>
#include <map>
#include <memory>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include <sched.h>

#include "common/parallel.hpp"
#include "common/random.hpp"
#include "core/io/model_artifact.hpp"
#include "core/mask_codec.hpp"
#include "models/layer_spec.hpp"
#include "nn/compressed_conv2d.hpp"
#include "nn/compressed_net.hpp"
#include "nn/conv2d.hpp"
#include "serve/server.hpp"
#include "trace.hpp"

namespace {

using namespace mvq;
using perfbench::nowNs;
using perfbench::Tracer;
using models::ConvLayerSpec;

constexpr int kSetupReps = 15;      //!< set-ups per run; setup_s is their median
constexpr std::int64_t kImagePool = 64; //!< distinct request images
constexpr double kDenseRelTol = 1e-4;   //!< compressed vs densified conv
constexpr double kReconcileTol = 0.02;  //!< traced breakdown vs latency
constexpr double kOpenSegmentS = 1.5;   //!< open-loop segment
/**
 * Percentile reported as tail_ms. Beyond p80 the latency
 * tracks the host's vCPU wake-up jitter, not the program: between runs
 * p90 spread up to 32%, p95 20%, p99 42%, against 3% for p80 (see
 * README.md).
 */
constexpr double kEdgeTail = 0.8;
/**
 * Open-loop arrival rate (req/s) of each workload. Low enough that most
 * batches launch on the 2 ms batching deadline: at 4000 req/s vCPU
 * wake-up latencies sat on the critical path and p50 spread 9-30%
 * between runs. At 1000 req/s about three requests share a batch; at
 * 250 req/s most batches hold one.
 */
double
arrivalRate(const std::string &workload)
{
    if (workload == "edge_serve")
        return 1000.0;
    if (workload == "edge_light")
        return 250.0;
    throw std::invalid_argument("unknown workload: " + workload);
}

/** Drain burst: a backlog that stays under the default
 *  MVQ_SERVE_MAX_QUEUE (1024). */
constexpr int kDrainBurst = 960;
/**
 * Pool size of the timed phases (the batcher is the pool's caller). On a
 * shared host whose vCPUs lose 10-20% of their time to steal, fork-join
 * across all cores made a batch-1 ResNet-18 forward swing by 2x between
 * runs. Thread scaling is measured per layer instead (nn.*.thread_eff in
 * the traced run).
 */
constexpr int kComputeThreads = 1;

double
msOf(std::int64_t ns)
{
    return static_cast<double>(ns) / 1e6;
}

/** Interpolated median (copies). */
double
median(std::vector<double> v)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    const std::size_t n = v.size();
    return n % 2 != 0 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/** Nearest-rank percentile, q in (0, 1] (copies). */
double
percentile(std::vector<double> v, double q)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    const double rank = std::ceil(q * static_cast<double>(v.size()));
    const std::size_t idx = static_cast<std::size_t>(
        std::clamp(rank, 1.0, static_cast<double>(v.size())) - 1.0);
    return v[idx];
}

/** Samples needed so that at least ten lie beyond percentile q. */
std::size_t
samplesForTail(double q)
{
    return static_cast<std::size_t>(std::ceil(10.0 / (1.0 - q) - 1e-9));
}

/**
 * Peak resident set of this process so far, in MB (10^6 bytes). VmHWM,
 * not getrusage's ru_maxrss: the latter survives execve, so it would
 * report the launching Python process's peak when that was larger.
 */
double
peakRssMb()
{
    std::ifstream in("/proc/self/status");
    std::string line;
    while (std::getline(in, line))
        if (line.rfind("VmHWM:", 0) == 0)
            return std::stod(line.substr(6)) * 1024.0 / 1e6;
    return 0.0;
}

/** CPUs this process may run on (its affinity mask), at least 1. */
int
usableCpus()
{
    cpu_set_t set;
    CPU_ZERO(&set);
    if (sched_getaffinity(0, sizeof(set), &set) == 0)
        return std::max(1, CPU_COUNT(&set));
    return std::max(1, static_cast<int>(std::thread::hardware_concurrency()));
}

// ------------------------------------------------------------ workloads

/** The served model: serve_load's 3-layer 8x8 conv geometry. */
std::vector<ConvLayerSpec>
edgeConvs()
{
    return {{"serve0", 16, 8, 3, 1, 1, 1, 8, 8},
            {"serve1", 16, 16, 3, 1, 1, 1, 8, 8},
            {"serve2", 16, 16, 3, 1, 1, 1, 8, 8}};
}

/** The layer class a conv belongs to for the nn.* metrics. */
enum ConvClass
{
    kStem,
    kConv3x3,
    kNumClasses
};
const char *const kClassNames[kNumClasses] = {"stem", "conv3x3"};

ConvClass
classify(std::size_t index, const ConvLayerSpec &c)
{
    if (c.kernel != 3)
        throw std::invalid_argument(c.name + ": not a 3x3 conv");
    return index == 0 ? kStem : kConv3x3;
}

// ------------------------------------------------------------ synth

core::CompressedModel
synthesize(const std::vector<ConvLayerSpec> &convs, std::uint64_t seed,
           core::io::MvqiWriteOptions &opts)
{
    using namespace mvq::core;
    CompressedModel model;
    Rng rng(seed);

    Codebook cb;
    cb.qbits = 8;
    cb.scale = 1.0f / 64.0f;
    cb.codewords = Tensor(Shape({256, 16}));
    for (std::int64_t i = 0; i < cb.codewords.numel(); ++i)
        cb.codewords[i] =
            static_cast<float>(rng.intIn(-127, 127)) * cb.scale;
    model.codebooks.push_back(std::move(cb));

    const NmPattern pattern{4, 16};
    const MaskCodec codec(pattern);
    for (const ConvLayerSpec &c : convs) {
        if (c.weightCount() % 16 != 0)
            throw std::runtime_error(c.name + ": not d=16-groupable");
        CompressedLayer l;
        l.name = c.name;
        l.weight_shape =
            Shape({c.out_c, c.in_c / c.groups, c.kernel, c.kernel});
        l.cfg.k = 256;
        l.cfg.d = 16;
        l.cfg.pattern = pattern;
        l.cfg.grouping = Grouping::OutputChannelWise;
        l.cfg.codebook_bits = 8;
        l.codebook_id = 0;
        l.dense_flops = 2 * c.macs();
        const std::int64_t ng = l.weight_shape.numel() / l.cfg.d;
        for (std::int64_t j = 0; j < ng; ++j) {
            l.assignments.push_back(
                static_cast<std::int32_t>(rng.intIn(0, 255)));
            l.mask_codes.push_back(static_cast<std::uint32_t>(
                rng.intIn(0, codec.codeCount() - 1)));
        }
        opts.layer_groups[l.name] = c.groups;
        model.layers.push_back(std::move(l));
    }
    return model;
}

// ------------------------------------------------------------ arguments

struct Args
{
    std::string cmd;
    std::string workload;
    std::string dir;
    std::string result;
    std::string trace_out;
    std::uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
};

Args
parseArgs(int argc, char **argv)
{
    Args a;
    if (argc < 2)
        throw std::invalid_argument("usage: mvq_bench synth|run [--flags]");
    a.cmd = argv[1];
    for (int i = 2; i + 1 < argc; i += 2) {
        const std::string k = argv[i];
        const std::string v = argv[i + 1];
        if (k == "--workload")
            a.workload = v;
        else if (k == "--seed")
            a.seed = std::stoull(v);
        else if (k == "--seconds")
            a.seconds = std::stod(v);
        else if (k == "--trace")
            a.trace = v == "1";
        else if (k == "--dir")
            a.dir = v;
        else if (k == "--result")
            a.result = v;
        else if (k == "--trace-out")
            a.trace_out = v;
        else
            throw std::invalid_argument("unknown flag " + k);
    }
    if (a.workload.empty() || a.dir.empty())
        throw std::invalid_argument("--workload and --dir are required");
    if (!(a.seconds > 0.0))
        throw std::invalid_argument("--seconds must be > 0");
    return a;
}

int
cmdSynth(const Args &a)
{
    arrivalRate(a.workload); // rejects an unknown workload
    const auto convs = edgeConvs();
    core::io::MvqiWriteOptions opts;
    const core::CompressedModel model = synthesize(convs, a.seed, opts);
    core::io::saveArtifact(model, a.dir + "/model.mvqi",
                           core::io::ArtifactFormat::Mvqi, opts);
    core::io::saveArtifact(model, a.dir + "/model.mvq",
                           core::io::ArtifactFormat::Stream);
    return 0;
}

// ------------------------------------------------------------ results

struct Result
{
    bool correct = true;
    std::int64_t attempted = 0;
    std::int64_t failed = 0;
    std::map<std::string, double> metrics;
    std::vector<std::string> problems;

    void
    fail(const std::string &why)
    {
        correct = false;
        problems.push_back(why);
    }
};

bool
writeResult(const Result &r, const std::string &path)
{
    std::ofstream out(path);
    out.precision(17);
    out << "{\"correct\": " << (r.correct ? "true" : "false")
        << ", \"attempted\": " << r.attempted << ", \"failed\": " << r.failed
        << ", \"problems\": [";
    for (std::size_t i = 0; i < r.problems.size(); ++i) {
        std::string p = r.problems[i];
        std::replace(p.begin(), p.end(), '"', '\'');
        out << (i ? ", " : "") << '"' << p << '"';
    }
    out << "], \"metrics\": {";
    bool first = true;
    for (const auto &[k, v] : r.metrics) {
        out << (first ? "" : ", ") << '"' << k << "\": "
            << (std::isfinite(v) ? v : 0.0);
        first = false;
    }
    out << "}}\n";
    return static_cast<bool>(out);
}

// ------------------------------------------------------------ conv inputs

/** One seeded batch-1 input per conv, for the per-conv loops. */
std::vector<Tensor>
convInputs(const std::vector<ConvLayerSpec> &convs, std::uint64_t seed)
{
    Rng rng(seed ^ 0x5eedULL);
    std::vector<Tensor> xs;
    for (const ConvLayerSpec &c : convs) {
        Tensor x(Shape({1, c.in_c, c.in_h, c.in_w}));
        x.fillNormal(rng, 0.0f, 1.0f);
        xs.push_back(std::move(x));
    }
    return xs;
}

// ------------------------------------------------------------ setup

/** Open the .mvq stream copy and materialize every operand (ms). */
double
streamSetupMs(const std::string &path,
              const std::vector<ConvLayerSpec> &specs)
{
    const std::int64_t t0 = nowNs();
    const auto art = core::io::openArtifact(path);
    for (std::size_t i = 0; i < specs.size(); ++i)
        art->packedOperands(static_cast<std::int64_t>(i), specs[i].groups);
    return msOf(nowNs() - t0);
}

/** ops.operand_mb and ops.multirow_share from the packed operands. */
void
operandMetrics(const core::io::ModelArtifact &art, Result &r)
{
    double bytes = 0.0;
    double nnz = 0.0;
    double tiled = 0.0;
    for (std::int64_t i = 0; i < art.layerCount(); ++i)
        for (const GroupedSparseMatrix &g : *art.packedOperands(i)) {
            // What the multi-row path reads per batch-1 forward: tiles
            // and their column/value pools, band index, remainder CSR.
            bytes += static_cast<double>(
                g.tiles.size() * sizeof(GroupedSparseMatrix::Tile)
                + g.cols.size() * sizeof(std::int32_t)
                + g.vals.size() * sizeof(float)
                + g.band_ptr.size() * sizeof(std::int64_t)
                + g.remainder.row_ptr.size() * sizeof(std::int64_t)
                + g.remainder.col_idx.size() * sizeof(std::int32_t)
                + g.remainder.values.size() * sizeof(float));
            nnz += static_cast<double>(g.rows.nnz());
            tiled += static_cast<double>(g.tileNnz());
        }
    r.metrics["ops.operand_mb"] = bytes / 1e6;
    r.metrics["ops.multirow_share"] = nnz > 0.0 ? tiled / nnz : 0.0;
}

/** Set-up samples of one run; setup_s and io.* are their medians. */
struct SetupSamples
{
    std::vector<double> total_s;
    std::vector<double> open_ms;
    std::vector<double> operands_ms;

    std::int64_t
    count() const
    {
        return static_cast<std::int64_t>(total_s.size());
    }

    void
    add(double total, double open, double operands)
    {
        total_s.push_back(total);
        open_ms.push_back(open);
        operands_ms.push_back(operands);
    }

    void
    report(Result &r) const
    {
        r.metrics["setup_s"] = median(total_s);
        r.metrics["io.open_ms"] = median(open_ms);
        r.metrics["io.operands_ms"] = median(operands_ms);
    }
};

/**
 * When the set-ups after the first one are due: evenly over the measured
 * window, so setup_s samples the same stretch of host conditions as the
 * other metrics instead of one moment at process start.
 */
class SetupSchedule
{
  public:
    SetupSchedule(std::int64_t start_ns, double seconds)
        : start_ns_(start_ns),
          step_ns_(static_cast<std::int64_t>(seconds * 1e9 / kSetupReps))
    {
    }

    /** True once per slot, when the next set-up is due at `now_ns`;
     *  slots a long iteration skipped stay due. */
    bool
    due(std::int64_t now_ns)
    {
        if (finished() || now_ns < start_ns_ + next_ * step_ns_)
            return false;
        ++next_;
        return true;
    }

    bool
    finished() const
    {
        return next_ >= kSetupReps;
    }

  private:
    std::int64_t start_ns_;
    std::int64_t step_ns_;
    int next_ = 1; //!< the first set-up runs before the window
};

// ------------------------------------------------------------ conv loops

/** Per-request class times of one closed-loop conv phase (ms). */
using ClassTimes = std::vector<std::array<double, kNumClasses>>;

/**
 * One caller in a closed loop outside the server: each request runs
 * every conv's forward in spec order at batch 1 on its fixed input. Runs
 * until `seconds` have passed and `min_reqs` requests are done.
 */
ClassTimes
runConvPhase(const std::function<Tensor(std::size_t, const Tensor &)> &fwd,
             const std::vector<ConvLayerSpec> &specs,
             const std::vector<Tensor> &inputs, double seconds,
             std::size_t min_reqs)
{
    ClassTimes out;
    const std::int64_t end = nowNs() + static_cast<std::int64_t>(seconds * 1e9);
    while (nowNs() < end || out.size() < min_reqs) {
        std::array<double, kNumClasses> cls{};
        for (std::size_t i = 0; i < specs.size(); ++i) {
            const std::int64_t t0 = nowNs();
            const Tensor y = fwd(i, inputs[i]);
            cls[classify(i, specs[i])] += msOf(nowNs() - t0);
        }
        out.push_back(cls);
    }
    return out;
}

// ------------------------------------------------------------ checks

/** max |y - ref| / max |ref| (shapes must match). */
double
relErr(const Tensor &y, const Tensor &ref)
{
    if (!(y.shape() == ref.shape()))
        return std::numeric_limits<double>::infinity();
    double diff = 0.0;
    double scale = 0.0;
    for (std::int64_t i = 0; i < y.numel(); ++i) {
        diff = std::max(diff, static_cast<double>(std::abs(y[i] - ref[i])));
        scale = std::max(scale, static_cast<double>(std::abs(ref[i])));
    }
    return scale > 0.0 ? diff / scale : diff;
}

/** The densified reference: nn::Conv2d over the reconstructed kernel. */
std::unique_ptr<nn::Conv2d>
denseConv(const core::io::ModelArtifact &art, std::size_t i,
          const ConvLayerSpec &c)
{
    nn::Conv2dConfig cfg;
    cfg.in_channels = c.in_c;
    cfg.out_channels = c.out_c;
    cfg.kernel = c.kernel;
    cfg.stride = c.stride;
    cfg.pad = c.pad;
    cfg.groups = c.groups;
    Rng rng(1);
    auto conv = std::make_unique<nn::Conv2d>(c.name, cfg, rng);
    conv->weight().value = art.model().reconstructLayer(i);
    return conv;
}

/**
 * Every conv of the served model must match its densified nn::Conv2d
 * within kDenseRelTol on its fixed input: the kernels' correctness, which
 * the responses' bit-identity with a batch-1 forward cannot show.
 */
void
checkDense(const nn::CompressedNet &net, const core::io::ModelArtifact &art,
           const std::vector<ConvLayerSpec> &specs,
           const std::vector<Tensor> &inputs, Result &r)
{
    double worst = 0.0;
    for (std::size_t i = 0; i < specs.size(); ++i) {
        const double err = relErr(
            net.layer(static_cast<std::int64_t>(i)).forward(inputs[i]),
            denseConv(art, i, specs[i])->forward(inputs[i], false));
        if (!(err <= kDenseRelTol))
            r.fail(specs[i].name + ": compressed vs dense rel err "
                   + std::to_string(err));
        worst = std::max(worst, err);
    }
    std::cerr << "check: max compressed-vs-dense rel err " << worst << "\n";
}

/**
 * The nn.<class>.* metrics, from batch-1 loops over the served model's
 * convs outside the server: at 1 thread, at `pool` threads (for
 * thread_eff) and densified (nn::Conv2d over reconstructed kernels), each
 * for `seconds`.
 */
void
layerProfile(const nn::CompressedNet &net, const core::io::ModelArtifact &art,
             const std::vector<ConvLayerSpec> &specs,
             const std::vector<Tensor> &inputs, double seconds, int pool,
             Result &r)
{
    const auto compressed = [&net](std::size_t i, const Tensor &x) {
        return net.layer(static_cast<std::int64_t>(i)).forward(x);
    };
    const auto phaseAt = [&](int n) {
        setNumThreads(n);
        ClassTimes t = runConvPhase(compressed, specs, inputs, seconds, 10);
        setNumThreads(kComputeThreads);
        return t;
    };
    const ClassTimes one = phaseAt(1);
    const ClassTimes many = phaseAt(pool);
    std::vector<std::unique_ptr<nn::Conv2d>> dense;
    for (std::size_t i = 0; i < specs.size(); ++i)
        dense.push_back(denseConv(art, i, specs[i]));
    const ClassTimes ref = runConvPhase(
        [&dense](std::size_t i, const Tensor &x) {
            return dense[i]->forward(x, false);
        },
        specs, inputs, seconds, 10);

    std::array<double, kNumClasses> macs{};
    for (std::size_t i = 0; i < specs.size(); ++i)
        macs[classify(i, specs[i])] += static_cast<double>(
            net.layer(static_cast<std::int64_t>(i)).flopsFor(inputs[i]));
    const auto classMedian = [](const ClassTimes &t, int c) {
        std::vector<double> v;
        for (const auto &row : t)
            v.push_back(row[static_cast<std::size_t>(c)]);
        return median(v);
    };
    double total = 0.0;
    for (int c = 0; c < kNumClasses; ++c)
        total += classMedian(one, c);
    for (int c = 0; c < kNumClasses; ++c) {
        const std::string p = std::string("nn.") + kClassNames[c] + ".";
        const double ms = classMedian(one, c);
        r.metrics[p + "ms"] = ms;
        r.metrics[p + "share"] = ms / total;
        r.metrics[p + "gmac_s"] = macs[c] / (ms * 1e-3) / 1e9;
        r.metrics[p + "vs_dense"] = classMedian(ref, c) / ms;
        r.metrics[p + "thread_eff"] = ms / (classMedian(many, c) * pool);
    }
    r.metrics["gen.pool_threads"] = kComputeThreads;
}

/** io.stream_setup_ms (median of 3) and the ops.* metrics. */
void
artifactProfile(const Args &a, const core::io::ModelArtifact &art,
                const std::vector<ConvLayerSpec> &specs, Result &r)
{
    operandMetrics(art, r);
    std::vector<double> stream;
    for (int rep = 0; rep < 3; ++rep)
        stream.push_back(streamSetupMs(a.dir + "/model.mvq", specs));
    r.metrics["io.stream_setup_ms"] = median(stream);
}

// ------------------------------------------------------------ serving

/** One request as the generator and collector saw it. */
struct Req
{
    enum Status
    {
        kOk,
        kShed,     //!< submit refused (RejectedError)
        kWrong,    //!< response differs from the batch-1 reference
        kThrown,   //!< future carried an exception (expired, failed batch)
    };
    std::int64_t due = 0;
    std::int64_t sub0 = 0; //!< submit() called
    std::int64_t sub1 = 0; //!< submit() returned
    std::int64_t get0 = 0; //!< collector reached future::get
    std::int64_t done = 0; //!< future::get returned
    Status status = kOk;
};

/** One batched forward as the injected BatchForward callable saw it. */
struct BatchRec
{
    std::int64_t start = 0;
    std::int64_t end = 0;
    std::int64_t size = 0;
};

/**
 * The serving instance: artifact -> CompressedNet -> serve::Server with
 * its default policy, forwarding through a callable that can record each
 * batch. Not movable: the server's callable points at this object.
 */
struct EdgeStack
{
    std::unique_ptr<core::io::ModelArtifact> artifact;
    std::unique_ptr<nn::CompressedNet> net;
    bool record = false;          //!< touched only while the server idles
    std::vector<BatchRec> batches; //!< written by the batcher thread
    std::unique_ptr<serve::Server> server; //!< last: stops first

    EdgeStack() = default;
    EdgeStack(const EdgeStack &) = delete;
    EdgeStack &operator=(const EdgeStack &) = delete;
};

/** open -> operands -> net -> server -> first response (seconds). */
double
setupEdge(EdgeStack &e, const std::string &path, const Tensor &image,
          Tracer *tr, std::int64_t rep, double *open_ms, double *ops_ms)
{
    const std::int64_t t0 = nowNs();
    e.artifact = core::io::openArtifact(path);
    const std::int64_t t1 = nowNs();
    for (std::int64_t i = 0; i < e.artifact->layerCount(); ++i)
        e.artifact->packedOperands(i);
    const std::int64_t t2 = nowNs();
    e.net = std::make_unique<nn::CompressedNet>(*e.artifact);
    e.server = std::make_unique<serve::Server>(
        Shape({image.dim(0), image.dim(1), image.dim(2)}),
        [&e](const Tensor &x) {
            const std::int64_t s = nowNs();
            Tensor y = e.net->forward(x);
            if (e.record)
                e.batches.push_back({s, nowNs(), x.dim(0)});
            return y;
        },
        serve::ServeOptions::fromEnv());
    const std::int64_t t3 = nowNs();
    e.server->submit(image).get();
    const std::int64_t t4 = nowNs();
    *open_ms = msOf(t1 - t0);
    *ops_ms = msOf(t2 - t1);
    if (tr != nullptr) {
        const std::int64_t root = tr->add("setup", t0, t4, 0, -rep - 1, 3);
        tr->add("io.openArtifact", t0, t1, root, -rep - 1, 3);
        tr->add("io.packedOperands", t1, t2, root, -rep - 1, 3);
        tr->add("serve.construct", t2, t3, root, -rep - 1, 3);
        tr->add("serve.first_response", t3, t4, root, -rep - 1, 3);
    }
    return static_cast<double>(t4 - t0) / 1e9;
}

/**
 * Drive the server from this thread (the generator) while a second
 * thread (the collector) waits on the futures in admission order. Each
 * request is due at start + offsets[k]; the generator sleeps until
 * shortly before that and spins the rest. Every response is memcmp'd
 * against the batch-1 reference of its image.
 */
std::vector<Req>
runLoad(EdgeStack &e, const std::vector<std::int64_t> &offsets_ns,
        const std::vector<Tensor> &images, const std::vector<Tensor> &refs,
        std::int64_t image_base)
{
    const std::size_t n = offsets_ns.size();
    std::vector<Req> reqs(n);
    std::vector<std::future<Tensor>> futs(n);
    std::atomic<std::int64_t> published{0};
    const auto imageOf = [&](std::size_t k) {
        return static_cast<std::size_t>(
            (image_base + static_cast<std::int64_t>(k)) % kImagePool);
    };

    std::thread collector([&] {
        for (std::size_t k = 0; k < n; ++k) {
            std::int64_t seen = published.load(std::memory_order_acquire);
            while (seen <= static_cast<std::int64_t>(k)) {
                published.wait(seen, std::memory_order_acquire);
                seen = published.load(std::memory_order_acquire);
            }
            Req &q = reqs[k];
            if (q.status == Req::kShed)
                continue;
            q.get0 = nowNs();
            try {
                const Tensor y = futs[k].get();
                q.done = nowNs();
                const Tensor &ref = refs[imageOf(k)];
                q.status = y.numel() == ref.numel()
                        && std::memcmp(y.data(), ref.data(),
                                       static_cast<std::size_t>(y.numel())
                                           * sizeof(float))
                            == 0
                    ? Req::kOk
                    : Req::kWrong;
            } catch (const std::exception &) {
                q.done = nowNs();
                q.status = Req::kThrown;
            }
        }
    });

    constexpr std::int64_t kSpinNs = 80'000;
    const std::int64_t start = nowNs() + 1'000'000;
    for (std::size_t k = 0; k < n; ++k) {
        Req &q = reqs[k];
        q.due = start + offsets_ns[k];
        const std::int64_t wait = q.due - nowNs();
        if (wait > kSpinNs)
            std::this_thread::sleep_for(
                std::chrono::nanoseconds(wait - kSpinNs));
        while (nowNs() < q.due)
            std::this_thread::yield();
        q.sub0 = nowNs();
        try {
            futs[k] = e.server->submit(images[imageOf(k)]);
        } catch (const std::exception &) {
            q.status = Req::kShed;
        }
        q.sub1 = nowNs();
        published.store(static_cast<std::int64_t>(k) + 1,
                        std::memory_order_release);
        published.notify_one();
    }
    collector.join();
    return reqs;
}

/** Poisson arrival offsets at `rate`/s covering `seconds`. */
std::vector<std::int64_t>
poissonOffsets(double rate, double seconds, Rng &rng)
{
    std::vector<std::int64_t> out;
    double t = 0.0;
    for (;;) {
        t += -std::log(1.0 - static_cast<double>(rng.uniform(0.0f, 0.999999f)))
            / rate;
        if (t >= seconds)
            return out;
        out.push_back(static_cast<std::int64_t>(t * 1e9));
    }
}

struct PhaseCount
{
    std::int64_t sent = 0;
    std::int64_t succeeded = 0;
    std::int64_t failed = 0;
    std::int64_t wrong = 0;
};

PhaseCount
countPhase(const std::vector<Req> &reqs, PhaseCount c = {})
{
    for (const Req &q : reqs) {
        ++c.sent;
        c.succeeded += q.status == Req::kOk ? 1 : 0;
        c.failed += q.status != Req::kOk ? 1 : 0;
        c.wrong += q.status == Req::kWrong ? 1 : 0;
    }
    return c;
}

/** Latency from the due time of each succeeded request (ms). */
std::vector<double>
dueLatencies(const std::vector<Req> &reqs)
{
    std::vector<double> v;
    for (const Req &q : reqs)
        if (q.status == Req::kOk)
            v.push_back(msOf(q.done - q.due));
    return v;
}

/** `bursts` drain bursts of kDrainBurst back-to-back submits: images/s
 *  each. */
std::vector<double>
drainRates(EdgeStack &e, int bursts,
           const std::vector<Tensor> &images, const std::vector<Tensor> &refs,
           PhaseCount &count)
{
    const std::vector<std::int64_t> offsets(
        static_cast<std::size_t>(kDrainBurst), 0);
    std::vector<double> rates;
    for (int b = 0; b < bursts; ++b) {
        const std::vector<Req> reqs = runLoad(e, offsets, images, refs, b);
        const std::int64_t first = reqs.front().sub0;
        std::int64_t last = first;
        for (const Req &q : reqs)
            last = std::max(last, q.done);
        rates.push_back(static_cast<double>(kDrainBurst)
                        / (static_cast<double>(last - first) / 1e9));
        count = countPhase(reqs, count);
    }
    return rates;
}

/**
 * The serve.* metrics and spans of a recorded open-loop phase. Requests
 * are mapped onto batches through FIFO order (admitted request j runs in
 * the batch whose cumulative size first exceeds j); a request whose
 * mapped batch starts before its submit or ends after its response is an
 * inconsistency. Returns the inconsistent share.
 */
double
serveBreakdown(const std::vector<Req> &reqs,
               const std::vector<BatchRec> &batches, Tracer &tr,
               Result &r)
{
    std::vector<double> submit_us, queue_ms, lag_ms, fwd_ms;
    std::int64_t bad = 0;
    std::int64_t mapped = 0;
    std::size_t b = 0;
    std::int64_t used = 0;
    for (const BatchRec &br : batches)
        fwd_ms.push_back(msOf(br.end - br.start));
    for (std::size_t k = 0; k < reqs.size(); ++k) {
        const Req &q = reqs[k];
        if (q.status == Req::kShed)
            continue;
        while (b < batches.size() && used == batches[b].size) {
            ++b;
            used = 0;
        }
        const std::int64_t req = static_cast<std::int64_t>(k) + 1;
        const std::int64_t root = tr.add("request", q.due, q.done, 0, req, 0);
        tr.add("gen.late", q.due, q.sub0, root, req, 0);
        submit_us.push_back(static_cast<double>(q.sub1 - q.sub0) / 1e3);
        if (b == batches.size()) {
            ++bad;
            continue;
        }
        ++used;
        ++mapped;
        const BatchRec &br = batches[b];
        if (br.start < q.sub0 || q.done < br.end) {
            ++bad;
            continue;
        }
        const std::int64_t qw =
            tr.add("serve.queue_wait", q.sub0, br.start, root, req, 0);
        tr.add("serve.submit", q.sub0, q.sub1, qw, req, 0);
        tr.add("serve.forward", br.start, br.end, root, req, 2);
        tr.add("serve.completion_lag", br.end, q.done, root, req, 1);
        tr.add("future.get", q.get0, q.done, root, req, 1);
        if (q.status == Req::kOk) {
            queue_ms.push_back(msOf(br.start - q.sub0));
            lag_ms.push_back(msOf(q.done - br.end));
        }
    }
    for (const BatchRec &br : batches)
        tr.add("serve.batch_forward", br.start, br.end, 0, 0, 2);
    std::int64_t batched = 0;
    for (const BatchRec &br : batches)
        batched += br.size;
    if (batched != mapped)
        bad += std::abs(batched - mapped);

    r.metrics["serve.submit_us"] = median(submit_us);
    r.metrics["serve.queue_wait_ms_p50"] = percentile(queue_ms, 0.50);
    r.metrics["serve.queue_wait_ms_p99"] = percentile(queue_ms, 0.99);
    r.metrics["serve.forward_ms"] = median(fwd_ms);
    r.metrics["serve.completion_lag_ms"] = median(lag_ms);
    r.metrics["serve.batch_size_mean"] =
        batches.empty() ? 0.0
                        : static_cast<double>(batched)
                / static_cast<double>(batches.size());
    return reqs.empty() ? 0.0
                        : static_cast<double>(bad)
            / static_cast<double>(reqs.size());
}

/**
 * Both workloads: the 3-layer 8x8 model behind serve::Server. Open-loop
 * segments of seeded Poisson arrivals at the workload's rate alternate
 * with drain bursts of kDrainBurst back-to-back submits.
 */
void
runServe(const Args &a, Result &r)
{
    const std::vector<ConvLayerSpec> specs = edgeConvs();
    const std::string path = a.dir + "/model.mvqi";
    const double rate = arrivalRate(a.workload);
    // Generator + collector + pool (the batcher is the pool's caller
    // thread) stay within the host's cores; thread_eff is measured at the
    // cores the load threads leave.
    const int spare = std::max(1, usableCpus() - 2);
    setNumThreads(kComputeThreads);
    Tracer tracer;
    Tracer *tr = a.trace ? &tracer : nullptr;

    Rng rng(a.seed);
    std::vector<Tensor> images;
    for (std::int64_t i = 0; i < kImagePool; ++i) {
        Tensor img(Shape({specs[0].in_c, specs[0].in_h, specs[0].in_w}));
        img.fillNormal(rng, 0.0f, 1.0f);
        images.push_back(std::move(img));
    }
    const std::vector<Tensor> inputs = convInputs(specs, a.seed);

    EdgeStack e;
    SetupSamples samples;
    const auto setUp = [&] {
        e.server.reset();
        e.net.reset();
        e.artifact.reset();
        double open = 0.0;
        double ops = 0.0;
        const double total =
            setupEdge(e, path, images[0], tr, samples.count(), &open, &ops);
        samples.add(total, open, ops);
    };
    setUp();

    std::vector<Tensor> refs;
    for (const Tensor &img : images)
        refs.push_back(e.net->forward(
            img.reshaped(Shape({1, img.dim(0), img.dim(1), img.dim(2)}))));
    runLoad(e, poissonOffsets(rate, 0.2, rng), images, refs, 0); // warm

    const auto openPhase = [&](double seconds, bool record) {
        e.batches.clear();
        e.record = record;
        std::vector<Req> reqs =
            runLoad(e, poissonOffsets(rate, seconds, rng), images, refs, 0);
        e.record = false;
        return reqs;
    };
    if (!a.trace) {
        // Open-loop segments alternate with drain bursts for the whole
        // run, with the set-ups spread between them, so every metric
        // samples the same host conditions. Each segment starts on an
        // idle server: its predecessor's burst has been fully collected.
        // Only per-request latencies outlive a segment, reserved up
        // front, so peak RSS reflects the server rather than run length.
        std::vector<double> lat;
        lat.reserve(static_cast<std::size_t>(rate * a.seconds * 1.2) + 1024);
        PhaseCount c;
        const std::int64_t start = nowNs();
        const std::int64_t end =
            start + static_cast<std::int64_t>(a.seconds * 1e9);
        SetupSchedule schedule(start, a.seconds);
        while (nowNs() < end || !schedule.finished()) {
            while (schedule.due(nowNs()))
                setUp();
            const std::vector<Req> seg = openPhase(kOpenSegmentS, false);
            for (const Req &q : seg)
                if (q.status == Req::kOk)
                    lat.push_back(msOf(q.done - q.due));
            c = countPhase(seg, c);
            // The drain bursts are the only traffic that fills batches to
            // max_batch, so their responses are checked here too. Their
            // rate is not reported end to end: it tracks the host's speed
            // (see README.md) and is serve.drain_img_s in the traced run.
            drainRates(e, 2, images, refs, c);
        }
        samples.report(r);
        r.metrics["peak_rss_mb"] = peakRssMb();
        r.metrics["p50_ms"] = median(lat);
        r.metrics["tail_ms"] = percentile(lat, kEdgeTail);
        r.metrics["image_mb"] =
            static_cast<double>(e.artifact->sizeBytes()) / 1e6;
        if (lat.size() < samplesForTail(kEdgeTail))
            r.fail("too few samples for the tail percentile");
        r.attempted = c.sent;
        r.failed = c.failed;
        if (c.wrong > 0)
            r.fail(std::to_string(c.wrong) + " responses differ from the "
                   "batch-1 reference");
        r.metrics["success_ratio"] = static_cast<double>(c.succeeded)
            / static_cast<double>(c.sent);
        checkDense(*e.net, *e.artifact, specs, inputs, r);
        return;
    }

    // The traced run's phases are long, so its set-ups run up front.
    while (samples.count() < kSetupReps)
        setUp();
    samples.report(r);
    const serve::ServerStats st0 = e.server->stats();
    const std::vector<Req> plain = openPhase(a.seconds * 0.3, false);
    const serve::ServerStats st_traced = e.server->stats();
    const std::vector<Req> traced = openPhase(a.seconds * 0.3, true);
    const serve::ServerStats st_open = e.server->stats();
    const double reconcile = serveBreakdown(traced, e.batches, tracer, r);
    PhaseCount drained;
    r.metrics["serve.drain_img_s"] =
        median(drainRates(e, 5, images, refs, drained));
    const serve::ServerStats st1 = e.server->stats();
    const PhaseCount oc = countPhase(traced, countPhase(plain));
    double late = 0.0;
    for (const auto *reqs : {&plain, &traced})
        for (const Req &q : *reqs)
            late = std::max(late, msOf(q.sub0 - q.due));
    r.metrics["gen.open.sent"] = static_cast<double>(oc.sent);
    r.metrics["gen.open.succeeded"] = static_cast<double>(oc.succeeded);
    r.metrics["gen.open.failed"] = static_cast<double>(oc.failed);
    r.metrics["gen.drain.sent"] = static_cast<double>(drained.sent);
    r.metrics["gen.drain.succeeded"] = static_cast<double>(drained.succeeded);
    r.metrics["gen.drain.failed"] = static_cast<double>(drained.failed);
    r.metrics["gen.late_ms_max"] = late;
    const double batches =
        static_cast<double>(st_open.batches - st_traced.batches);
    r.metrics["serve.deadline_flush_ratio"] = batches > 0.0
        ? static_cast<double>(st_open.deadline_flushes
                              - st_traced.deadline_flushes)
            / batches
        : 0.0;
    r.metrics["serve.shed"] = static_cast<double>(st1.shed - st0.shed);
    r.metrics["serve.expired"] = static_cast<double>(st1.expired - st0.expired);

    layerProfile(*e.net, *e.artifact, specs, inputs, a.seconds * 0.1, spare,
                 r);
    artifactProfile(a, *e.artifact, specs, r);
    checkDense(*e.net, *e.artifact, specs, inputs, r);

    const std::vector<double> lat_plain = dueLatencies(plain);
    r.metrics["trace.overhead_ms"] =
        median(dueLatencies(traced)) - median(lat_plain);
    r.metrics["trace.reconcile_err"] = reconcile;
    r.metrics["trace.spans"] = static_cast<double>(tracer.spans().size());
    if (!(reconcile <= kReconcileTol))
        r.fail("queue wait + forward + completion lag miss the request "
               "latency for a share " + std::to_string(reconcile));
    const PhaseCount all = countPhase(plain, countPhase(traced, drained));
    r.attempted = all.sent;
    r.failed = all.failed;
    if (all.wrong > 0)
        r.fail(std::to_string(all.wrong) + " responses differ from the "
               "batch-1 reference");
    if (!a.trace_out.empty()
        && !tracer.writeChromeJson(a.trace_out,
                                   {"generator", "collector", "batcher",
                                    "main"}))
        r.fail("cannot write " + a.trace_out);
}

} // namespace

int
main(int argc, char **argv)
{
    try {
        const Args a = parseArgs(argc, argv);
        if (a.cmd == "synth")
            return cmdSynth(a);
        if (a.cmd != "run" || a.result.empty())
            throw std::invalid_argument("expected `synth` or `run --result`");
        Result r;
        runServe(a, r);
        for (const std::string &p : r.problems)
            std::cerr << "check failed: " << p << "\n";
        if (!writeResult(r, a.result))
            throw std::runtime_error("cannot write " + a.result);
        return 0;
    } catch (const std::exception &ex) {
        std::cerr << "mvq_bench: " << ex.what() << "\n";
        return 2;
    }
}
