#include "workloads.hh"

#include <time.h>

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <iterator>
#include <map>
#include <memory>
#include <numeric>
#include <optional>
#include <stdexcept>

#include "align/edit_distance.hh"
#include "align/gestalt.hh"
#include "analysis/accuracy.hh"
#include "checks.hh"
#include "cluster/shard_cluster.hh"
#include "core/channel_simulator.hh"
#include "core/ids_model.hh"
#include "core/profiler.hh"
#include "core/wetlab.hh"
#include "data/io.hh"
#include "pipeline/archival_pipeline.hh"
#include "reconstruct/bma.hh"
#include "reconstruct/iterative.hh"
#include "spans.hh"

namespace e2e
{

using namespace dnasim;

namespace
{

// Workload make-up. The pool workloads use the wetlab generator's
// defaults (110 bases, mean coverage 26.97, 5.9 % error) and differ
// only in size; README.md gives the reasons for each number.
constexpr size_t kCalibratePoolClusters = 2000;
constexpr size_t kClusterPoolClusters = 2000;
constexpr size_t kArchiveFileBytes = 24 * 1024;
constexpr size_t kArchiveCoverage = 6;
constexpr double kArchiveErrorRate = 0.04;
/// The archive file does not depend on --seed: on a few random files
/// the roundtrip reports success with wrong bytes (an 8-bit frame CRC
/// passes a wrong strand), so a seeded file would fail on some seeds.
constexpr uint64_t kArchiveFileSeed = 0xa4c417e;

// The dnasim CLI's default --seed of each verb, so an operation draws
// what the verb draws on the same input.
constexpr uint64_t kSimulateSeed = 0x51a70;
constexpr uint64_t kClusterSeed = 0xc105;
constexpr uint64_t kReconstructSeed = 0x4ec0;
constexpr uint64_t kRoundtripSeed = 0x3071;

/// Every per-layer metric, in BENCHMARK.json order, with its unit.
const std::vector<std::pair<std::string, std::string>> &
perLayerMetrics()
{
    static const std::vector<std::pair<std::string, std::string>> m = {
        {"data.read_evyat_s", "s"},
        {"core.profiler.calibrate_s", "s"},
        {"core.profiler.pairs", "count"},
        {"align.gestalt_positions_s", "s"},
        {"align.editops_rng_s", "s"},
        {"align.edit_distance_s", "s"},
        {"core.channel.simulate_s", "s"},
        {"core.channel.reads", "count"},
        {"cluster.cluster_s", "s"},
        {"cluster.clusters", "count"},
        {"cluster.split_ratio", "ratio"},
        {"cluster.purity", "ratio"},
        {"reconstruct.iterative_s", "s"},
        {"reconstruct.bma_s", "s"},
        {"reconstruct.clusters", "count"},
        {"analysis.strand_acc_iterative", "ratio"},
        {"analysis.strand_acc_bma", "ratio"},
        {"analysis.char_acc_iterative", "ratio"},
        {"analysis.char_acc_bma", "ratio"},
        {"pipeline.store_s", "s"},
        {"pipeline.stores_per_op", "count"},
        {"pipeline.retrieve_s", "s"},
        {"pipeline.crc_rejects", "count"},
        {"pipeline.stripes_failed", "count"},
        {"pipeline.frames_recovered", "count"},
        {"host.cpu_per_wall", "ratio"},
        {"host.nivcsw", "count"},
        {"host.data.read_evyat.cpu_per_wall", "ratio"},
        {"host.data.read_evyat.nivcsw", "count"},
        {"host.core.profiler.calibrate.cpu_per_wall", "ratio"},
        {"host.core.profiler.calibrate.nivcsw", "count"},
        {"host.core.channel.simulate_like.cpu_per_wall", "ratio"},
        {"host.core.channel.simulate_like.nivcsw", "count"},
        {"host.cluster.cluster_sharded.cpu_per_wall", "ratio"},
        {"host.cluster.cluster_sharded.nivcsw", "count"},
        {"host.analysis.evaluate_iterative.cpu_per_wall", "ratio"},
        {"host.analysis.evaluate_iterative.nivcsw", "count"},
        {"host.analysis.evaluate_bma.cpu_per_wall", "ratio"},
        {"host.analysis.evaluate_bma.nivcsw", "count"},
        {"host.pipeline.store.cpu_per_wall", "ratio"},
        {"host.pipeline.store.nivcsw", "count"},
        {"host.pipeline.round_trip.cpu_per_wall", "ratio"},
        {"host.pipeline.round_trip.nivcsw", "count"},
        {"obs.trace_overhead_s", "s"},
    };
    return m;
}

/// Which per-layer time each span's self time counts toward. The
/// benchmark's spans and the program's own (obs::ScopedTrace names)
/// both appear.
const std::map<std::string, std::string> &
layerOfSpan()
{
    static const std::map<std::string, std::string> m = {
        {"data.read_evyat", "data.read_evyat_s"},
        {"core.profiler.calibrate", "core.profiler.calibrate_s"},
        {"profiler.calibrate", "core.profiler.calibrate_s"},
        {"core.channel.simulate_like", "core.channel.simulate_s"},
        {"channel.simulateLike", "core.channel.simulate_s"},
        {"channel.simulate", "core.channel.simulate_s"},
        {"cluster.cluster_sharded", "cluster.cluster_s"},
        {"cluster.sharded", "cluster.cluster_s"},
        {"cluster.shard.merge", "cluster.cluster_s"},
        {"cluster.sketch", "cluster.cluster_s"},
        {"cluster.greedy", "cluster.cluster_s"},
        {"cluster.sketch.signatures", "cluster.cluster_s"},
        {"reconstruct.iterative", "reconstruct.iterative_s"},
        {"reconstruct.bma", "reconstruct.bma_s"},
        {"pipeline.store", "pipeline.store_s"},
        {"pipeline.retrieve", "pipeline.retrieve_s"},
        {"align.gestalt_positions", "align.gestalt_positions_s"},
        {"align.editops_rng", "align.editops_rng_s"},
        {"align.edit_distance", "align.edit_distance_s"},
    };
    return m;
}

/// Benchmark spans around a top-level layer call, reported with host
/// usage (CPU per wall second, involuntary switches per call).
const std::vector<std::string> &
hostLayers()
{
    static const std::vector<std::string> m = {
        "data.read_evyat",
        "core.profiler.calibrate",
        "core.channel.simulate_like",
        "cluster.cluster_sharded",
        "analysis.evaluate_iterative",
        "analysis.evaluate_bma",
        "pipeline.store",
        "pipeline.round_trip",
    };
    return m;
}

/// Layer metrics measured once per run rather than per operation.
bool
perRunLayer(const std::string &metric)
{
    return metric == "data.read_evyat_s" || metric.starts_with("align.");
}

std::string
inputPath(const std::string &dir, const std::string &name)
{
    return dir + "/" + name;
}

Bytes
readBytes(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    if (!in)
        throw std::runtime_error("cannot open input '" + path + "'");
    return Bytes((std::istreambuf_iterator<char>(in)),
                 std::istreambuf_iterator<char>());
}

Bytes
randomBytes(Rng rng, size_t n)
{
    Bytes bytes(n);
    for (auto &b : bytes)
        b = static_cast<uint8_t>(rng.uniformInt(0, 255));
    return bytes;
}

void
writeBytes(const std::string &path, const Bytes &bytes)
{
    std::ofstream out(path, std::ios::binary);
    out.write(reinterpret_cast<const char *>(bytes.data()),
              static_cast<std::streamsize>(bytes.size()));
    if (!out.flush())
        throw std::runtime_error("cannot write input '" + path + "'");
}

Dataset
loadPool(const std::string &dir, Tracer *tracer)
{
    ScopedSpan span(tracer, "data.read_evyat");
    return readEvyatFile(inputPath(dir, "pool.evyat"));
}

double
median(std::vector<double> v)
{
    std::sort(v.begin(), v.end());
    const size_t n = v.size();
    return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double
ratio(double num, double den)
{
    return den == 0.0 ? 0.0 : num / den;
}

double
peakRssMib()
{
    std::ifstream status("/proc/self/status");
    std::string line;
    while (std::getline(status, line))
        if (line.starts_with("VmHWM:"))
            return std::stod(line.substr(6)) / 1024.0;
    return 0.0;
}

/** Collects check failures, each once. */
class CheckLog
{
  public:
    void
    add(const std::string &failure)
    {
        if (!failure.empty() &&
            std::find(failures_.begin(), failures_.end(), failure) ==
                failures_.end())
            failures_.push_back(failure);
    }
    std::vector<std::string> take() { return std::move(failures_); }

  private:
    std::vector<std::string> failures_;
};

/** Per-layer counts a workload reports from its last round. */
using Counts = std::map<std::string, double>;

class Workload
{
  public:
    virtual ~Workload() = default;

    /** Load the inputs from @p dir and build what the operations
     *  use. This is the timed set-up. */
    virtual void setup(const std::string &dir, Tracer *tracer) = 0;

    virtual size_t opsPerRound() const = 0;

    /** Reads one round pushes through its main path (valid after
     *  the first round). */
    virtual double readsPerRound() const = 0;

    /** Run one round; returns the number of operations that failed. */
    virtual size_t runRound(Tracer *tracer) = 0;

    /** Check the last round's outputs. Later rounds must reproduce
     *  the outputs of the @p first one. */
    virtual void checkRound(CheckLog &log, bool first) = 0;

    /** Checks too costly for every round, once per run. */
    virtual void finalChecks(CheckLog &) {}

    /** Traced extra work after the rounds, measured once per run. */
    virtual void probe(Tracer &) {}

    /** Per-layer counts of the last round, per operation. */
    virtual Counts counts() const = 0;
};

// calibrate_simulate ------------------------------------------------

class CalibrateSimulate : public Workload
{
  public:
    void
    setup(const std::string &dir, Tracer *tracer) override
    {
        real_ = loadPool(dir, tracer);
        reads_ = real_.totalCopies();
    }

    size_t opsPerRound() const override { return 1; }
    double readsPerRound() const override { return reads_; }

    size_t
    runRound(Tracer *tracer) override
    {
        ScopedSpan op(tracer, "op.calibrate_simulate");
        {
            ScopedSpan span(tracer, "core.profiler.calibrate");
            profile_ = profiler_.calibrate(real_);
        }
        std::optional<IdsChannelModel> model;
        {
            ScopedSpan span(tracer, "core.model.second_order");
            model.emplace(IdsChannelModel::secondOrder(profile_));
        }
        ChannelSimulator sim(*model);
        Rng rng(kSimulateSeed);
        ScopedSpan span(tracer, "core.channel.simulate_like");
        simulated_ = sim.simulateLike(real_, rng);
        return 0;
    }

    void
    checkRound(CheckLog &log, bool first) override
    {
        log.add(checkCalibratedRate(profile_,
                                    WetlabConfig{}.total_error_rate));
        log.add(checkSimulatedShape(real_, simulated_));
        log.add(checkSimulatedErrorRate(simulated_, profile_, 13));
        if (first)
            first_profile_ = profile_.str();
        else if (profile_.str() != first_profile_)
            log.add("calibrated profile differs between rounds");
    }

    void
    probe(Tracer &tracer) override
    {
        // The profiler's kernels, each timed on its own, single-
        // threaded, over the pairs calibrate() aligns: Myers
        // distance, the Appendix-B edit script with the profiler's
        // per-cluster tie-break streams, and gestalt positions for
        // the pairs the profiler keeps.
        const ProfilerOptions options;
        MyersPattern pattern;
        {
            ScopedSpan span(&tracer, "align.edit_distance");
            for (const auto &cluster : real_) {
                if (cluster.reference.empty())
                    continue;
                pattern.assign(cluster.reference);
                for (const auto &copy : cluster.copies)
                    pattern.distance(copy);
            }
        }
        std::vector<uint8_t> keep;
        {
            ScopedSpan span(&tracer, "align.editops_rng");
            Rng root(options.seed);
            std::vector<Rng> streams =
                forkClusterStreams(root, real_.size());
            std::vector<EditOp> ops;
            for (size_t i = 0; i < real_.size(); ++i) {
                const Cluster &cluster = real_[i];
                if (cluster.reference.empty())
                    continue;
                pattern.assign(cluster.reference);
                for (const auto &copy : cluster.copies) {
                    editOpsInto(pattern, cluster.reference, copy,
                                &streams[i], ops);
                    keep.push_back(
                        static_cast<double>(numErrors(ops)) <=
                        options.max_copy_error_frac *
                            static_cast<double>(cluster.reference.size()));
                }
            }
        }
        {
            ScopedSpan span(&tracer, "align.gestalt_positions");
            size_t pair = 0;
            for (const auto &cluster : real_) {
                if (cluster.reference.empty())
                    continue;
                for (const auto &copy : cluster.copies)
                    if (keep[pair++])
                        gestaltErrorPositions(cluster.reference, copy);
            }
        }
        pairs_ = static_cast<double>(
            std::count(keep.begin(), keep.end(), uint8_t{1}));
    }

    Counts
    counts() const override
    {
        return {{"core.profiler.pairs", pairs_},
                {"core.channel.reads",
                 static_cast<double>(simulated_.totalCopies())}};
    }

  private:
    Dataset real_;
    double reads_ = 0;
    ErrorProfiler profiler_;
    ErrorProfile profile_;
    Dataset simulated_;
    std::string first_profile_;
    double pairs_ = 0;
};

// cluster_reconstruct -----------------------------------------------

class ClusterReconstruct : public Workload
{
  public:
    void
    setup(const std::string &dir, Tracer *tracer) override
    {
        real_ = loadPool(dir, tracer);
        // Pool every copy with its true origin and shuffle both
        // through one permutation, as `dnasim cluster` does.
        std::vector<Strand> pool;
        std::vector<size_t> origins;
        for (size_t i = 0; i < real_.size(); ++i) {
            for (const auto &copy : real_[i].copies) {
                pool.push_back(copy);
                origins.push_back(i);
            }
            non_empty_origins_ += real_[i].copies.empty() ? 0 : 1;
        }
        std::vector<size_t> perm(pool.size());
        std::iota(perm.begin(), perm.end(), size_t{0});
        Rng rng(kClusterSeed);
        rng.shuffle(perm);
        shuffled_.resize(pool.size());
        origins_.resize(pool.size());
        for (size_t i = 0; i < perm.size(); ++i) {
            shuffled_[i] = std::move(pool[perm[i]]);
            origins_[i] = origins[perm[i]];
        }
    }

    size_t opsPerRound() const override { return 1; }
    double readsPerRound() const override { return shuffled_.size(); }

    size_t
    runRound(Tracer *tracer) override
    {
        ScopedSpan op(tracer, "op.cluster_reconstruct");
        {
            ScopedSpan span(tracer, "cluster.cluster_sharded");
            clusters_ = clusterReadsSharded(StrandPoolView(shuffled_),
                                            options_, 1);
        }
        {
            ScopedSpan span(tracer, "cluster.score");
            purity_ = scoreClustering(clusters_, origins_);
        }
        iterative_acc_ = evaluate(tracer, iterative_,
                                  "analysis.evaluate_iterative",
                                  "reconstruct.iterative");
        bma_acc_ = evaluate(tracer, bma_, "analysis.evaluate_bma",
                            "reconstruct.bma");
        return 0;
    }

    void
    checkRound(CheckLog &log, bool first) override
    {
        log.add(checkPartition(clusters_, shuffled_.size()));
        if (first) {
            first_clusters_ = clusters_;
            first_iterative_ = iterative_acc_;
            first_bma_ = bma_acc_;
            return;
        }
        auto same = [](const AccuracyResult &a, const AccuracyResult &b) {
            return a.num_clusters == b.num_clusters &&
                   a.num_perfect == b.num_perfect &&
                   a.num_chars_correct == b.num_chars_correct;
        };
        bool same_clusters = clusters_.size() == first_clusters_.size();
        for (size_t c = 0; same_clusters && c < clusters_.size(); ++c)
            same_clusters =
                clusters_[c].members == first_clusters_[c].members;
        if (!same_clusters)
            log.add("clustering differs between rounds");
        if (!same(iterative_acc_, first_iterative_) ||
            !same(bma_acc_, first_bma_))
            log.add("reconstruction accuracy differs between rounds");
    }

    void
    finalChecks(CheckLog &log) override
    {
        log.add(checkWithinThreshold(clusters_, shuffled_,
                                     options_.distance_threshold));
        // Re-derive the estimates evaluateAccuracy() scored (same
        // algorithm, same seed) and check them here.
        for (auto [algo, acc] :
             {std::pair<const Reconstructor *, AccuracyResult>{
                  &iterative_, iterative_acc_},
              {&bma_, bma_acc_}}) {
            Rng rng(kReconstructSeed);
            std::vector<Strand> estimates =
                reconstructAll(real_, *algo, rng);
            log.add(checkDesignLength(real_, estimates));
            log.add(checkAccuracyRecount(real_, estimates, acc));
            log.add(checkBeatsFirstCopy(real_, estimates));
        }
    }

    Counts
    counts() const override
    {
        return {
            {"cluster.clusters", static_cast<double>(clusters_.size())},
            {"cluster.split_ratio",
             ratio(static_cast<double>(clusters_.size()),
                   static_cast<double>(non_empty_origins_))},
            {"cluster.purity", purity_.purity()},
            {"analysis.strand_acc_iterative", iterative_acc_.perStrand()},
            {"analysis.strand_acc_bma", bma_acc_.perStrand()},
            {"analysis.char_acc_iterative", iterative_acc_.perChar()},
            {"analysis.char_acc_bma", bma_acc_.perChar()},
        };
    }

  private:
    AccuracyResult
    evaluate(Tracer *tracer, const Reconstructor &algo,
             const char *eval_span, const char *call_span)
    {
        ScopedSpan span(tracer, eval_span);
        Rng rng(kReconstructSeed);
        if (tracer == nullptr)
            return evaluateAccuracy(real_, algo, rng);
        TracedReconstructor traced(algo, call_span, *tracer);
        traced.setParent(tracer->current());
        return evaluateAccuracy(real_, traced, rng);
    }

    Dataset real_;
    size_t non_empty_origins_ = 0;
    std::vector<Strand> shuffled_;
    std::vector<size_t> origins_;
    const ClusterOptions options_{};
    const Iterative iterative_{};
    const BmaLookahead bma_{};
    std::vector<ReadCluster> clusters_;
    ClusterPurity purity_;
    AccuracyResult iterative_acc_;
    AccuracyResult bma_acc_;
    std::vector<ReadCluster> first_clusters_;
    AccuracyResult first_iterative_;
    AccuracyResult first_bma_;
};

// archive_roundtrip -------------------------------------------------

class ArchiveRoundtrip : public Workload
{
  public:
    void
    setup(const std::string &dir, Tracer *) override
    {
        file_ = readBytes(inputPath(dir, "archive.bin"));
        pipeline_.emplace(PipelineConfig{});
        channel_.emplace(IdsChannelModel::full(
            NanoporeDatasetGenerator::groundTruthProfile(
                pipeline_->strandLength(), kArchiveErrorRate),
            "nanopore-like"));
    }

    size_t opsPerRound() const override { return 1; }

    double
    readsPerRound() const override
    {
        return static_cast<double>(object_.strands.size() *
                                   kArchiveCoverage);
    }

    size_t
    runRound(Tracer *tracer) override
    {
        ScopedSpan op(tracer, "op.archive_roundtrip");
        // cmdRoundtrip's calls: store() for the report line, then
        // roundTrip(), which stores again.
        Rng rng(kRoundtripSeed);
        {
            ScopedSpan span(tracer, "pipeline.store");
            object_ = pipeline_->store(file_);
        }
        ScopedSpan span(tracer, "pipeline.round_trip");
        if (tracer == nullptr) {
            result_ = pipeline_->roundTrip(file_, *channel_, coverage_,
                                           iterative_, rng);
        } else {
            TracedReconstructor traced(iterative_, "reconstruct.iterative",
                                       *tracer);
            traced.setParent(tracer->current());
            result_ = pipeline_->roundTrip(file_, *channel_, coverage_,
                                           traced, rng);
        }
        return result_.success && result_.data == file_ ? 0 : 1;
    }

    void
    checkRound(CheckLog &log, bool first) override
    {
        log.add(checkEncodedStrands(object_.strands,
                                    pipeline_->strandLength()));
        log.add(checkRetrieval(result_, file_));
        if (first) {
            first_result_ = result_;
            return;
        }
        const RetrievalStats &a = result_.stats;
        const RetrievalStats &b = first_result_.stats;
        if (result_.data != first_result_.data || a.clusters != b.clusters ||
            a.crc_failures != b.crc_failures ||
            a.stripes_failed != b.stripes_failed)
            log.add("roundtrip differs between rounds");
    }

    void
    finalChecks(CheckLog &log) override
    {
        // One more roundtrip that also returns the channel's
        // pseudo-clustered reads: the read count must be strands x
        // coverage, and the retrieval must match the timed one.
        Dataset simulated;
        Rng rng(kRoundtripSeed);
        RetrievedObject again =
            pipeline_->roundTrip(file_, *channel_, coverage_, iterative_,
                                 rng, nullptr, &simulated);
        log.add(checkReadCount(simulated, object_.strands.size(),
                               kArchiveCoverage));
        if (again.data != result_.data)
            log.add("roundtrip returning its reads decoded other bytes");
    }

    Counts
    counts() const override
    {
        const RetrievalStats &s = result_.stats;
        return {
            {"core.channel.reads", readsPerRound()},
            {"pipeline.crc_rejects",
             static_cast<double>(s.crc_failures + s.undecodable_strands)},
            {"pipeline.stripes_failed", static_cast<double>(s.stripes_failed)},
            {"pipeline.frames_recovered",
             static_cast<double>(s.frames_recovered)},
        };
    }

  private:
    Bytes file_;
    std::optional<ArchivalPipeline> pipeline_;
    std::optional<IdsChannelModel> channel_;
    const FixedCoverage coverage_{kArchiveCoverage};
    const Iterative iterative_{};
    StoredObject object_;
    RetrievedObject result_;
    RetrievedObject first_result_;
};

std::unique_ptr<Workload>
makeWorkload(const std::string &name)
{
    if (name == "calibrate_simulate")
        return std::make_unique<CalibrateSimulate>();
    if (name == "cluster_reconstruct")
        return std::make_unique<ClusterReconstruct>();
    if (name == "archive_roundtrip")
        return std::make_unique<ArchiveRoundtrip>();
    throw std::runtime_error("unknown workload '" + name + "'");
}

/** The per-layer metrics of a finished traced run. */
std::vector<Metric>
layerMetrics(const Tracer &tracer, const Workload &workload,
             size_t traced_ops, const std::map<std::string, double> &extra)
{
    std::map<std::string, double> value;
    for (const auto &[name, unit] : perLayerMetrics())
        value[name] = 0.0;

    std::map<std::string, double> host_cpu, host_wall, host_nivcsw,
        host_calls;
    double reconstruct_calls = 0;
    double program_stores = 0;
    for (const Span &s : tracer.spans()) {
        auto layer = layerOfSpan().find(s.name);
        if (layer != layerOfSpan().end())
            value[layer->second] += s.self_ns * 1e-9;
        if (s.name.starts_with("reconstruct."))
            ++reconstruct_calls;
        if (s.program && s.name == "pipeline.store")
            ++program_stores;
        if (s.has_host) {
            host_cpu[s.name] += s.host.cpu_s;
            host_wall[s.name] += s.seconds();
            host_nivcsw[s.name] += static_cast<double>(s.host.nivcsw);
            ++host_calls[s.name];
        }
    }
    const double ops = static_cast<double>(traced_ops);
    for (auto &[name, v] : value)
        if (name.ends_with("_s") && !perRunLayer(name))
            v /= ops;
    value["reconstruct.clusters"] = reconstruct_calls / ops;
    value["pipeline.stores_per_op"] = program_stores / ops;
    for (const auto &layer : hostLayers()) {
        value["host." + layer + ".cpu_per_wall"] =
            ratio(host_cpu[layer], host_wall[layer]);
        value["host." + layer + ".nivcsw"] =
            ratio(host_nivcsw[layer], host_calls[layer]);
    }
    for (const auto &[name, v] : workload.counts())
        value[name] = v;
    for (const auto &[name, v] : extra)
        value[name] = v;

    std::vector<Metric> out;
    for (const auto &[name, unit] : perLayerMetrics())
        out.push_back({name, value[name], unit});
    return out;
}

struct RoundTimes
{
    std::vector<double> wall_s;
    std::vector<double> cpu_s;
    long nivcsw = 0;
};

/** Run rounds until @p seconds have passed (at least one), or
 *  exactly @p rounds when non-zero. */
RoundTimes
runRounds(Workload &workload, Tracer *tracer, double seconds,
          size_t rounds, RunReport &report, CheckLog &log)
{
    RoundTimes times;
    const uint64_t start = monotonicNs();
    while (rounds ? times.wall_s.size() < rounds
                  : times.wall_s.empty() ||
                        (monotonicNs() - start) * 1e-9 < seconds) {
        const HostSample h0 = HostSample::now();
        const uint64_t w0 = monotonicNs();
        report.failed += workload.runRound(tracer);
        const uint64_t w1 = monotonicNs();
        const HostSample h1 = HostSample::now();
        report.attempted += workload.opsPerRound();
        times.wall_s.push_back((w1 - w0) * 1e-9);
        times.cpu_s.push_back(h1.cpu_s - h0.cpu_s);
        times.nivcsw += h1.nivcsw - h0.nivcsw;
        workload.checkRound(log, report.attempted ==
                                     workload.opsPerRound());
    }
    return times;
}

double
sum(const std::vector<double> &v)
{
    return std::accumulate(v.begin(), v.end(), 0.0);
}

} // anonymous namespace

uint64_t
monotonicNs()
{
    struct timespec ts;
    clock_gettime(CLOCK_MONOTONIC, &ts);
    return static_cast<uint64_t>(ts.tv_sec) * 1'000'000'000ull +
           static_cast<uint64_t>(ts.tv_nsec);
}

const std::vector<std::string> &
workloadNames()
{
    static const std::vector<std::string> names = {
        "calibrate_simulate", "cluster_reconstruct", "archive_roundtrip"};
    return names;
}

void
generateInputs(const std::string &workload, uint64_t seed,
               const std::string &dir)
{
    if (workload == "archive_roundtrip") {
        writeBytes(inputPath(dir, "archive.bin"),
                   randomBytes(Rng(kArchiveFileSeed), kArchiveFileBytes));
        return;
    }
    WetlabConfig config;
    if (workload == "calibrate_simulate")
        config.num_clusters = kCalibratePoolClusters;
    else if (workload == "cluster_reconstruct")
        config.num_clusters = kClusterPoolClusters;
    else
        throw std::runtime_error("unknown workload '" + workload + "'");
    Rng rng(seed);
    writeEvyatFile(NanoporeDatasetGenerator(config).generate(rng),
                   inputPath(dir, "pool.evyat"));
}

RunReport
runWorkload(const RunConfig &config)
{
    RunReport report;
    CheckLog log;
    std::unique_ptr<Workload> workload = makeWorkload(config.workload);
    Tracer tracer;
    Tracer *traced = config.trace ? &tracer : nullptr;

    if (traced)
        tracer.enable();
    workload->setup(config.dir, traced);
    const double setup_s = (monotonicNs() - config.t0_ns) * 1e-9;
    if (traced)
        tracer.disable();

    // Untraced rounds; a traced run spends half its time here and
    // then repeats as many rounds with tracing on.
    const RoundTimes plain =
        runRounds(*workload, nullptr,
                  config.trace ? config.seconds / 2 : config.seconds, 0,
                  report, log);
    std::fprintf(stderr,
                 "e2ebench: %s: %zu rounds, wall s min %.4f median %.4f "
                 "max %.4f\n",
                 config.workload.c_str(), plain.wall_s.size(),
                 *std::min_element(plain.wall_s.begin(), plain.wall_s.end()),
                 median(plain.wall_s),
                 *std::max_element(plain.wall_s.begin(), plain.wall_s.end()));

    if (!config.trace) {
        const double reads = workload->readsPerRound();
        report.metrics = {
            {"setup_s", setup_s, "s"},
            {"reads_per_s", reads / median(plain.wall_s), "reads/s"},
            {"cpu_s_per_kread", median(plain.cpu_s) / reads * 1000.0, "s"},
            {"peak_rss_mib", peakRssMib(), "MiB"},
        };
    } else {
        tracer.enable();
        const RoundTimes with_spans =
            runRounds(*workload, traced, 0, plain.wall_s.size(), report,
                      log);
        workload->probe(tracer);
        tracer.disable();
        tracer.finish();

        const double rounds = static_cast<double>(plain.wall_s.size());
        const std::map<std::string, double> extra = {
            {"host.cpu_per_wall", ratio(sum(plain.cpu_s), sum(plain.wall_s))},
            {"host.nivcsw", static_cast<double>(plain.nivcsw) / rounds},
            {"obs.trace_overhead_s",
             median(with_spans.wall_s) - median(plain.wall_s)},
        };
        report.metrics = layerMetrics(
            tracer, *workload,
            with_spans.wall_s.size() * workload->opsPerRound(), extra);
        if (!config.trace_out.empty() && !tracer.writeJson(config.trace_out))
            log.add("cannot write the trace to " + config.trace_out);
    }

    workload->finalChecks(log);
    report.check_failures = log.take();
    return report;
}

} // namespace e2e
