/**
 * @file
 * Self-test of the benchmark's correctness checks: each check passes
 * on real program output and rejects a deliberately corrupted copy of
 * it. Exits non-zero if any expectation fails.
 *
 *   python3 e2ebench/run.py --self-test
 */

#include <iostream>
#include <numeric>
#include <string>

#include "checks.hh"
#include "cluster/greedy_cluster.hh"
#include "core/channel_simulator.hh"
#include "core/coverage.hh"
#include "core/ids_model.hh"
#include "core/profiler.hh"
#include "core/wetlab.hh"
#include "reconstruct/iterative.hh"

using namespace dnasim;
using namespace e2e;

namespace
{

int failures = 0;

void
expect(bool ok, const std::string &what)
{
    std::cout << (ok ? "ok    " : "FAIL  ") << what << "\n";
    failures += ok ? 0 : 1;
}

/** @p good must pass and @p bad must fail. */
void
expectCheck(const std::string &name, const std::string &good,
            const std::string &bad)
{
    expect(good.empty(), name + " accepts the program's output" +
                             (good.empty() ? "" : ": " + good));
    expect(!bad.empty(), name + " rejects a corrupted output" +
                             (bad.empty() ? "" : " (" + bad + ")"));
}

void
testOracle()
{
    expect(oracleLevenshtein("", "") == 0, "oracle: empty strings");
    expect(oracleLevenshtein("ACGT", "") == 4, "oracle: deletion of all");
    expect(oracleLevenshtein("AGCG", "AGG") == 1, "oracle: one deletion");
    expect(oracleLevenshtein("kitten", "sitting") == 3,
           "oracle: kitten/sitting");
    expect(oracleLevenshtein("ACGTACGT", "TACGTACG") == 2,
           "oracle: shift by one");
}

void
testCalibrateSimulate(const Dataset &pool)
{
    ErrorProfile profile = ErrorProfiler().calibrate(pool);
    ErrorProfile skewed = profile;
    skewed.p_sub += 0.05;
    const double configured = WetlabConfig{}.total_error_rate;
    expectCheck("checkCalibratedRate",
                checkCalibratedRate(profile, configured),
                checkCalibratedRate(skewed, configured));

    IdsChannelModel model = IdsChannelModel::secondOrder(profile);
    Rng rng(1);
    Dataset simulated = ChannelSimulator(model).simulateLike(pool, rng);

    Dataset short_cluster = simulated;
    for (auto &cluster : short_cluster)
        if (!cluster.copies.empty()) {
            cluster.copies.pop_back();
            break;
        }
    expectCheck("checkSimulatedShape",
                checkSimulatedShape(pool, simulated),
                checkSimulatedShape(pool, short_cluster));

    Dataset clean = simulated;
    for (auto &cluster : clean)
        for (auto &copy : cluster.copies)
            copy = cluster.reference;
    expectCheck("checkSimulatedErrorRate",
                checkSimulatedErrorRate(simulated, profile, 3),
                checkSimulatedErrorRate(clean, profile, 3));
}

void
testClusterReconstruct(const Dataset &pool)
{
    std::vector<Strand> reads;
    std::vector<size_t> origin;
    for (size_t i = 0; i < pool.size(); ++i)
        for (const auto &copy : pool[i].copies) {
            reads.push_back(copy);
            origin.push_back(i);
        }
    const ClusterOptions options;
    std::vector<ReadCluster> clusters = clusterReads(reads, options);

    std::vector<ReadCluster> duplicated = clusters;
    duplicated.back().members.push_back(duplicated.front().members.front());
    std::vector<ReadCluster> dropped = clusters;
    dropped.front().members.pop_back();
    expectCheck("checkPartition (read twice)",
                checkPartition(clusters, reads.size()),
                checkPartition(duplicated, reads.size()));
    expectCheck("checkPartition (read missing)",
                checkPartition(clusters, reads.size()),
                checkPartition(dropped, reads.size()));

    // Swap a member of the first cluster for a read of another origin.
    std::vector<ReadCluster> foreign = clusters;
    const size_t victim = foreign.front().members.front();
    size_t intruder = 0;
    while (origin[intruder] == origin[victim] ||
           reads[intruder].size() < reads[victim].size())
        ++intruder;
    for (auto &cluster : foreign)
        for (auto &m : cluster.members)
            if (m == intruder)
                m = victim;
    foreign.front().members.front() = intruder;
    expectCheck("checkWithinThreshold",
                checkWithinThreshold(clusters, reads,
                                     options.distance_threshold),
                checkWithinThreshold(foreign, reads,
                                     options.distance_threshold));

    const Iterative algo;
    Rng rng(2);
    std::vector<Strand> estimates = reconstructAll(pool, algo, rng);
    const AccuracyResult result = scoreReconstructions(pool, estimates);

    std::vector<Strand> truncated = estimates;
    for (size_t i = 0; i < pool.size(); ++i)
        if (!pool[i].isErasure()) {
            truncated[i].pop_back();
            break;
        }
    expectCheck("checkDesignLength", checkDesignLength(pool, estimates),
                checkDesignLength(pool, truncated));

    AccuracyResult inflated = result;
    ++inflated.num_perfect;
    expectCheck("checkAccuracyRecount",
                checkAccuracyRecount(pool, estimates, result),
                checkAccuracyRecount(pool, estimates, inflated));

    std::vector<Strand> first_copies = estimates;
    for (size_t i = 0; i < pool.size(); ++i)
        if (!pool[i].isErasure())
            first_copies[i] = pool[i].copies.front();
    expectCheck("checkBeatsFirstCopy", checkBeatsFirstCopy(pool, estimates),
                checkBeatsFirstCopy(pool, first_copies));
}

void
testArchive()
{
    Bytes file(3000);
    std::iota(file.begin(), file.end(), uint8_t{7});
    ArchivalPipeline pipeline;
    StoredObject object = pipeline.store(file);

    std::vector<Strand> repeated = object.strands;
    repeated[3][1] = repeated[3][0];
    std::vector<Strand> shortened = object.strands;
    shortened[5].pop_back();
    expectCheck("checkEncodedStrands (homopolymer)",
                checkEncodedStrands(object.strands, pipeline.strandLength()),
                checkEncodedStrands(repeated, pipeline.strandLength()));
    expectCheck("checkEncodedStrands (length)",
                checkEncodedStrands(object.strands, pipeline.strandLength()),
                checkEncodedStrands(shortened, pipeline.strandLength()));

    IdsChannelModel channel = IdsChannelModel::full(
        NanoporeDatasetGenerator::groundTruthProfile(pipeline.strandLength(),
                                                     0.04));
    Dataset simulated;
    Rng rng(3);
    RetrievedObject result =
        pipeline.roundTrip(file, channel, FixedCoverage(6), Iterative(), rng,
                           nullptr, &simulated);
    Dataset missing_read = simulated;
    missing_read[0].copies.pop_back();
    expectCheck("checkReadCount",
                checkReadCount(simulated, object.strands.size(), 6),
                checkReadCount(missing_read, object.strands.size(), 6));

    RetrievedObject corrupted = result;
    corrupted.data[100] ^= 0x40;
    expect(result.success, "roundtrip at coverage 6 succeeds");
    expectCheck("checkRetrieval", checkRetrieval(result, file),
                checkRetrieval(corrupted, file));
}

} // anonymous namespace

int
main()
{
    WetlabConfig config;
    config.num_clusters = 300;
    Rng rng(11);
    const Dataset pool = NanoporeDatasetGenerator(config).generate(rng);

    testOracle();
    testCalibrateSimulate(pool);
    testClusterReconstruct(pool);
    testArchive();
    std::cout << (failures ? "checks self-test FAILED\n"
                           : "checks self-test passed\n");
    return failures ? 1 : 0;
}
