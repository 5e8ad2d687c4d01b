/**
 * @file
 * Correctness checks of the end-to-end benchmark. They are computed
 * in the benchmark's own code, apart from the program under test:
 * counts are recounted here, and every distance is measured with a
 * plain O(n*m) Levenshtein DP (oracleLevenshtein) that shares no code
 * with the bit-parallel kernels in src/align.
 *
 * Every check returns an empty string when it passes and a one-line
 * reason when it fails.
 */

#ifndef E2EBENCH_CHECKS_HH
#define E2EBENCH_CHECKS_HH

#include <string>
#include <string_view>
#include <vector>

#include "analysis/accuracy.hh"
#include "cluster/greedy_cluster.hh"
#include "core/error_profile.hh"
#include "data/dataset.hh"
#include "pipeline/archival_pipeline.hh"

namespace e2e
{

using dnasim::Bytes;
using dnasim::Dataset;
using dnasim::Strand;

/** Unit-cost edit distance by the textbook two-row DP. */
size_t oracleLevenshtein(std::string_view a, std::string_view b);

// calibrate_simulate ------------------------------------------------

/** Absolute tolerance on the calibrated aggregate error rate. */
inline constexpr double kCalibratedRateTolerance = 0.010;

/**
 * The calibrated aggregate rate (substitutions + insertions +
 * deleted bases per reference base) lies within
 * kCalibratedRateTolerance of @p configured_rate.
 */
std::string checkCalibratedRate(const dnasim::ErrorProfile &profile,
                                double configured_rate);

/** @p simulated has the input's cluster count and per-cluster copy
 *  counts, and re-uses its references. */
std::string checkSimulatedShape(const Dataset &input,
                                const Dataset &simulated);

/** Relative tolerance on the sampled simulated error rate. */
inline constexpr double kSimulatedRateTolerance = 0.20;

/**
 * On every @p stride-th (reference, simulated copy) pair, the oracle
 * edit distance per reference base lies within
 * kSimulatedRateTolerance (relative) of the profile's aggregate rate.
 */
std::string checkSimulatedErrorRate(const Dataset &simulated,
                                    const dnasim::ErrorProfile &profile,
                                    size_t stride);

// cluster_reconstruct -----------------------------------------------

/** Every read index in [0, @p num_reads) appears in exactly one
 *  cluster. */
std::string checkPartition(const std::vector<dnasim::ReadCluster> &clusters,
                           size_t num_reads);

/** Every member lies within @p threshold of its cluster's
 *  representative, by the oracle. */
std::string
checkWithinThreshold(const std::vector<dnasim::ReadCluster> &clusters,
                     const std::vector<Strand> &pool, size_t threshold);

/** Every estimate of a non-empty cluster has the reference's
 *  (design) length. */
std::string checkDesignLength(const Dataset &data,
                              const std::vector<Strand> &estimates);

/** The per-strand and per-character counts recounted here equal the
 *  program's AccuracyResult. */
std::string checkAccuracyRecount(const Dataset &data,
                                 const std::vector<Strand> &estimates,
                                 const dnasim::AccuracyResult &result);

/** The estimates' per-character accuracy is above that of each
 *  non-empty cluster's first raw copy. */
std::string checkBeatsFirstCopy(const Dataset &data,
                                const std::vector<Strand> &estimates);

// archive_roundtrip -------------------------------------------------

/** Every strand has @p length bases and no homopolymer run longer
 *  than 1 (the rotating codec never repeats a base). */
std::string checkEncodedStrands(const std::vector<Strand> &strands,
                                size_t length);

/** The channel produced exactly @p strands x @p coverage reads, one
 *  cluster per strand. */
std::string checkReadCount(const Dataset &simulated, size_t strands,
                           size_t coverage);

/** A retrieval that reports success returns exactly @p file. */
std::string checkRetrieval(const dnasim::RetrievedObject &result,
                           const Bytes &file);

} // namespace e2e

#endif // E2EBENCH_CHECKS_HH
