#include "checks.hh"

#include <algorithm>
#include <cmath>
#include <sstream>

namespace e2e
{

namespace
{

template <typename... Parts>
std::string
fail(const Parts &...parts)
{
    std::ostringstream os;
    (os << ... << parts);
    return os.str();
}

/** Bases equal at equal positions, over the shorter length. */
size_t
positionalMatches(const Strand &ref, const Strand &est)
{
    size_t n = 0;
    for (size_t p = 0; p < ref.size() && p < est.size(); ++p)
        n += ref[p] == est[p] ? 1 : 0;
    return n;
}

} // anonymous namespace

size_t
oracleLevenshtein(std::string_view a, std::string_view b)
{
    std::vector<size_t> prev(b.size() + 1);
    std::vector<size_t> cur(b.size() + 1);
    for (size_t j = 0; j <= b.size(); ++j)
        prev[j] = j;
    for (size_t i = 1; i <= a.size(); ++i) {
        cur[0] = i;
        for (size_t j = 1; j <= b.size(); ++j) {
            size_t diag = prev[j - 1] + (a[i - 1] == b[j - 1] ? 0 : 1);
            cur[j] = std::min({diag, prev[j] + 1, cur[j - 1] + 1});
        }
        std::swap(prev, cur);
    }
    return prev[b.size()];
}

std::string
checkCalibratedRate(const dnasim::ErrorProfile &profile,
                    double configured_rate)
{
    const double rate = profile.p_sub + profile.p_ins + profile.p_del;
    if (!(std::fabs(rate - configured_rate) <= kCalibratedRateTolerance))
        return fail("calibrated aggregate error rate ", rate,
                    " is not within ", kCalibratedRateTolerance,
                    " of the configured ", configured_rate);
    return {};
}

std::string
checkSimulatedShape(const Dataset &input, const Dataset &simulated)
{
    if (simulated.size() != input.size())
        return fail("simulated pool has ", simulated.size(),
                    " clusters, input has ", input.size());
    for (size_t i = 0; i < input.size(); ++i) {
        if (simulated[i].copies.size() != input[i].copies.size())
            return fail("simulated cluster ", i, " has ",
                        simulated[i].copies.size(), " copies, input has ",
                        input[i].copies.size());
        if (simulated[i].reference != input[i].reference)
            return fail("simulated cluster ", i,
                        " changed its reference");
    }
    return {};
}

std::string
checkSimulatedErrorRate(const Dataset &simulated,
                        const dnasim::ErrorProfile &profile, size_t stride)
{
    size_t pair = 0;
    size_t edits = 0;
    size_t bases = 0;
    for (const auto &cluster : simulated) {
        for (const auto &copy : cluster.copies) {
            if (pair++ % stride != 0)
                continue;
            edits += oracleLevenshtein(cluster.reference, copy);
            bases += cluster.reference.size();
        }
    }
    if (bases == 0)
        return "no simulated pairs to sample";
    const double measured =
        static_cast<double>(edits) / static_cast<double>(bases);
    const double expected = profile.p_sub + profile.p_ins + profile.p_del;
    if (!(std::fabs(measured - expected) <=
          kSimulatedRateTolerance * expected))
        return fail("sampled simulated error rate ", measured,
                    " is not within ", kSimulatedRateTolerance * 100,
                    "% of the calibrated ", expected);
    return {};
}

std::string
checkPartition(const std::vector<dnasim::ReadCluster> &clusters,
               size_t num_reads)
{
    std::vector<uint8_t> seen(num_reads, 0);
    for (size_t c = 0; c < clusters.size(); ++c) {
        for (size_t m : clusters[c].members) {
            if (m >= num_reads)
                return fail("cluster ", c, " holds read ", m,
                            " of a ", num_reads, "-read pool");
            if (seen[m]++ != 0)
                return fail("read ", m, " appears in more than one "
                            "cluster slot");
        }
    }
    for (size_t r = 0; r < num_reads; ++r)
        if (seen[r] == 0)
            return fail("read ", r, " is in no cluster");
    return {};
}

std::string
checkWithinThreshold(const std::vector<dnasim::ReadCluster> &clusters,
                     const std::vector<Strand> &pool, size_t threshold)
{
    for (size_t c = 0; c < clusters.size(); ++c) {
        for (size_t m : clusters[c].members) {
            if (m >= pool.size())
                return fail("cluster ", c, " holds read ", m,
                            " outside the pool");
            size_t d =
                oracleLevenshtein(pool[m], clusters[c].representative);
            if (d > threshold)
                return fail("read ", m, " is at distance ", d,
                            " from the representative of cluster ", c,
                            " (threshold ", threshold, ")");
        }
    }
    return {};
}

std::string
checkDesignLength(const Dataset &data, const std::vector<Strand> &estimates)
{
    if (estimates.size() != data.size())
        return fail(estimates.size(), " estimates for ", data.size(),
                    " clusters");
    for (size_t i = 0; i < data.size(); ++i) {
        if (data[i].isErasure())
            continue;
        if (estimates[i].size() != data[i].reference.size())
            return fail("estimate ", i, " has length ",
                        estimates[i].size(), ", design length is ",
                        data[i].reference.size());
    }
    return {};
}

std::string
checkAccuracyRecount(const Dataset &data,
                     const std::vector<Strand> &estimates,
                     const dnasim::AccuracyResult &result)
{
    if (estimates.size() != data.size())
        return fail(estimates.size(), " estimates for ", data.size(),
                    " clusters");
    size_t perfect = 0;
    size_t chars = 0;
    size_t correct = 0;
    for (size_t i = 0; i < data.size(); ++i) {
        perfect += estimates[i] == data[i].reference ? 1 : 0;
        chars += data[i].reference.size();
        correct += positionalMatches(data[i].reference, estimates[i]);
    }
    if (result.num_clusters != data.size() ||
        result.num_perfect != perfect || result.num_chars != chars ||
        result.num_chars_correct != correct)
        return fail("accuracy recount (", data.size(), " clusters, ",
                    perfect, " perfect, ", correct, "/", chars,
                    " chars) differs from the program's (",
                    result.num_clusters, ", ", result.num_perfect, ", ",
                    result.num_chars_correct, "/", result.num_chars, ")");
    return {};
}

std::string
checkBeatsFirstCopy(const Dataset &data,
                    const std::vector<Strand> &estimates)
{
    if (estimates.size() != data.size())
        return fail(estimates.size(), " estimates for ", data.size(),
                    " clusters");
    size_t est_correct = 0;
    size_t raw_correct = 0;
    for (size_t i = 0; i < data.size(); ++i) {
        if (data[i].isErasure())
            continue;
        est_correct += positionalMatches(data[i].reference, estimates[i]);
        raw_correct +=
            positionalMatches(data[i].reference, data[i].copies.front());
    }
    if (est_correct <= raw_correct)
        return fail("estimates place ", est_correct,
                    " bases correctly, no more than the first raw "
                    "copies' ",
                    raw_correct);
    return {};
}

std::string
checkEncodedStrands(const std::vector<Strand> &strands, size_t length)
{
    for (size_t s = 0; s < strands.size(); ++s) {
        if (strands[s].size() != length)
            return fail("strand ", s, " has ", strands[s].size(),
                        " bases, the codec emits ", length);
        for (size_t p = 1; p < strands[s].size(); ++p)
            if (strands[s][p] == strands[s][p - 1])
                return fail("strand ", s, " repeats base '",
                            strands[s][p], "' at position ", p);
    }
    return {};
}

std::string
checkReadCount(const Dataset &simulated, size_t strands, size_t coverage)
{
    if (simulated.size() != strands)
        return fail("channel returned ", simulated.size(),
                    " clusters for ", strands, " strands");
    size_t reads = 0;
    for (const auto &cluster : simulated)
        reads += cluster.copies.size();
    if (reads != strands * coverage)
        return fail("channel returned ", reads, " reads, expected ",
                    strands, " x ", coverage);
    return {};
}

std::string
checkRetrieval(const dnasim::RetrievedObject &result, const Bytes &file)
{
    if (result.success && result.data != file)
        return fail("retrieval reported success but its ",
                    result.data.size(), " bytes differ from the ",
                    file.size(), "-byte original");
    return {};
}

} // namespace e2e
