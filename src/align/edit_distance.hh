/**
 * @file
 * Levenshtein distance and edit-operation backtraces.
 *
 * The paper's Appendix B algorithm recovers, for a reference strand
 * and one of its noisy copies, the sequence of channel error
 * operations (insertions, deletions, substitutions) with maximum
 * likelihood, using minimum edit distance as the proxy and breaking
 * ties uniformly at random (the paper's ChooseRandomAndInsertOp).
 *
 * The paper presents the recursion directly (exponential); we
 * implement the equivalent O(|a|*|b|) dynamic program with a
 * backtrace. The recovered operations drive the data-driven
 * calibration of every error-model parameter (core/profiler.hh).
 */

#ifndef DNASIM_ALIGN_EDIT_DISTANCE_HH
#define DNASIM_ALIGN_EDIT_DISTANCE_HH

#include <string>
#include <string_view>
#include <vector>

#include "base/dna.hh"
#include "base/packed.hh"
#include "base/rng.hh"

namespace dnasim
{

namespace align_detail
{
struct PatternAccess;
}

/** The kind of a single edit operation transforming reference->copy. */
enum class EditOpType : uint8_t
{
    Equal,      ///< reference base copied through unchanged
    Substitute, ///< reference base replaced by a different base
    Delete,     ///< reference base missing from the copy
    Insert,     ///< extra base present in the copy
};

/** Printable name of an EditOpType. */
const char *editOpTypeName(EditOpType t);

/**
 * One edit operation, anchored to a reference position.
 *
 * For Equal/Substitute/Delete, @c ref_pos is the index of the
 * affected reference base and @c ref_base its value. For Insert,
 * @c ref_pos is the reference index *before which* the extra base
 * appears (== reference length for an append) and @c ref_base is 0.
 * @c copy_base is the base observed in the copy (0 for Delete).
 */
struct EditOp
{
    EditOpType type = EditOpType::Equal;
    size_t ref_pos = 0;
    char ref_base = '\0';
    char copy_base = '\0';

    bool operator==(const EditOp &) const = default;
};

/**
 * Plain Levenshtein distance (unit costs): the Myers bit-parallel
 * kernel of MyersPattern, with the shorter string as the pattern.
 * Exact at every length; both strings must be ACGT.
 */
size_t levenshtein(std::string_view a, std::string_view b);

/**
 * A Myers bit-parallel pattern with precomputed match tables.
 *
 * levenshtein() rebuilds the per-base match bit-vectors (Peq) on
 * every call. When one string is compared against many others — a
 * cluster representative probed by thousands of reads, a consensus
 * estimate scored against every copy — the tables can be built once
 * and reused. A MyersPattern owns the Peq rows for the four bases
 * (built from a character strand or directly from a PackedStrand's
 * 2-bit words) and answers distance queries with zero per-call
 * allocation.
 *
 * Distances are exact. The pattern must be ACGT (asserted while
 * its tables are built, see base/dna.hh); a text character outside
 * ACGT reads an all-zero match row and so matches nothing.
 */
class MyersPattern
{
  public:
    MyersPattern() = default;

    /** Build the match tables for @p pattern. */
    explicit MyersPattern(std::string_view pattern);

    /** Build the match tables from 2-bit packed words. */
    explicit MyersPattern(const PackedStrand &pattern);

    /**
     * Rebuild the match tables for a new pattern, reusing the Peq
     * storage. The batch call sites probe a different pattern per
     * read; reassigning one thread-local MyersPattern keeps that
     * loop allocation-free once capacity has grown.
     */
    void assign(std::string_view pattern);

    /** Pattern length in bases. */
    size_t size() const { return m_; }

    /** Exact Levenshtein distance between the pattern and @p text. */
    size_t distance(std::string_view text) const;

    /**
     * Thresholded distance: the exact distance when it is at most
     * @p limit, otherwise some value strictly greater than @p limit
     * (the kernel abandons a column as soon as the running score
     * minus the remaining text length certifies the bound). Callers
     * comparing the result against @p limit get exactly the same
     * accept/reject decisions as with distance().
     */
    size_t distanceBounded(std::string_view text, size_t limit) const;

  private:
    /// The batch kernels (align/myers_batch.cc) share the pattern's
    /// Peq rows across SIMD lanes instead of rebuilding them.
    friend struct align_detail::PatternAccess;

    size_t m_ = 0;
    size_t blocks_ = 0;
    /// Peq rows, kNumBases * blocks_: match bits of pattern slice b
    /// for base code c live at peq_[c * blocks_ + b].
    std::vector<uint64_t> peq_;
};

/**
 * Recover a minimum-cost edit script transforming @p ref into
 * @p copy.
 *
 * When multiple scripts achieve the minimum cost, @p rng (if
 * non-null) selects uniformly among the locally optimal predecessors
 * at each backtrace step, matching Appendix B; with a null @p rng the
 * choice is deterministic (diagonal first, then deletion, then
 * insertion — the paper's worked example prefers the deletion
 * explanation for AGCG -> AGG).
 *
 * The returned script lists operations in reference order and always
 * includes Equal ops, so its Equal/Substitute/Delete entries cover
 * every reference position exactly once.
 */
std::vector<EditOp> editOps(std::string_view ref, std::string_view copy,
                            Rng *rng = nullptr);

/**
 * editOps() into a caller-provided buffer (cleared first). The DP
 * matrix lives in reused thread-local scratch, so a steady-state
 * caller (consensus voting iterates this over every copy of every
 * cluster) performs no per-call heap allocation.
 */
void editOpsInto(std::string_view ref, std::string_view copy, Rng *rng,
                 std::vector<EditOp> &out);

/**
 * editOpsInto() reusing a prebuilt MyersPattern over @p ref
 * (pattern.size() must equal ref.size()). Clustered callers that
 * align many copies against one estimate build the pattern's Peq
 * tables once and amortize them across every copy; the engine also
 * uses the pattern to seed the Tier-B band (see align/edit_script.hh).
 */
void editOpsInto(const MyersPattern &pattern, std::string_view ref,
                 std::string_view copy, Rng *rng,
                 std::vector<EditOp> &out);

/** Number of non-Equal operations in a script. */
size_t numErrors(const std::vector<EditOp> &ops);

/** Apply an edit script to @p ref, reproducing the copy. */
Strand applyEditOps(std::string_view ref, const std::vector<EditOp> &ops);

/**
 * A maximal run of consecutive deletions within a script.
 * Long deletions (length >= 2) are a calibrated model parameter.
 */
struct DeletionRun
{
    size_t ref_pos = 0; ///< first deleted reference position
    size_t length = 0;  ///< number of consecutive deleted bases
};

/** Extract maximal runs of consecutive Delete ops from a script. */
std::vector<DeletionRun> deletionRuns(const std::vector<EditOp> &ops);

} // namespace dnasim

#endif // DNASIM_ALIGN_EDIT_DISTANCE_HH
