#include "align/gestalt.hh"

#include <algorithm>
#include <array>
#include <bit>
#include <vector>

#include "base/logging.hh"
#include "base/packed.hh"

namespace dnasim
{

namespace
{

/**
 * Reused buffers for the longest-match recursion. One recursive
 * matchingBlocks() call used to allocate two fresh DP rows per
 * longestMatch() invocation — O(log n) allocations per pair, times
 * millions of pairs in the profiler — so all scratch is hoisted here
 * and kept thread-local by the entry points.
 */
struct GestaltScratch
{
    /// Match masks over the current b-subrange: bit (j - b_lo) of
    /// eq[c] is set iff b[j] has base code c.
    std::array<std::vector<uint64_t>, kNumBases> eq;
    /// Suffix-run lengths for the current and previous row. Stale
    /// entries are never read: prev[jj-1] is consulted only when the
    /// previous row matched at jj-1, i.e. when that cell was freshly
    /// written.
    std::vector<uint32_t> prev, cur;
};

/**
 * Bit-parallel longest common substring for ACGT content.
 *
 * Per-base match masks over the b-subrange are built once; each row
 * then visits only the positions where a[i] == b[j] (about a quarter
 * of the columns on a 4-letter alphabet) by iterating the set bits
 * of the mask. The diagonal predecessor's validity is itself a mask
 * lookup — prev[jj-1] holds a live value exactly when bit jj-1 of
 * the previous row's mask is set — so neither row is ever cleared.
 *
 * Traversal order (i ascending, j ascending, strictly-greater
 * updates) matches the character DP, so tie-breaking is difflib's
 * earliest occurrence.
 */
MatchBlock
longestMatchBits(std::string_view a, std::string_view b, size_t a_lo,
                 size_t a_hi, size_t b_lo, size_t b_hi,
                 GestaltScratch &scratch)
{
    MatchBlock best{a_lo, b_lo, 0};
    if (a_lo >= a_hi || b_lo >= b_hi)
        return best;

    const size_t width = b_hi - b_lo;
    const size_t words = (width + 63) / 64;
    for (auto &mask : scratch.eq)
        mask.assign(words, 0);
    for (size_t j = b_lo; j < b_hi; ++j) {
        const uint8_t code =
            kCharToCode[static_cast<unsigned char>(b[j])];
        const size_t jj = j - b_lo;
        scratch.eq[code][jj / 64] |= uint64_t{1} << (jj % 64);
    }

    auto &prev = scratch.prev;
    auto &cur = scratch.cur;
    if (prev.size() < width) {
        prev.resize(width);
        cur.resize(width);
    }

    uint8_t prev_code = kInvalidCode; // no previous row yet
    for (size_t i = a_lo; i < a_hi; ++i) {
        const uint8_t code =
            kCharToCode[static_cast<unsigned char>(a[i])];
        const auto &row = scratch.eq[code];
        const uint64_t *diag = prev_code != kInvalidCode
                                   ? scratch.eq[prev_code].data()
                                   : nullptr;
        for (size_t w = 0; w < words; ++w) {
            uint64_t bits = row[w];
            while (bits != 0) {
                const size_t jj =
                    w * 64 +
                    static_cast<size_t>(std::countr_zero(bits));
                bits &= bits - 1;
                uint32_t len = 1;
                if (jj > 0 && diag != nullptr &&
                    ((diag[(jj - 1) / 64] >> ((jj - 1) % 64)) & 1u))
                    len = prev[jj - 1] + 1;
                cur[jj] = len;
                if (len > best.len) {
                    best.len = len;
                    best.a_pos = i + 1 - len;
                    best.b_pos = b_lo + jj + 1 - len;
                }
            }
        }
        std::swap(prev, cur);
        prev_code = code;
    }
    return best;
}

void
recurse(std::string_view a, std::string_view b, size_t a_lo, size_t a_hi,
        size_t b_lo, size_t b_hi, std::vector<MatchBlock> &out,
        GestaltScratch &scratch)
{
    MatchBlock m =
        longestMatchBits(a, b, a_lo, a_hi, b_lo, b_hi, scratch);
    if (m.len == 0)
        return;
    recurse(a, b, a_lo, m.a_pos, b_lo, m.b_pos, out, scratch);
    out.push_back(m);
    recurse(a, b, m.a_pos + m.len, a_hi, m.b_pos + m.len, b_hi, out,
            scratch);
}

} // anonymous namespace

std::vector<MatchBlock>
matchingBlocks(std::string_view a, std::string_view b)
{
    thread_local GestaltScratch scratch;
    // The 4-row match masks index by base code (base/dna.hh).
    DNASIM_ASSERT(isValidStrand(a) && isValidStrand(b),
                  "gestalt alignment of a non-ACGT strand");

    std::vector<MatchBlock> blocks;
    recurse(a, b, 0, a.size(), 0, b.size(), blocks, scratch);
    blocks.push_back({a.size(), b.size(), 0}); // terminating sentinel
    return blocks;
}

double
gestaltScore(std::string_view a, std::string_view b)
{
    if (a.empty() && b.empty())
        return 1.0;
    size_t matched = 0;
    for (const auto &blk : matchingBlocks(a, b))
        matched += blk.len;
    return 2.0 * static_cast<double>(matched) /
           static_cast<double>(a.size() + b.size());
}

std::vector<AlignedGap>
alignedGaps(std::string_view a, std::string_view b)
{
    std::vector<AlignedGap> gaps;
    size_t a_cur = 0, b_cur = 0;
    for (const auto &blk : matchingBlocks(a, b)) {
        size_t a_len = blk.a_pos - a_cur;
        size_t b_len = blk.b_pos - b_cur;
        if (a_len > 0 || b_len > 0) {
            AlignedGap gap;
            gap.a_pos = a_cur;
            gap.a_len = a_len;
            gap.b_pos = b_cur;
            gap.b_len = b_len;
            if (a_len > 0 && b_len > 0)
                gap.type = GapType::Substitution;
            else if (a_len > 0)
                gap.type = GapType::Deletion;
            else
                gap.type = GapType::Insertion;
            gaps.push_back(gap);
        }
        a_cur = blk.a_pos + blk.len;
        b_cur = blk.b_pos + blk.len;
    }
    return gaps;
}

std::vector<size_t>
gestaltErrorPositions(std::string_view ref, std::string_view copy)
{
    std::vector<size_t> positions;
    for (const auto &gap : alignedGaps(ref, copy)) {
        if (gap.type == GapType::Insertion) {
            size_t pos = gap.a_pos;
            if (!ref.empty())
                pos = std::min(pos, ref.size() - 1);
            positions.push_back(pos);
        } else {
            // Substitution gaps may be unequal in length; attribute
            // every affected reference position plus, if the copy
            // side is longer, the origin position once per extra
            // inserted base would overcount — the paper counts
            // sources of misalignment, so each reference position in
            // the gap counts once.
            for (size_t k = 0; k < gap.a_len; ++k)
                positions.push_back(gap.a_pos + k);
        }
    }
    return positions;
}

} // namespace dnasim
