/**
 * @file
 * Word-packed blocked-vertex bitmap.
 *
 * The scheduler keeps one "blocked" bit per grid vertex (dead, or held
 * by an in-flight region) and every path finder copies it once per
 * call before claiming vertices of its own. Packing 64 vertices per
 * word keeps that copy word-wise, which is what keeps 100x100+
 * lattices (10k+ vertices) inside a few cache lines per refresh.
 */

#ifndef AUTOBRAID_ROUTE_BLOCKED_BITSET_HPP
#define AUTOBRAID_ROUTE_BLOCKED_BITSET_HPP

#include <bit>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "lattice/geometry.hpp"

namespace autobraid {

/**
 * Owning bitmap with one bit per vertex; bit set = vertex blocked.
 * Copy assignment reuses the destination's words, so a finder's
 * per-call copy of the caller's mask does not allocate.
 */
class BlockedBitset
{
  public:
    BlockedBitset() = default;

    /** @p bits bits, all clear. */
    explicit BlockedBitset(size_t bits)
        : size_(bits), words_((bits + 63u) >> 6, 0)
    {}

    /** Number of bits (vertices) covered. */
    size_t size() const { return size_; }

    bool test(size_t i) const
    {
        return (words_[i >> 6] >> (i & 63u)) & 1u;
    }

    /** True when vertex @p v is blocked. */
    bool operator[](VertexId v) const
    {
        return test(static_cast<size_t>(v));
    }

    void set(size_t i) { words_[i >> 6] |= uint64_t{1} << (i & 63u); }

    void clear(size_t i)
    {
        words_[i >> 6] &= ~(uint64_t{1} << (i & 63u));
    }

    /** Popcount over the whole mask. */
    size_t countSet() const
    {
        size_t n = 0;
        for (const uint64_t w : words_)
            n += static_cast<size_t>(std::popcount(w));
        return n;
    }

  private:
    size_t size_ = 0;
    std::vector<uint64_t> words_;
};

} // namespace autobraid

#endif // AUTOBRAID_ROUTE_BLOCKED_BITSET_HPP
