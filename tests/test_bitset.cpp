/**
 * @file
 * BlockedBitset unit and property tests.
 *
 * The packed word mask must behave exactly like the byte-vector mask
 * it replaced. The randomized test drives a bitset and a
 * std::vector<uint8_t> reference through the same churn of set, clear
 * and copy — modelled on the scheduler's reserve/release traffic and
 * the finders' per-call copy — and checks every accessor against the
 * reference after each step.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "common/rng.hpp"
#include "route/blocked_bitset.hpp"

namespace autobraid {
namespace {

TEST(BlockedBitset, BasicSetClearTest)
{
    BlockedBitset bits(130); // deliberately not word-aligned
    EXPECT_EQ(bits.size(), 130u);
    EXPECT_EQ(bits.countSet(), 0u);
    for (size_t i = 0; i < bits.size(); ++i)
        EXPECT_FALSE(bits.test(i));

    bits.set(0);
    bits.set(63);
    bits.set(64);
    bits.set(129);
    EXPECT_EQ(bits.countSet(), 4u);
    EXPECT_TRUE(bits.test(0));
    EXPECT_TRUE(bits.test(63));
    EXPECT_TRUE(bits.test(64));
    EXPECT_TRUE(bits.test(129));
    EXPECT_FALSE(bits.test(1));
    EXPECT_FALSE(bits.test(128));

    bits.clear(63);
    EXPECT_FALSE(bits.test(63));
    EXPECT_EQ(bits.countSet(), 3u);

    // A copy is independent of its source.
    BlockedBitset copy = bits;
    copy.clear(0);
    EXPECT_TRUE(bits.test(0));
    EXPECT_FALSE(copy.test(0));
    EXPECT_EQ(copy.countSet(), 2u);
}

TEST(BlockedBitset, RandomizedAgainstByteMask)
{
    Rng rng(0xb175'e7'2026ULL);
    for (int round = 0; round < 20; ++round) {
        const size_t n = static_cast<size_t>(rng.intIn(1, 300));
        BlockedBitset bits(n);
        std::vector<uint8_t> ref(n, 0);

        for (int step = 0; step < 400; ++step) {
            const int op = rng.intIn(0, 2);
            if (op == 0) { // reserve a vertex
                const size_t i = rng.index(n);
                bits.set(i);
                ref[i] = 1;
            } else if (op == 1) { // release a hold
                const size_t i = rng.index(n);
                bits.clear(i);
                ref[i] = 0;
            } else { // adopt a snapshot (a finder's per-call copy)
                BlockedBitset snap(n);
                for (size_t i = 0; i < n; ++i)
                    if (rng.chance(0.3))
                        snap.set(i);
                bits = snap;
                for (size_t i = 0; i < n; ++i)
                    ref[i] = snap.test(i) ? 1 : 0;
            }

            // Full equivalence with the byte-mask reference.
            size_t ref_count = 0;
            for (size_t i = 0; i < n; ++i) {
                ASSERT_EQ(bits.test(i), ref[i] != 0)
                    << "round " << round << " step " << step
                    << " bit " << i;
                ref_count += ref[i];
            }
            ASSERT_EQ(bits.countSet(), ref_count);
        }
    }
}

} // namespace
} // namespace autobraid
