/**
 * @file
 * Local parallel group (LLG) analysis (paper §3.3.1).
 *
 * An LLG is a minimal set of concurrent CX gates whose joint bounding box
 * does not overlap any other LLG's joint bounding box. Theorem 1: an LLG
 * of size <= 3 always admits simultaneous braiding paths confined to its
 * bounding box. Theorem 2: a strictly nested LLG of any size does too.
 * The placement annealer minimizes the number of LLGs violating both
 * conditions, and Table 1 reports the count of LLGs with size > 3.
 *
 * computeLlgs() and llgStats() run one merge kernel, LlgMerger, as do
 * the annealer's objectives. It inserts the task boxes one at a time:
 * the first group a new box meets takes it in and absorbs every other
 * group its grown joint box meets, rescanning after each growth, so the
 * groups stay pairwise disjoint; an empty box meets nothing and stays a
 * singleton. Each merge is forced: in any grouping with
 * pairwise-disjoint joint boxes that keeps both groups whole, the two
 * groups whose joint boxes meet land in one LLG. The result is therefore
 * the unique finest such partition, whatever the insertion order
 * (docs/llg-theory.md).
 */

#ifndef AUTOBRAID_LLG_LLG_HPP
#define AUTOBRAID_LLG_LLG_HPP

#include <cstddef>
#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include "llg/bbox.hpp"

namespace autobraid {

/** One local parallel group over a task vector. */
struct Llg
{
    std::vector<size_t> members; ///< indices into the task vector
    BBox bbox;                   ///< joint bounding box

    size_t size() const { return members.size(); }
};

/** Summary statistics over one concurrent set's LLGs. */
struct LlgStats
{
    size_t num_llgs = 0;       ///< total groups
    size_t oversize = 0;       ///< groups with size > 3 (Table 1 metric)
    size_t hard = 0;           ///< size > 3 and not strictly nested
    size_t largest = 0;        ///< size of the largest group
};

/**
 * The LLG merge kernel. It owns its scratch, so once that scratch has
 * grown to the largest set it merges, a merge allocates nothing.
 */
class LlgMerger
{
  public:
    /** Partition @p boxes into LLGs and summarize them. */
    LlgStats stats(std::span<const BBox> boxes);

    /**
     * Partition @p boxes into LLGs, ordered by smallest member index,
     * members ascending.
     */
    std::vector<Llg> groups(std::span<const BBox> boxes);

  private:
    /** A group: its joint box and its member chain through next_. */
    struct Group
    {
        BBox joint;
        uint32_t head;
        uint32_t tail;
        uint32_t size;
    };

    void merge(std::span<const BBox> boxes);
    bool nested(std::span<const BBox> boxes, const Group &group);

    std::vector<Group> groups_;
    std::vector<uint32_t> next_;                 ///< member -> next member
    std::vector<std::pair<long, uint32_t>> order_; ///< (area, member)
};

/**
 * Partition concurrent CX @p tasks into LLGs: the finest grouping whose
 * joint bounding boxes are pairwise disjoint.
 */
std::vector<Llg> computeLlgs(const std::vector<CxTask> &tasks);

/**
 * True when @p llg is strictly nested: its members can be ordered so
 * every bounding box strictly encloses the previous one (Theorem 2).
 * Singletons count as nested.
 */
bool isStrictlyNested(const Llg &llg, const std::vector<CxTask> &tasks);

/** Compute statistics for one concurrent CX set. */
LlgStats llgStats(const std::vector<CxTask> &tasks);

} // namespace autobraid

#endif // AUTOBRAID_LLG_LLG_HPP
