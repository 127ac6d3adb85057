#include "llg/llg.hpp"

#include <algorithm>
#include <limits>

namespace autobraid {
namespace {

constexpr uint32_t kEnd = std::numeric_limits<uint32_t>::max();

/**
 * Sort @p order's (area, member) pairs and report whether each member's
 * box strictly encloses the previous one's. Strict enclosure needs two
 * more rows and two more columns, so equal areas never nest strictly
 * and the result does not depend on how ties sort.
 */
bool
strictChain(std::vector<std::pair<long, uint32_t>> &order,
            std::span<const BBox> boxes)
{
    std::sort(order.begin(), order.end());
    for (size_t i = 1; i < order.size(); ++i) {
        if (!boxes[order[i].second].strictlyContains(
                boxes[order[i - 1].second]))
            return false;
    }
    return true;
}

/**
 * Grow the non-empty box @p joint over the non-empty box @p o; true
 * when it grew.
 */
bool
cover(BBox &joint, const BBox &o)
{
    bool grew = false;
    const auto extend = [&grew](int &side, int to, bool further) {
        if (further) {
            side = to;
            grew = true;
        }
    };
    extend(joint.rmin, o.rmin, o.rmin < joint.rmin);
    extend(joint.cmin, o.cmin, o.cmin < joint.cmin);
    extend(joint.rmax, o.rmax, o.rmax > joint.rmax);
    extend(joint.cmax, o.cmax, o.cmax > joint.cmax);
    return grew;
}

std::vector<BBox>
boxesOf(const std::vector<CxTask> &tasks)
{
    std::vector<BBox> boxes;
    boxes.reserve(tasks.size());
    for (const CxTask &t : tasks)
        boxes.push_back(t.bbox);
    return boxes;
}

} // namespace

void
LlgMerger::merge(std::span<const BBox> boxes)
{
    groups_.clear();
    next_.resize(boxes.size());
    for (uint32_t i = 0; i < boxes.size(); ++i) {
        Group g{boxes[i], i, i, 1};
        next_[i] = kEnd;
        // Absorb every group the new one meets. Groups already passed
        // over can only meet a joint box that has since grown, so
        // rescan only after growth.
        for (bool grew = true; grew;) {
            grew = false;
            for (size_t k = 0; k < groups_.size();) {
                const Group &other = groups_[k];
                if (!g.joint.intersects(other.joint)) {
                    ++k;
                    continue;
                }
                grew |= cover(g.joint, other.joint);
                next_[g.tail] = other.head;
                g.tail = other.tail;
                g.size += other.size;
                groups_[k] = groups_.back();
                groups_.pop_back();
            }
        }
        groups_.push_back(g);
    }
}

bool
LlgMerger::nested(std::span<const BBox> boxes, const Group &group)
{
    // The outermost box of a strictly nested group is its joint box, so
    // a group without a member spanning the joint box needs no sort.
    bool spanned = false;
    for (uint32_t m = group.head; m != kEnd && !spanned; m = next_[m])
        spanned = boxes[m] == group.joint;
    if (!spanned)
        return false;
    order_.clear();
    for (uint32_t m = group.head; m != kEnd; m = next_[m])
        order_.emplace_back(boxes[m].area(), m);
    return strictChain(order_, boxes);
}

LlgStats
LlgMerger::stats(std::span<const BBox> boxes)
{
    merge(boxes);
    LlgStats stats;
    stats.num_llgs = groups_.size();
    for (const Group &g : groups_) {
        stats.largest = std::max<size_t>(stats.largest, g.size);
        if (g.size > 3) {
            ++stats.oversize;
            if (!nested(boxes, g))
                ++stats.hard;
        }
    }
    return stats;
}

std::vector<Llg>
LlgMerger::groups(std::span<const BBox> boxes)
{
    merge(boxes);
    std::vector<uint32_t> group_of(boxes.size());
    for (uint32_t k = 0; k < groups_.size(); ++k)
        for (uint32_t m = groups_[k].head; m != kEnd; m = next_[m])
            group_of[m] = k;
    // A group's slot is assigned at its smallest member.
    std::vector<uint32_t> slot(groups_.size(), kEnd);
    std::vector<Llg> llgs;
    llgs.reserve(groups_.size());
    for (uint32_t i = 0; i < boxes.size(); ++i) {
        uint32_t &s = slot[group_of[i]];
        if (s == kEnd) {
            s = static_cast<uint32_t>(llgs.size());
            llgs.emplace_back();
            llgs.back().members.reserve(groups_[group_of[i]].size);
        }
        llgs[s].members.push_back(i);
        llgs[s].bbox.cover(boxes[i]);
    }
    return llgs;
}

std::vector<Llg>
computeLlgs(const std::vector<CxTask> &tasks)
{
    return LlgMerger().groups(boxesOf(tasks));
}

bool
isStrictlyNested(const Llg &llg, const std::vector<CxTask> &tasks)
{
    std::vector<BBox> boxes;
    std::vector<std::pair<long, uint32_t>> order;
    for (size_t m : llg.members) {
        order.emplace_back(tasks[m].bbox.area(),
                           static_cast<uint32_t>(boxes.size()));
        boxes.push_back(tasks[m].bbox);
    }
    return strictChain(order, boxes);
}

LlgStats
llgStats(const std::vector<CxTask> &tasks)
{
    return LlgMerger().stats(boxesOf(tasks));
}

} // namespace autobraid
