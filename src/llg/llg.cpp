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
    constexpr size_t kNone = std::numeric_limits<size_t>::max();
    groups_.clear();
    next_.resize(boxes.size());
    size_t empties = 0;
    for (uint32_t i = 0; i < boxes.size(); ++i) {
        next_[i] = kEnd;
        if (boxes[i].empty()) {
            ++empties; // meets nothing: a singleton, added below
            continue;
        }
        // The first group the box meets takes it in, and that host then
        // absorbs every other group its joint box j meets. Joint boxes
        // are never empty, so four compares decide whether two meet. A
        // group passed over can meet only a j that has since grown, so
        // growth restarts the scan.
        size_t host = kNone;
        BBox j = boxes[i];
        for (size_t k = 0; k < groups_.size();) {
            Group &other = groups_[k];
            const BBox &o = other.joint;
            if (k == host || o.rmin > j.rmax || j.rmin > o.rmax ||
                o.cmin > j.cmax || j.cmin > o.cmax) {
                ++k;
                continue;
            }
            const BBox was = j;
            j.rmin = std::min(j.rmin, o.rmin);
            j.cmin = std::min(j.cmin, o.cmin);
            j.rmax = std::max(j.rmax, o.rmax);
            j.cmax = std::max(j.cmax, o.cmax);
            if (host == kNone) {
                host = k;
                next_[other.tail] = i;
                other.tail = i;
                ++other.size;
                other.joint = j;
            } else {
                Group &h = groups_[host];
                next_[h.tail] = other.head;
                h.tail = other.tail;
                h.size += other.size;
                h.joint = j;
                const size_t last = groups_.size() - 1;
                groups_[k] = groups_[last];
                groups_.pop_back();
                if (host == last)
                    host = k;
            }
            if (j != was)
                k = 0;
            else if (k == host)
                ++k;
        }
        if (host == kNone)
            groups_.push_back(Group{boxes[i], i, i, 1});
    }
    for (uint32_t i = 0; empties > 0; ++i) {
        if (boxes[i].empty()) {
            groups_.push_back(Group{boxes[i], i, i, 1});
            --empties;
        }
    }
}

bool
LlgMerger::nested(std::span<const BBox> boxes, const Group &group)
{
    // Each box of a strict chain encloses the one before with a row and
    // a column to spare on every side, so a chain of n boxes needs a
    // joint box at least 2 (n - 1) across.
    const int need = 2 * (static_cast<int>(group.size) - 1);
    if (group.joint.rmax - group.joint.rmin < need ||
        group.joint.cmax - group.joint.cmin < need)
        return false;
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
