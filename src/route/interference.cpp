#include "route/interference.hpp"

#include <algorithm>
#include <climits>
#include <cstring>

#include "common/error.hpp"

namespace autobraid {

namespace {

/**
 * Gather the low bit of 8 consecutive 0/1 bytes into one byte (LSB
 * first). Byte k sits at bit 8k; multiplying by the constant shifts it
 * to bit 56+k, and each destination bit receives exactly one term, so
 * no carries cross.
 */
inline uint64_t
pack8(const uint8_t *p)
{
    uint64_t x;
    std::memcpy(&x, p, 8);
    return (x * 0x0102040810204080ULL) >> 56;
}

inline int
popcount64(uint64_t w)
{
    return __builtin_popcountll(w);
}

inline int
ctz64(uint64_t w)
{
    return __builtin_ctzll(w);
}

} // namespace

InterferenceGraph::InterferenceGraph(const std::vector<CxTask> &tasks)
{
    rebuild(tasks);
}

void
InterferenceGraph::rebuild(const std::vector<CxTask> &tasks)
{
    const size_t n = tasks.size();
    n_ = n;
    stride_ = (n + 63) / 64;
    rows_.resize(n * stride_);
    degree_.assign(n, 0);
    removed_.assign(n, 0);
    active_count_ = n;
    active_.assign(stride_, ~uint64_t{0});
    if (stride_ > 0 && (n & 63u) != 0)
        active_[stride_ - 1] = (~uint64_t{0}) >> (64 - (n & 63u));

    // Flatten the bounding boxes. An empty box intersects nothing
    // (BBox::intersects returns false), so it gets coordinates that
    // fail every pair test, its own included.
    rmin_.resize(n);
    rmax_.resize(n);
    cmin_.resize(n);
    cmax_.resize(n);
    for (size_t i = 0; i < n; ++i) {
        const BBox &b = tasks[i].bbox;
        if (b.empty()) {
            rmin_[i] = INT_MAX;
            rmax_[i] = INT_MIN;
            cmin_[i] = INT_MAX;
            cmax_[i] = INT_MIN;
        } else {
            rmin_[i] = b.rmin;
            rmax_[i] = b.rmax;
            cmin_[i] = b.cmin;
            cmax_[i] = b.cmax;
        }
    }

    // One row per node: a vectorizable sweep writes a 0/1 byte per
    // pair, then the bytes are packed 64-per-word. Padding bytes past
    // n stay zero so the last word needs no edge masking.
    hit_.resize(stride_ * 64);
    std::fill(hit_.begin() + static_cast<ptrdiff_t>(n), hit_.end(),
              uint8_t{0});
    const int *rlo = rmin_.data();
    const int *rhi = rmax_.data();
    const int *clo = cmin_.data();
    const int *chi = cmax_.data();
    uint8_t *hit = hit_.data();
    for (size_t i = 0; i < n; ++i) {
        const int a = rlo[i], b = rhi[i], c = clo[i], d = chi[i];
        for (size_t j = 0; j < n; ++j)
            hit[j] = static_cast<uint8_t>(
                static_cast<int>(a <= rhi[j]) &
                static_cast<int>(rlo[j] <= b) &
                static_cast<int>(c <= chi[j]) &
                static_cast<int>(clo[j] <= d));
        uint64_t *row = rows_.data() + i * stride_;
        int deg = 0;
        for (size_t w = 0; w < stride_; ++w) {
            uint64_t bits = 0;
            const uint8_t *p = hit + w * 64;
            for (int k = 0; k < 8; ++k)
                bits |= pack8(p + 8 * k) << (8 * k);
            row[w] = bits;
            deg += popcount64(bits);
        }
        // A non-empty box always meets itself; drop the self loop.
        deg -= hit[i];
        row[i >> 6] &= ~(uint64_t{1} << (i & 63u));
        degree_[i] = deg;
    }

    max_degree_bound_ = 0;
    for (size_t i = 0; i < n; ++i)
        max_degree_bound_ = std::max(max_degree_bound_, degree_[i]);
    for (auto &bucket : buckets_)
        bucket.clear();
    if (buckets_.size() < static_cast<size_t>(max_degree_bound_) + 1)
        buckets_.resize(static_cast<size_t>(max_degree_bound_) + 1);
    live_count_.assign(buckets_.size(), 0);
    for (size_t i = 0; i < n; ++i) {
        buckets_[static_cast<size_t>(degree_[i])].push_back(i);
        ++live_count_[static_cast<size_t>(degree_[i])];
    }
}

void
InterferenceGraph::compactBucket(int d) const
{
    std::vector<size_t> &b = buckets_[static_cast<size_t>(d)];
    if (b.size() == live_count_[static_cast<size_t>(d)])
        return; // nothing stale
    b.erase(std::remove_if(b.begin(), b.end(),
                           [this, d](size_t n) {
                               return removed_[n] != 0 ||
                                      degree_[n] != d;
                           }),
            b.end());
}

int
InterferenceGraph::maxDegree() const
{
    while (max_degree_bound_ > 0 &&
           live_count_[static_cast<size_t>(max_degree_bound_)] == 0)
        --max_degree_bound_;
    return max_degree_bound_;
}

size_t
InterferenceGraph::peelPick(const std::vector<CxTask> &tasks) const
{
    const int best = maxDegree();
    compactBucket(best);
    const std::vector<size_t> &bucket =
        buckets_[static_cast<size_t>(best)];
    require(!bucket.empty(), "InterferenceGraph::peelPick: empty graph");
    // (max area, min index) over the bucket is independent of bucket
    // order, so no sort is needed.
    size_t pick = bucket.front();
    long pick_area = tasks[pick].bbox.area();
    for (const size_t node : bucket) {
        const long area = tasks[node].bbox.area();
        if (area > pick_area ||
            (area == pick_area && node < pick)) {
            pick = node;
            pick_area = area;
        }
    }
    return pick;
}

void
InterferenceGraph::remove(size_t i)
{
    require(i < n_ && !removed_[i],
            "InterferenceGraph::remove: bad node");
    removed_[i] = 1;
    --active_count_;
    active_[i >> 6] &= ~(uint64_t{1} << (i & 63u));
    --live_count_[static_cast<size_t>(degree_[i])];
    const uint64_t *row = rows_.data() + i * stride_;
    for (size_t w = 0; w < stride_; ++w) {
        uint64_t m = row[w] & active_[w];
        while (m) {
            const size_t nb =
                w * 64 + static_cast<size_t>(ctz64(m));
            m &= m - 1;
            --live_count_[static_cast<size_t>(degree_[nb])];
            --degree_[nb];
            buckets_[static_cast<size_t>(degree_[nb])].push_back(nb);
            ++live_count_[static_cast<size_t>(degree_[nb])];
        }
    }
    degree_[i] = 0;
}

std::vector<size_t>
InterferenceGraph::activeNeighbors(size_t i) const
{
    std::vector<size_t> out;
    const uint64_t *row = rows_.data() + i * stride_;
    for (size_t w = 0; w < stride_; ++w) {
        uint64_t m = row[w] & active_[w];
        while (m) {
            out.push_back(w * 64 + static_cast<size_t>(ctz64(m)));
            m &= m - 1;
        }
    }
    return out;
}

void
InterferenceGraph::activeNodes(std::vector<size_t> &out) const
{
    out.clear();
    for (size_t i = 0; i < n_; ++i)
        if (!removed_[i])
            out.push_back(i);
}

size_t
InterferenceGraph::components(std::vector<size_t> &comp_id) const
{
    comp_id.assign(n_, SIZE_MAX);
    unvisited_.assign(stride_, ~uint64_t{0});
    if (stride_ > 0 && (n_ & 63u) != 0)
        unvisited_[stride_ - 1] =
            (~uint64_t{0}) >> (64 - (n_ & 63u));
    size_t ncomp = 0;
    for (size_t i = 0; i < n_; ++i) {
        if (comp_id[i] != SIZE_MAX)
            continue;
        comp_id[i] = ncomp;
        unvisited_[i >> 6] &= ~(uint64_t{1} << (i & 63u));
        bfs_.clear();
        bfs_.push_back(i);
        for (size_t head = 0; head < bfs_.size(); ++head) {
            const uint64_t *row =
                rows_.data() + bfs_[head] * stride_;
            for (size_t w = 0; w < stride_; ++w) {
                uint64_t m = row[w] & unvisited_[w];
                if (!m)
                    continue;
                unvisited_[w] &= ~m;
                while (m) {
                    const size_t nb =
                        w * 64 + static_cast<size_t>(ctz64(m));
                    m &= m - 1;
                    comp_id[nb] = ncomp;
                    bfs_.push_back(nb);
                }
            }
        }
        ++ncomp;
    }
    return ncomp;
}

} // namespace autobraid
