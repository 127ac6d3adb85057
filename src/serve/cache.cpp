#include "serve/cache.hpp"

#include "circuit/circuit.hpp"
#include "common/text.hpp"
#include "sched/backend.hpp"

namespace autobraid {
namespace serve {

std::string
CacheKey::toHex() const
{
    return strformat("%016llx%016llx",
                     static_cast<unsigned long long>(hi),
                     static_cast<unsigned long long>(lo));
}

std::string
cacheCanonical(const Circuit &circuit, const CompileOptions &options)
{
    std::string out;
    out.reserve(64 + circuit.size() * 16);
    out += "serve-cache-key v2\n";
    out += strformat("name=%s\nqubits=%d\n", circuit.name().c_str(),
                     circuit.numQubits());
    for (const Gate &g : circuit.gates())
        // %a prints the exact angle bits, so two circuits differing
        // only below decimal-printing precision stay distinct.
        out += strformat("g %d %d %d %a\n",
                         static_cast<int>(g.kind), g.q0, g.q1,
                         g.angle);
    out += strformat(
        "policy=%s backend=%s distance=%d p=%a "
        "maslov=%d seed=%llu best_of_p0=%d teleport=%llu "
        "baseline_order=%d trace=%d lifecycle=%d\n",
        policyName(options.policy), backendName(options.backend),
        options.cost.distance, options.p_threshold,
        options.allow_maslov ? 1 : 0,
        static_cast<unsigned long long>(options.seed),
        options.best_of_p0 ? 1 : 0,
        static_cast<unsigned long long>(options.channel_hold_cycles),
        static_cast<int>(options.baseline_order),
        options.record_trace ? 1 : 0,
        options.record_lifecycle ? 1 : 0);
    out += "dead=";
    for (VertexId v : options.dead_vertices)
        out += strformat("%d,", v);
    out += "\n";
    const InitialPlacementConfig &pl = options.placement;
    out += strformat("placement=%d,%d,%d leaf_cells=%d\n",
                     pl.use_partitioner ? 1 : 0,
                     pl.use_annealer ? 1 : 0,
                     pl.use_linear_special ? 1 : 0, pl.leaf_cells);
    out += strformat("lint=%d werror=%d suppress=",
                     static_cast<int>(options.lint.level),
                     options.lint.werror ? 1 : 0);
    for (const std::string &s : options.lint.suppressions)
        out += s + ",";
    out += "\n";
    return out;
}

namespace {

/** FNV-1a 64 with a caller-chosen offset basis. */
uint64_t
fnv1a(const std::string &text, uint64_t basis)
{
    uint64_t h = basis;
    for (const char c : text) {
        h ^= static_cast<unsigned char>(c);
        h *= 0x100000001b3ULL;
    }
    return h;
}

} // namespace

CacheKey
cacheKey(const Circuit &circuit, const CompileOptions &options)
{
    const std::string canonical = cacheCanonical(circuit, options);
    CacheKey key;
    key.hi = fnv1a(canonical, 0xcbf29ce484222325ULL);
    key.lo = fnv1a(canonical, 0x9e3779b97f4a7c15ULL);
    return key;
}

CompileCache::CompileCache(size_t capacity) : capacity_(capacity)
{
    stats_.capacity = capacity;
}

std::shared_ptr<const std::string>
CompileCache::lookup(const CacheKey &key, const std::string &canonical)
{
    std::lock_guard<std::mutex> lock(mu_);
    if (capacity_ == 0) {
        ++stats_.misses;
        return nullptr;
    }
    const auto it = entries_.find(key.toHex());
    if (it == entries_.end() || it->second.canonical != canonical) {
        ++stats_.misses;
        return nullptr;
    }
    lru_.splice(lru_.begin(), lru_, it->second.lru_pos);
    ++stats_.hits;
    return it->second.body;
}

void
CompileCache::insert(const CacheKey &key, const std::string &canonical,
                     std::string body)
{
    std::lock_guard<std::mutex> lock(mu_);
    if (capacity_ == 0)
        return;
    const std::string hex = key.toHex();
    const auto it = entries_.find(hex);
    if (it != entries_.end()) {
        // Keep the first stored body: deterministic compiles make the
        // racing bodies identical, and first-wins keeps replies
        // byte-stable even if they ever were not.
        lru_.splice(lru_.begin(), lru_, it->second.lru_pos);
        return;
    }
    lru_.push_front(hex);
    Entry entry;
    entry.canonical = canonical;
    entry.body =
        std::make_shared<const std::string>(std::move(body));
    entry.lru_pos = lru_.begin();
    entries_.emplace(hex, std::move(entry));
    ++stats_.insertions;
    while (entries_.size() > capacity_) {
        entries_.erase(lru_.back());
        lru_.pop_back();
        ++stats_.evictions;
    }
    stats_.entries = entries_.size();
}

CacheStats
CompileCache::stats() const
{
    std::lock_guard<std::mutex> lock(mu_);
    CacheStats out = stats_;
    out.entries = entries_.size();
    out.capacity = capacity_;
    return out;
}

} // namespace serve
} // namespace autobraid
