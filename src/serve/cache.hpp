/**
 * @file
 * Content-addressed compile cache for the serve daemon.
 *
 * The cache maps a 128-bit digest of the *canonicalized* request —
 * the exact gate list plus every CompileOptions field that can change
 * the schedule or the report — to the serialized reply body produced
 * by the first compile. Repeated circuits (the common case at scale)
 * are answered from the stored bytes, so a hit is byte-identical to
 * the cold compile that populated it by construction.
 *
 * Key canonicalization rules (docs/serving.md), tagged
 * `serve-cache-key v2`:
 *  - the circuit contributes its name, qubit count, and every gate
 *    (kind, operands, exact angle bits);
 *  - schedule-relevant options contribute: policy, backend, distance,
 *    p_threshold, allow_maslov, seed, best_of_p0,
 *    channel_hold_cycles, baseline_order, record_trace,
 *    record_lifecycle, dead vertices, the placement switches and
 *    leaf_cells, and the lint options (they alter the report's
 *    diagnostics);
 *  - wall-clock-only and side-effect-only fields are excluded:
 *    route_jobs (schedules are byte-identical for every value),
 *    telemetry switches, and schedule_out.
 *
 * Entries are evicted least-recently-used once the entry capacity is
 * exceeded; hit/miss/insert/eviction counters feed the serve metrics.
 * All operations are thread-safe. Digest collisions are handled by
 * storing the canonical text alongside the entry and verifying it on
 * every hit — a mismatch is reported as a miss, never a wrong reply.
 */

#ifndef AUTOBRAID_SERVE_CACHE_HPP
#define AUTOBRAID_SERVE_CACHE_HPP

#include <cstdint>
#include <list>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>

#include "compiler/options.hpp"

namespace autobraid {

class Circuit;

namespace serve {

/** 128-bit content digest, rendered as 32 lowercase hex digits. */
struct CacheKey
{
    uint64_t hi = 0;
    uint64_t lo = 0;

    std::string toHex() const;
    bool operator==(const CacheKey &other) const = default;
};

/**
 * Canonical text of (@p circuit, @p options) under the rules above;
 * the digest input, exposed for tests and key documentation.
 */
std::string cacheCanonical(const Circuit &circuit,
                           const CompileOptions &options);

/** Digest of cacheCanonical() (FNV-1a 64 over two bases). */
CacheKey cacheKey(const Circuit &circuit,
                  const CompileOptions &options);

/** Monotonic cache health counters (snapshot). */
struct CacheStats
{
    uint64_t hits = 0;
    uint64_t misses = 0;
    uint64_t insertions = 0;
    uint64_t evictions = 0;
    size_t entries = 0;
    size_t capacity = 0;
};

/** Thread-safe LRU map: CacheKey -> stored reply body. */
class CompileCache
{
  public:
    /** @param capacity max live entries; 0 disables every lookup. */
    explicit CompileCache(size_t capacity);

    /**
     * Look up @p key, verifying @p canonical against the stored
     * text. Returns the stored body (bumping recency) or nullptr on
     * a miss; both outcomes are counted.
     */
    std::shared_ptr<const std::string> lookup(
        const CacheKey &key, const std::string &canonical);

    /**
     * Store @p body under @p key, evicting the least-recently-used
     * entries beyond capacity. Re-inserting an existing key
     * refreshes recency but keeps the first body (identical by
     * determinism, so racing fresh compiles stay byte-stable).
     */
    void insert(const CacheKey &key, const std::string &canonical,
                std::string body);

    CacheStats stats() const;
    size_t capacity() const { return capacity_; }

  private:
    struct Entry
    {
        std::string canonical;
        std::shared_ptr<const std::string> body;
        std::list<std::string>::iterator lru_pos;
    };

    mutable std::mutex mu_;
    size_t capacity_;
    std::list<std::string> lru_; ///< hex keys, most recent first
    std::unordered_map<std::string, Entry> entries_;
    CacheStats stats_;
};

} // namespace serve
} // namespace autobraid

#endif // AUTOBRAID_SERVE_CACHE_HPP
