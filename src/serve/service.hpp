/**
 * @file
 * CompileService — the serve daemon's request engine.
 *
 * A persistent worker pool behind a bounded admission queue. Each
 * submitted request is a JSON document (docs/serving.md):
 *
 *   {"id": ..., "qasm": "..."|"spec": "qft:12",
 *    "options": {...}, "deadline_ms": N, "use_cache": true}
 *
 * or a control request {"op": "ping"|"metrics"|"shutdown"}. Every
 * submit() is answered exactly once with a response JSON:
 *
 *   {"format": "autobraid-serve", "v": 1, "id": ...,
 *    "status": "ok"|"shed"|"error", ...}
 *
 * Admission control and graceful shedding: the fast path (malformed
 * requests, control ops, cache hits, and queue-full rejections) is
 * answered synchronously on the submitting thread; everything else
 * enters the bounded queue. A burst beyond queue capacity yields
 * structured {"status":"shed","reason":"queue_full"} responses —
 * never a crash, never a lost in-flight request. A request whose
 * deadline expires while queued is shed with reason "deadline" when
 * a worker picks it up (compiles that already started run to
 * completion: braided-circuit optimization is not abortable
 * mid-pass).
 *
 * Replies are deterministic: the "report" object contains only
 * simulated-time and counter data (never wall clock), so cached and
 * fresh replies for the same request are byte-identical, and so are
 * replies computed by different workers. Wall-clock latency travels
 * in the envelope ("latency_us") and in the serve.latency_us.*
 * histograms.
 */

#ifndef AUTOBRAID_SERVE_SERVICE_HPP
#define AUTOBRAID_SERVE_SERVICE_HPP

#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "compiler/batch.hpp"
#include "serve/cache.hpp"
#include "telemetry/metrics.hpp"

namespace autobraid {
namespace serve {

/** Serve protocol version stamped into every response. */
constexpr int kServeProtocolVersion = 1;

/**
 * The deterministic reply body: simulated-time metrics and counters
 * only — no wall clock — so replies are byte-identical across
 * workers, runs, and cache hits (the cache stores exactly this
 * string).
 */
std::string reportBody(const CompileReport &report);

/**
 * A complete {"status": "error"} response carrying @p message, for
 * the request whose id, as JSON, is @p id_json ("null" when unknown).
 */
std::string errorResponse(const std::string &id_json,
                          const std::string &message);

/** Service-wide settings (validated by the constructor). */
struct ServiceConfig
{
    /** Worker threads; 0 = hardware concurrency, capped like the
     *  BatchCompiler at kMaxWorkerThreads. */
    int workers = 0;

    /** Max requests awaiting a worker; beyond it submissions are
     *  shed with reason "queue_full". */
    size_t queue_depth = 64;

    /** Compile-cache capacity in entries; 0 disables caching. */
    size_t cache_entries = 1024;

    /** Default per-request deadline in ms (0 = none); requests may
     *  lower or raise it per call via "deadline_ms". */
    uint64_t default_deadline_ms = 0;

    /**
     * Test-only hook run by a worker before each compile; lets the
     * tests hold workers at a barrier to provoke queue-full and
     * deadline shedding deterministically. Never set in production.
     */
    std::function<void()> worker_hook;
};

/** Latency histogram bounds: powers of two, 1 us .. ~64 s. */
const std::vector<double> &serveLatencyBounds();

/** Persistent compile service (tentpole of docs/serving.md). */
class CompileService
{
  public:
    explicit CompileService(ServiceConfig config);

    /** Drains and joins the workers. */
    ~CompileService();

    CompileService(const CompileService &) = delete;
    CompileService &operator=(const CompileService &) = delete;

    /**
     * Submit one request document. @p done receives the response
     * JSON exactly once — synchronously for fast-path outcomes
     * (errors, control ops, cache hits, shed), from a worker thread
     * otherwise. @p done must be thread-safe against other replies.
     */
    void submit(std::string request_json,
                std::function<void(std::string)> done);

    /** Synchronous convenience: submit and wait for the response. */
    std::string handle(const std::string &request_json);

    /** Block until the queue is empty and no reply is in flight. */
    void drain();

    /** Drain, then stop and join the worker pool (idempotent). */
    void shutdown();

    /** True after a {"op":"shutdown"} request was answered. */
    bool shutdownRequested() const;

    /**
     * Point-in-time copy of the serve metrics with the cache
     * counters folded in (serve.cache.* / serve.latency_us.*).
     */
    telemetry::MetricsRegistry metricsSnapshot() const;

    CacheStats cacheStats() const { return cache_.stats(); }
    int workerCount() const
    {
        return static_cast<int>(workers_.size());
    }

  private:
    struct Job;

    void workerLoop();
    void finishJob(Job &&job);
    std::string compileRequest(const Job &job);

    ServiceConfig config_;
    CompileCache cache_;
    telemetry::MetricsRegistry metrics_;

    mutable std::mutex mu_;
    std::condition_variable work_ready_;
    std::condition_variable idle_;
    std::deque<Job> queue_;
    size_t in_flight_ = 0;
    bool stopping_ = false;
    bool shutdown_requested_ = false;
    std::vector<std::thread> workers_;
};

} // namespace serve
} // namespace autobraid

#endif // AUTOBRAID_SERVE_SERVICE_HPP
