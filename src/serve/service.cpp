#include "serve/service.hpp"

#include <chrono>
#include <cmath>
#include <future>

#include "common/error.hpp"
#include "common/json.hpp"
#include "compiler/driver.hpp"
#include "gen/registry.hpp"
#include "qasm/elaborator.hpp"

namespace autobraid {
namespace serve {

namespace {

using Clock = std::chrono::steady_clock;

uint64_t
elapsedMicros(Clock::time_point since)
{
    return static_cast<uint64_t>(
        std::chrono::duration_cast<std::chrono::microseconds>(
            Clock::now() - since)
            .count());
}

/** Render a request "id" value back as JSON (echoed verbatim). */
std::string
renderId(const json::Value *id)
{
    std::string out;
    json::Writer w(out);
    if (id == nullptr || id->isNull())
        w.null();
    else if (id->isBool())
        w.value(id->asBool());
    else if (id->isString())
        w.value(id->asString());
    else if (id->isNumber()) {
        const double d = id->asNumber();
        if (d == std::floor(d) && std::fabs(d) < 9.0e15)
            w.value(static_cast<long long>(d));
        else
            w.significant(d, 17);
    } else
        throw UserError("request 'id' must be a string, number, bool, "
                        "or null");
    return out;
}

/**
 * A response: the envelope (format, v, id, status) followed by the
 * members @p fields writes. Every reply is written through here;
 * @p extra sizes the reservation for a large raw member.
 */
template <typename Fields>
std::string
envelope(const std::string &id_json, const char *status, Fields fields,
         size_t extra = 0)
{
    std::string out;
    out.reserve(id_json.size() + extra + 128);
    json::Writer w(out);
    w.beginObject().key("format").value("autobraid-serve");
    w.key("v").value(kServeProtocolVersion).key("id").raw(id_json);
    w.key("status").value(status);
    fields(w);
    w.end();
    return out;
}

/** An "ok" reply carrying a report body (fresh or from the cache). */
std::string
reportResponse(const std::string &id_json, bool cached,
               const CacheKey *key, uint64_t latency_us,
               const std::string &body)
{
    return envelope(
        id_json, "ok",
        [&](json::Writer &w) {
            w.key("cached").value(cached);
            if (key)
                w.key("cache_key").value(key->toHex());
            w.key("latency_us").value(latency_us).key("report").raw(body);
        },
        body.size());
}

std::string
shedResponse(const std::string &id_json, const char *reason,
             uint64_t latency_us)
{
    return envelope(id_json, "shed", [&](json::Writer &w) {
        w.key("reason").value(reason).key("latency_us").value(latency_us);
    });
}

/** One parsed compile request (everything but the circuit). */
struct ParsedRequest
{
    std::string id_json = "null";
    std::string op;   ///< non-empty for control requests
    std::string qasm; ///< exactly one of qasm/spec set
    std::string spec;
    CompileOptions options;
    uint64_t deadline_ms = 0;
    bool use_cache = true;
};

/**
 * Read @p request_json into @p req. The id is filled before anything
 * else is read, so an error reply can still carry it.
 */
void
parseRequest(const std::string &request_json, ParsedRequest &req)
{
    const json::Value doc = json::parse(request_json);
    if (!doc.isObject())
        throw UserError("request must be a JSON object");
    req.id_json = renderId(doc.find("id"));
    if (const json::Value *op = doc.find("op")) {
        req.op = op->asString();
        return;
    }

    const json::Value *qasm = doc.find("qasm");
    const json::Value *spec = doc.find("spec");
    if ((qasm == nullptr) == (spec == nullptr))
        throw UserError(
            "request needs exactly one of 'qasm' or 'spec'");
    if (qasm)
        req.qasm = qasm->asString();
    else
        req.spec = spec->asString();
    // A qasm:PATH spec would make the server read one of its own files;
    // serve takes generator families only, and QASM comes inline. The
    // family is the one gen::make would dispatch on, so spellings such
    // as ":qasm:PATH" are caught too.
    if (gen::family(req.spec) == "qasm")
        throw UserError("request 'spec' may not name the qasm family; "
                        "send the QASM source inline as 'qasm'");

    if (const json::Value *v = doc.find("deadline_ms")) {
        constexpr double kMaxDeadlineMs = 1000.0 * 86400;
        const double ms = v->isNumber() ? v->asNumber() : -1;
        if (ms != std::floor(ms) || ms < 0 || ms > kMaxDeadlineMs)
            throw UserError("request 'deadline_ms' must be an integer "
                            "in [0, 86400000]");
        req.deadline_ms = static_cast<uint64_t>(ms);
    }
    if (const json::Value *v = doc.find("use_cache")) {
        if (!v->isBool())
            throw UserError("request 'use_cache' must be a bool");
        req.use_cache = v->asBool();
    }

    if (const json::Value *options = doc.find("options")) {
        if (!options->isObject())
            throw UserError("request 'options' must be an object");
        for (const auto &[key, value] : options->asObject())
            if (!setOption(req.options, key, value))
                throw UserError("unknown request option '" + key + "'");
    }
    req.options.validate();
}

} // namespace

std::string
reportBody(const CompileReport &report)
{
    std::string out;
    json::Writer w(out);
    w.beginObject();
    w.key("circuit").value(report.circuit_name);
    w.key("policy").value(policyName(report.policy));
    w.key("backend").value(backendName(report.backend));
    w.key("qubits").value(report.num_qubits);
    w.key("gates").value(report.num_gates);
    w.key("grid").value(report.grid_side);
    w.key("critical_path").value(report.critical_path);
    w.key("makespan").value(report.result.makespan);
    w.key("cp_ratio").fixed(report.cpRatio(), 9);
    w.key("braids").value(report.result.braids_routed);
    w.key("swaps").value(report.result.swaps_inserted);
    w.key("failures").value(report.result.routing_failures);
    w.key("used_maslov").value(report.used_maslov);
    w.key("valid").value(report.result.valid);
    w.key("counters").beginObject();
    for (const auto &[name, value] : report.counters)
        w.key(name).value(value);
    w.end().key("metrics_summary").value(report.metricsSummary()).end();
    return out;
}

std::string
errorResponse(const std::string &id_json, const std::string &message)
{
    return envelope(id_json, "error", [&](json::Writer &w) {
        w.key("error").value(message);
    });
}

const std::vector<double> &
serveLatencyBounds()
{
    // 1 us .. 2^26 us (~67 s) in powers of two: enough resolution for
    // cache hits (microseconds) and cold compiles (seconds) alike.
    static const std::vector<double> bounds = [] {
        std::vector<double> b;
        for (int i = 0; i <= 26; ++i)
            b.push_back(static_cast<double>(1ULL << i));
        return b;
    }();
    return bounds;
}

struct CompileService::Job
{
    std::string id_json;
    // Placeholder width: Circuit rejects zero-qubit construction, and
    // every queued job overwrites this with the parsed circuit.
    Circuit circuit{1};
    CompileOptions options;
    CacheKey key;
    std::string canonical;
    bool use_cache = true;
    uint64_t deadline_ms = 0;
    Clock::time_point admitted;
    std::function<void(std::string)> done;
};

CompileService::CompileService(ServiceConfig config)
    : config_(config), cache_(config.cache_entries)
{
    if (config_.workers < 0 ||
        config_.workers > kMaxWorkerThreads)
        fatal("serve workers must be in [0, %d], got %d",
              kMaxWorkerThreads, config_.workers);
    if (config_.queue_depth == 0)
        fatal("serve queue depth must be >= 1");
    int workers = config_.workers;
    if (workers == 0) {
        const unsigned hw = std::thread::hardware_concurrency();
        workers = hw > 0 ? static_cast<int>(hw) : 1;
        if (workers > kMaxWorkerThreads)
            workers = kMaxWorkerThreads;
    }
    metrics_.set("serve.workers", workers);
    metrics_.set("serve.queue_capacity",
                 static_cast<double>(config_.queue_depth));
    workers_.reserve(static_cast<size_t>(workers));
    try {
        for (int i = 0; i < workers; ++i)
            workers_.emplace_back([this] { workerLoop(); });
    } catch (...) {
        // Mirror BatchCompiler: a mid-spawn failure must stop and
        // join the threads already running before propagating.
        {
            std::lock_guard<std::mutex> lock(mu_);
            stopping_ = true;
        }
        work_ready_.notify_all();
        for (std::thread &t : workers_)
            if (t.joinable())
                t.join();
        throw;
    }
}

CompileService::~CompileService()
{
    shutdown();
}

void
CompileService::submit(std::string request_json,
                       std::function<void(std::string)> done)
{
    const Clock::time_point t0 = Clock::now();
    metrics_.add("serve.requests");

    ParsedRequest req;
    req.deadline_ms = config_.default_deadline_ms;
    try {
        parseRequest(request_json, req);
    } catch (const Error &e) {
        metrics_.add("serve.errors");
        done(errorResponse(req.id_json, e.what()));
        return;
    }

    if (!req.op.empty()) {
        metrics_.add("serve.control");
        std::string metrics; // raw member of the "metrics" reply
        if (req.op == "metrics") {
            metrics = metricsSnapshot().toJson();
        } else if (req.op == "shutdown") {
            std::lock_guard<std::mutex> lock(mu_);
            shutdown_requested_ = true;
        } else if (req.op != "ping") {
            metrics_.add("serve.errors");
            done(errorResponse(req.id_json,
                               "unknown op '" + req.op + "'"));
            return;
        }
        done(envelope(req.id_json, "ok", [&](json::Writer &w) {
            w.key("op").value(req.op == "ping" ? "pong" : req.op);
            if (!metrics.empty())
                w.key("metrics").raw(metrics);
        }));
        return;
    }

    Job job;
    job.id_json = req.id_json;
    job.options = req.options;
    job.use_cache = req.use_cache && cache_.capacity() > 0;
    job.deadline_ms = req.deadline_ms;
    job.admitted = t0;
    job.done = std::move(done);
    try {
        job.circuit = req.spec.empty()
                          ? qasm::parseToCircuit(req.qasm)
                          : gen::make(req.spec);
        job.options.validate(job.circuit);
    } catch (const Error &e) {
        metrics_.add("serve.errors");
        job.done(errorResponse(job.id_json, e.what()));
        return;
    }

    if (job.use_cache) {
        job.canonical = cacheCanonical(job.circuit, job.options);
        job.key = cacheKey(job.circuit, job.options);
        if (const auto body =
                cache_.lookup(job.key, job.canonical)) {
            const uint64_t us = elapsedMicros(t0);
            metrics_.add("serve.ok");
            metrics_.observe("serve.latency_us",
                             static_cast<double>(us),
                             serveLatencyBounds());
            metrics_.observe("serve.latency_us.hit",
                             static_cast<double>(us),
                             serveLatencyBounds());
            job.done(
                reportResponse(job.id_json, true, &job.key, us, *body));
            return;
        }
    }

    {
        std::lock_guard<std::mutex> lock(mu_);
        if (queue_.size() >= config_.queue_depth) {
            metrics_.add("serve.shed.queue_full");
            job.done(shedResponse(job.id_json, "queue_full",
                                  elapsedMicros(t0)));
            return;
        }
        queue_.push_back(std::move(job));
        metrics_.set("serve.queue_depth",
                     static_cast<double>(queue_.size()));
    }
    work_ready_.notify_one();
}

std::string
CompileService::handle(const std::string &request_json)
{
    std::promise<std::string> promise;
    std::future<std::string> future = promise.get_future();
    submit(request_json, [&promise](std::string response) {
        promise.set_value(std::move(response));
    });
    return future.get();
}

std::string
CompileService::compileRequest(const Job &job)
{
    const CompileReport report =
        compileCircuit(job.circuit, job.options);
    std::string body = reportBody(report);
    if (job.use_cache)
        cache_.insert(job.key, job.canonical, body);
    return body;
}

void
CompileService::finishJob(Job &&job)
{
    if (config_.worker_hook)
        config_.worker_hook();

    const uint64_t waited_ms =
        elapsedMicros(job.admitted) / 1000;
    if (job.deadline_ms > 0 && waited_ms > job.deadline_ms) {
        metrics_.add("serve.shed.deadline");
        job.done(shedResponse(job.id_json, "deadline",
                              elapsedMicros(job.admitted)));
        return;
    }

    std::string response;
    try {
        const std::string body = compileRequest(job);
        const uint64_t us = elapsedMicros(job.admitted);
        metrics_.add("serve.ok");
        metrics_.observe("serve.latency_us",
                         static_cast<double>(us),
                         serveLatencyBounds());
        metrics_.observe("serve.latency_us.miss",
                         static_cast<double>(us),
                         serveLatencyBounds());
        response = reportResponse(job.id_json, false,
                                  job.use_cache ? &job.key : nullptr,
                                  us, body);
    } catch (const std::exception &e) {
        metrics_.add("serve.errors");
        response = errorResponse(job.id_json, e.what());
    } catch (...) {
        // A non-std throw from a pass must degrade to a structured
        // error reply, never terminate the pool (same hardening as
        // BatchCompiler::compileAll).
        metrics_.add("serve.errors");
        response = errorResponse(job.id_json,
                                 "non-standard exception during "
                                 "compile");
    }
    job.done(std::move(response));
}

void
CompileService::workerLoop()
{
    for (;;) {
        Job job;
        {
            std::unique_lock<std::mutex> lock(mu_);
            work_ready_.wait(lock, [this] {
                return stopping_ || !queue_.empty();
            });
            if (stopping_ && queue_.empty())
                return;
            job = std::move(queue_.front());
            queue_.pop_front();
            ++in_flight_;
            metrics_.set("serve.queue_depth",
                         static_cast<double>(queue_.size()));
        }
        finishJob(std::move(job));
        {
            std::lock_guard<std::mutex> lock(mu_);
            --in_flight_;
        }
        idle_.notify_all();
    }
}

void
CompileService::drain()
{
    std::unique_lock<std::mutex> lock(mu_);
    idle_.wait(lock, [this] {
        return queue_.empty() && in_flight_ == 0;
    });
}

void
CompileService::shutdown()
{
    drain();
    {
        std::lock_guard<std::mutex> lock(mu_);
        if (stopping_)
            return;
        stopping_ = true;
    }
    work_ready_.notify_all();
    for (std::thread &t : workers_)
        if (t.joinable())
            t.join();
}

bool
CompileService::shutdownRequested() const
{
    std::lock_guard<std::mutex> lock(mu_);
    return shutdown_requested_;
}

telemetry::MetricsRegistry
CompileService::metricsSnapshot() const
{
    telemetry::MetricsRegistry out(metrics_);
    const CacheStats stats = cache_.stats();
    out.add("serve.cache.hits",
            static_cast<long long>(stats.hits));
    out.add("serve.cache.misses",
            static_cast<long long>(stats.misses));
    out.add("serve.cache.insertions",
            static_cast<long long>(stats.insertions));
    out.add("serve.cache.evictions",
            static_cast<long long>(stats.evictions));
    out.set("serve.cache.entries",
            static_cast<double>(stats.entries));
    out.set("serve.cache.capacity",
            static_cast<double>(stats.capacity));
    return out;
}

} // namespace serve
} // namespace autobraid
