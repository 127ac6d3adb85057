// Tests for the persistent compile service: length-prefixed framing
// (including truncated / oversized / garbage frames), the
// content-addressed compile cache (hits byte-identical to the cold
// compile that populated them), admission control and structured
// shedding (queue_full / deadline), and determinism under concurrent
// clients. The worker_hook latch in ServiceConfig lets the shedding
// tests hold the pool at a barrier, so "queue full" and "deadline
// expired while queued" are provoked deterministically rather than by
// racing the scheduler.

#include <gtest/gtest.h>

#include <atomic>
#include <condition_variable>
#include <filesystem>
#include <fstream>
#include <mutex>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "common/json.hpp"
#include "gen/registry.hpp"
#include "serve/cache.hpp"
#include "serve/frame.hpp"
#include "serve/service.hpp"
#include "serve/session.hpp"

using namespace autobraid;
using namespace autobraid::serve;

namespace {

/** Encode one frame the way writeFrame does, for building inputs. */
std::string
encodeFrame(const std::string &payload)
{
    std::ostringstream out;
    writeFrame(out, payload);
    return out.str();
}

/** Decode every complete frame in @p data. */
std::vector<std::string>
decodeFrames(const std::string &data)
{
    std::istringstream in(data);
    std::vector<std::string> frames;
    std::string payload;
    while (readFrame(in, payload) == FrameStatus::Ok)
        frames.push_back(payload);
    return frames;
}

/** The "report":{...} object substring of an ok response. */
std::string
reportSubstring(const std::string &response)
{
    const size_t pos = response.find("\"report\":");
    if (pos == std::string::npos)
        return "";
    return response.substr(pos);
}

/** Open-once gate: workers block in the hook until release(). */
struct WorkerGate
{
    std::mutex mu;
    std::condition_variable cv;
    bool open = false;
    int waiting = 0;

    std::function<void()> hook()
    {
        return [this] {
            std::unique_lock<std::mutex> lock(mu);
            ++waiting;
            cv.notify_all();
            cv.wait(lock, [this] { return open; });
        };
    }

    void waitForWorkers(int n)
    {
        std::unique_lock<std::mutex> lock(mu);
        cv.wait(lock, [this, n] { return waiting >= n || open; });
    }

    void release()
    {
        std::lock_guard<std::mutex> lock(mu);
        open = true;
        cv.notify_all();
    }
};

// ------------------------------------------------------------- framing

TEST(Frame, RoundTripsPayloads)
{
    for (const std::string &payload :
         {std::string(""), std::string("{}"),
          std::string("hello\nworld\0with null", 21),
          std::string(100000, 'x')}) {
        std::stringstream stream;
        writeFrame(stream, payload);
        std::string back;
        EXPECT_EQ(readFrame(stream, back), FrameStatus::Ok);
        EXPECT_EQ(back, payload);
        EXPECT_EQ(readFrame(stream, back), FrameStatus::Eof);
    }
}

TEST(Frame, SequencesPreserveOrderAndBoundaries)
{
    std::stringstream stream;
    writeFrame(stream, "first");
    writeFrame(stream, "");
    writeFrame(stream, "third frame");
    std::string payload;
    EXPECT_EQ(readFrame(stream, payload), FrameStatus::Ok);
    EXPECT_EQ(payload, "first");
    EXPECT_EQ(readFrame(stream, payload), FrameStatus::Ok);
    EXPECT_EQ(payload, "");
    EXPECT_EQ(readFrame(stream, payload), FrameStatus::Ok);
    EXPECT_EQ(payload, "third frame");
    EXPECT_EQ(readFrame(stream, payload), FrameStatus::Eof);
}

TEST(Frame, TruncatedHeaderAndPayloadAreDetected)
{
    // Partial header: 2 of 4 length bytes.
    std::istringstream partial_header(std::string("\x00\x00", 2));
    std::string payload;
    EXPECT_EQ(readFrame(partial_header, payload),
              FrameStatus::Truncated);
    EXPECT_TRUE(payload.empty());

    // Complete header announcing 10 bytes, only 3 delivered.
    std::string data = encodeFrame("0123456789");
    data.resize(4 + 3);
    std::istringstream partial_payload(data);
    EXPECT_EQ(readFrame(partial_payload, payload),
              FrameStatus::Truncated);
    EXPECT_TRUE(payload.empty());
}

TEST(Frame, OversizedFrameIsSkippedAndStreamStaysAligned)
{
    std::stringstream stream;
    writeFrame(stream, std::string(64, 'a'));
    writeFrame(stream, "next");
    std::string payload;
    EXPECT_EQ(readFrame(stream, payload, 16), FrameStatus::Oversized);
    EXPECT_TRUE(payload.empty());
    // The oversized payload was consumed; the next frame is intact.
    EXPECT_EQ(readFrame(stream, payload, 16), FrameStatus::Ok);
    EXPECT_EQ(payload, "next");
}

TEST(Frame, OversizedWithDeadStreamIsTruncated)
{
    // Header announces 1 MiB but the stream ends after 8 bytes.
    std::string data = encodeFrame(std::string(1 << 20, 'b'));
    data.resize(4 + 8);
    std::istringstream stream(data);
    std::string payload;
    EXPECT_EQ(readFrame(stream, payload, 16), FrameStatus::Truncated);
}

TEST(Frame, StatusNamesAreStable)
{
    EXPECT_STREQ(frameStatusName(FrameStatus::Ok), "ok");
    EXPECT_STREQ(frameStatusName(FrameStatus::Eof), "eof");
    EXPECT_STREQ(frameStatusName(FrameStatus::Truncated),
                 "truncated");
    EXPECT_STREQ(frameStatusName(FrameStatus::Oversized),
                 "oversized");
}

// --------------------------------------------------------------- cache

TEST(Cache, KeyIsDeterministicAndOptionSensitive)
{
    const Circuit circuit = gen::make("qft:6");
    CompileOptions base;
    EXPECT_EQ(cacheKey(circuit, base).toHex(),
              cacheKey(circuit, base).toHex());
    EXPECT_EQ(cacheKey(circuit, base).toHex().size(), 32u);

    CompileOptions distance = base;
    distance.cost.distance += 1;
    EXPECT_NE(cacheKey(circuit, base).toHex(),
              cacheKey(circuit, distance).toHex());

    CompileOptions policy = base;
    policy.policy = SchedulerPolicy::Baseline;
    EXPECT_NE(cacheKey(circuit, base).toHex(),
              cacheKey(circuit, policy).toHex());

    const Circuit other = gen::make("qft:7");
    EXPECT_NE(cacheKey(circuit, base).toHex(),
              cacheKey(other, base).toHex());

    // Tripwire: adding a SchedulerConfig field breaks this binding.
    // Give the new field a case below and, unless it cannot change a
    // report, a place in cacheCanonical.
    [[maybe_unused]] const auto &[policy_, backend_, cost_, p_, maslov_,
                                  seed_, order_, hold_, route_jobs_,
                                  trace_, lifecycle_, dead_,
                                  placement_] =
        static_cast<const SchedulerConfig &>(base);

    // One case per field, SchedulerConfig's in declaration order, then
    // CompileOptions' own. Only route_jobs (schedules are identical
    // for every value), telemetry and schedule_out leave the key.
    const std::string canonical = cacheCanonical(circuit, base);
    const auto moves = [&](void (*set)(CompileOptions &)) {
        CompileOptions o = base;
        set(o);
        return cacheCanonical(circuit, o) != canonical;
    };
    EXPECT_TRUE(moves([](CompileOptions &o) {
        o.policy = SchedulerPolicy::AutobraidSP;
    }));
    EXPECT_TRUE(moves([](CompileOptions &o) {
        o.backend = SchedulerBackend::LatticeSurgery;
    }));
    EXPECT_TRUE(moves([](CompileOptions &o) { o.cost.distance = 5; }));
    EXPECT_TRUE(moves([](CompileOptions &o) { o.p_threshold = 0.5; }));
    EXPECT_TRUE(moves([](CompileOptions &o) { o.allow_maslov = false; }));
    EXPECT_TRUE(moves([](CompileOptions &o) { o.seed = 7; }));
    EXPECT_TRUE(moves([](CompileOptions &o) {
        o.baseline_order = GreedyOrder::Program;
    }));
    EXPECT_TRUE(
        moves([](CompileOptions &o) { o.channel_hold_cycles = 40; }));
    EXPECT_FALSE(moves([](CompileOptions &o) { o.route_jobs = 8; }));
    EXPECT_TRUE(moves([](CompileOptions &o) { o.record_trace = true; }));
    EXPECT_TRUE(
        moves([](CompileOptions &o) { o.record_lifecycle = true; }));
    EXPECT_TRUE(moves([](CompileOptions &o) { o.dead_vertices = {3}; }));
    EXPECT_TRUE(moves([](CompileOptions &o) {
        o.placement.use_annealer = false;
    }));
    EXPECT_TRUE(moves([](CompileOptions &o) { o.best_of_p0 = false; }));
    EXPECT_FALSE(
        moves([](CompileOptions &o) { o.telemetry.enabled = true; }));
    EXPECT_TRUE(moves([](CompileOptions &o) {
        o.lint.level = lint::LintLevel::All;
    }));
    EXPECT_TRUE(moves([](CompileOptions &o) {
        o.lint.suppressions = {"AB101"};
    }));
    EXPECT_TRUE(moves([](CompileOptions &o) { o.lint.werror = true; }));
    EXPECT_FALSE(
        moves([](CompileOptions &o) { o.schedule_out = "s.json"; }));
}

TEST(Cache, RouteJobsDoesNotChangeTheKey)
{
    // Schedules are byte-identical for every route_jobs value, so the
    // cache deliberately ignores it: a reply computed with 1 routing
    // thread answers a request that asked for 8.
    const Circuit circuit = gen::make("bv:8");
    CompileOptions a, b;
    a.route_jobs = 1;
    b.route_jobs = 8;
    EXPECT_EQ(cacheCanonical(circuit, a), cacheCanonical(circuit, b));
    EXPECT_EQ(cacheKey(circuit, a).toHex(),
              cacheKey(circuit, b).toHex());
}

TEST(Cache, LruEvictionAndCounters)
{
    CompileCache cache(2);
    const CacheKey k1{1, 1}, k2{2, 2}, k3{3, 3};
    EXPECT_EQ(cache.lookup(k1, "c1"), nullptr); // miss
    cache.insert(k1, "c1", "body1");
    cache.insert(k2, "c2", "body2");
    ASSERT_NE(cache.lookup(k1, "c1"), nullptr); // k1 now most recent
    cache.insert(k3, "c3", "body3");            // evicts k2
    EXPECT_EQ(cache.lookup(k2, "c2"), nullptr);
    ASSERT_NE(cache.lookup(k1, "c1"), nullptr);
    ASSERT_NE(cache.lookup(k3, "c3"), nullptr);

    const CacheStats stats = cache.stats();
    EXPECT_EQ(stats.hits, 3u);
    EXPECT_EQ(stats.misses, 2u);
    EXPECT_EQ(stats.insertions, 3u);
    EXPECT_EQ(stats.evictions, 1u);
    EXPECT_EQ(stats.entries, 2u);
    EXPECT_EQ(stats.capacity, 2u);
}

TEST(Cache, DigestCollisionIsAMissNeverAWrongReply)
{
    CompileCache cache(4);
    const CacheKey k{42, 42};
    cache.insert(k, "canonical-a", "body-a");
    // Same digest, different canonical text: must not serve body-a.
    EXPECT_EQ(cache.lookup(k, "canonical-b"), nullptr);
    ASSERT_NE(cache.lookup(k, "canonical-a"), nullptr);
    EXPECT_EQ(*cache.lookup(k, "canonical-a"), "body-a");
}

TEST(Cache, FirstInsertWinsForByteStability)
{
    CompileCache cache(4);
    const CacheKey k{7, 7};
    cache.insert(k, "c", "first");
    cache.insert(k, "c", "second");
    ASSERT_NE(cache.lookup(k, "c"), nullptr);
    EXPECT_EQ(*cache.lookup(k, "c"), "first");
}

TEST(Cache, ZeroCapacityDisablesStorage)
{
    CompileCache cache(0);
    const CacheKey k{9, 9};
    cache.insert(k, "c", "body");
    EXPECT_EQ(cache.lookup(k, "c"), nullptr);
}

// ------------------------------------------------------------- service

TEST(Service, PingAndUnknownOp)
{
    CompileService service(ServiceConfig{});
    const std::string pong =
        service.handle("{\"id\":7,\"op\":\"ping\"}");
    const json::Value doc = json::parse(pong);
    EXPECT_EQ(doc.stringOr("format", ""), "autobraid-serve");
    EXPECT_EQ(doc.stringOr("status", ""), "ok");
    EXPECT_EQ(doc.stringOr("op", ""), "pong");
    EXPECT_EQ(doc.numberOr("id", -1), 7);

    const json::Value bad =
        json::parse(service.handle("{\"op\":\"explode\"}"));
    EXPECT_EQ(bad.stringOr("status", ""), "error");
}

TEST(Service, MalformedRequestsGetStructuredErrors)
{
    CompileService service(ServiceConfig{});
    const auto expectError = [&](const char *request,
                                 const char *id_json) {
        const std::string response = service.handle(request);
        const json::Value doc = json::parse(response);
        EXPECT_EQ(doc.stringOr("status", ""), "error")
            << "request: " << request << "\nresponse: " << response;
        EXPECT_EQ(doc.numberOr("v", 0), kServeProtocolVersion);
        EXPECT_NE(response.find(std::string("\"id\":") + id_json + ","),
                  std::string::npos)
            << "request: " << request << "\nresponse: " << response;
    };
    // No id can be read from a document that is no JSON object, nor
    // rendered from an array or object.
    expectError("this is not json", "null");
    expectError("[1,2,3]", "null");
    expectError("{\"id\":[1],\"spec\":\"qft:4\"}", "null");
    // Every other error reply carries the request's id.
    expectError("{\"id\":1}", "1");
    expectError("{\"id\":2,\"qasm\":\"x\",\"spec\":\"qft:4\"}", "2");
    expectError(
        "{\"id\":\"three\",\"spec\":\"qft:4\",\"options\":{\"bogus\":1}}",
        "\"three\"");
    expectError(
        "{\"id\":4,\"spec\":\"qft:4\",\"options\":{\"distance\":-3}}", "4");
    expectError(
        "{\"id\":5,\"spec\":\"qft:4\",\"options\":{\"distance\":\"33\"}}",
        "5");
    expectError("{\"id\":6,\"spec\":\"qft:4\",\"options\":{\"p\":2.0}}",
                "6");
    // Seeds a JSON number cannot carry exactly.
    expectError(
        "{\"id\":7,\"spec\":\"qft:4\",\"options\":{\"seed\":1e20}}", "7");
    expectError("{\"id\":8,\"spec\":\"qft:4\",\"options\":"
                "{\"seed\":18446744073709551616}}",
                "8");
    expectError("{\"id\":9,\"spec\":\"qft:4\",\"options\":"
                "{\"seed\":9007199254740992}}",
                "9");
    expectError("{\"id\":true,\"spec\":\"no-such-family:4\"}", "true");
    expectError("{\"id\":11,\"qasm\":\"not qasm\"}", "11");
    // A spec of the qasm family names a server file: rejected, naming
    // 'spec', before the file is read. The file here is valid QASM
    // that would compile if it were read. gen::make drops empty ':'
    // fields, so leading colons still name the qasm family.
    const std::string path = ::testing::TempDir() + "ab_serve_spec.qasm";
    {
        std::ofstream out(path);
        out << "OPENQASM 2.0;\ninclude \"qelib1.inc\";\n"
               "qreg q[2];\ncx q[0],q[1];\n";
    }
    for (const std::string &spec :
         {"qasm:" + path, ":qasm:" + path, "::qasm:" + path,
          std::string("qasm")}) {
        const std::string request =
            "{\"id\":12,\"spec\":\"" + spec + "\"}";
        expectError(request.c_str(), "12");
        const json::Value reply = json::parse(service.handle(request));
        EXPECT_NE(reply.stringOr("error", "").find("'spec'"),
                  std::string::npos)
            << reply.stringOr("error", "");
    }
    // A bad option fails before the circuit is built: the reply names
    // the option, not the unknown family.
    const json::Value early = json::parse(service.handle(
        "{\"spec\":\"no-such-family:4\",\"options\":"
        "{\"teleport\":2000000000}}"));
    EXPECT_NE(early.stringOr("error", "").find("'teleport'"),
              std::string::npos)
        << early.stringOr("error", "");
    // The largest exactly representable seed is still accepted.
    const std::string largest = service.handle(
        "{\"spec\":\"qft:4\",\"options\":{\"seed\":9007199254740991}}");
    EXPECT_EQ(json::parse(largest).stringOr("status", ""), "ok")
        << largest;
}

TEST(Service, CacheHitIsByteIdenticalToColdCompile)
{
    ServiceConfig config;
    config.workers = 2;
    CompileService service(config);
    const std::string request =
        "{\"id\":1,\"spec\":\"qft:6\","
        "\"options\":{\"policy\":\"full\"}}";

    const std::string cold = service.handle(request);
    const std::string warm = service.handle(request);
    const json::Value cold_doc = json::parse(cold);
    const json::Value warm_doc = json::parse(warm);
    ASSERT_EQ(cold_doc.stringOr("status", ""), "ok") << cold;
    ASSERT_EQ(warm_doc.stringOr("status", ""), "ok") << warm;
    ASSERT_TRUE(cold_doc.find("cached") != nullptr);
    EXPECT_FALSE(cold_doc.find("cached")->asBool());
    EXPECT_TRUE(warm_doc.find("cached")->asBool());

    // The deterministic report body must match byte for byte.
    const std::string cold_report = reportSubstring(cold);
    ASSERT_FALSE(cold_report.empty());
    EXPECT_EQ(cold_report, reportSubstring(warm));

    const CacheStats stats = service.cacheStats();
    EXPECT_EQ(stats.hits, 1u);
    EXPECT_EQ(stats.misses, 1u);
    EXPECT_EQ(stats.insertions, 1u);
}

TEST(Service, UseCacheFalseAlwaysRecompiles)
{
    CompileService service(ServiceConfig{});
    const std::string request =
        "{\"spec\":\"bv:6\",\"use_cache\":false}";
    const std::string a = service.handle(request);
    const std::string b = service.handle(request);
    EXPECT_EQ(json::parse(a).find("cached")->asBool(), false);
    EXPECT_EQ(json::parse(b).find("cached")->asBool(), false);
    EXPECT_EQ(service.cacheStats().insertions, 0u);
    // Still deterministic even without the cache in the loop.
    EXPECT_EQ(reportSubstring(a), reportSubstring(b));
}

TEST(Service, QueueFullShedsStructurally)
{
    WorkerGate gate;
    ServiceConfig config;
    config.workers = 1;
    config.queue_depth = 1;
    config.cache_entries = 0; // every request must queue
    config.worker_hook = gate.hook();
    CompileService service(config);

    std::mutex mu;
    std::vector<std::string> replies;
    const auto collect = [&](std::string response) {
        std::lock_guard<std::mutex> lock(mu);
        replies.push_back(std::move(response));
    };

    // First job occupies the worker (blocked in the hook)...
    service.submit("{\"id\":\"a\",\"spec\":\"bv:4\"}", collect);
    gate.waitForWorkers(1);
    // ...second fills the queue; the third must be shed, now.
    service.submit("{\"id\":\"b\",\"spec\":\"bv:4\"}", collect);
    service.submit("{\"id\":\"c\",\"spec\":\"bv:4\"}", collect);
    {
        std::lock_guard<std::mutex> lock(mu);
        ASSERT_EQ(replies.size(), 1u);
        const json::Value doc = json::parse(replies[0]);
        EXPECT_EQ(doc.stringOr("status", ""), "shed");
        EXPECT_EQ(doc.stringOr("reason", ""), "queue_full");
        EXPECT_EQ(doc.stringOr("id", ""), "c");
    }

    gate.release();
    service.drain();
    std::lock_guard<std::mutex> lock(mu);
    ASSERT_EQ(replies.size(), 3u); // zero lost requests
    int ok = 0;
    for (const std::string &r : replies)
        ok += json::parse(r).stringOr("status", "") == "ok" ? 1 : 0;
    EXPECT_EQ(ok, 2);
    const json::Value metrics =
        json::parse(service.metricsSnapshot().toJson());
    EXPECT_EQ(metrics.find("counters")
                  ->numberOr("serve.shed.queue_full", 0),
              1);
}

TEST(Service, ExpiredDeadlineIsShedWhenDequeued)
{
    WorkerGate gate;
    ServiceConfig config;
    config.workers = 1;
    config.cache_entries = 0;
    config.worker_hook = gate.hook();
    CompileService service(config);

    std::mutex mu;
    std::vector<std::string> replies;
    const auto collect = [&](std::string response) {
        std::lock_guard<std::mutex> lock(mu);
        replies.push_back(std::move(response));
    };

    // Occupy the worker, then queue a request that can only expire.
    service.submit("{\"id\":\"slow\",\"spec\":\"bv:4\"}", collect);
    gate.waitForWorkers(1);
    service.submit(
        "{\"id\":\"late\",\"spec\":\"bv:4\",\"deadline_ms\":1}",
        collect);
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    gate.release();
    service.drain();

    std::lock_guard<std::mutex> lock(mu);
    ASSERT_EQ(replies.size(), 2u);
    bool saw_deadline = false;
    for (const std::string &r : replies) {
        const json::Value doc = json::parse(r);
        if (doc.stringOr("id", "") == "late") {
            EXPECT_EQ(doc.stringOr("status", ""), "shed");
            EXPECT_EQ(doc.stringOr("reason", ""), "deadline");
            saw_deadline = true;
        } else {
            EXPECT_EQ(doc.stringOr("status", ""), "ok");
        }
    }
    EXPECT_TRUE(saw_deadline);
}

TEST(Service, ConcurrentClientsGetIdenticalReports)
{
    ServiceConfig config;
    config.workers = 4;
    CompileService service(config);
    constexpr int kClients = 8;

    std::vector<std::string> responses(kClients);
    std::vector<std::thread> clients;
    clients.reserve(kClients);
    for (int c = 0; c < kClients; ++c)
        clients.emplace_back([&service, &responses, c] {
            // Half the clients bypass the cache, so fresh compiles
            // from different workers are compared against hits too.
            const bool use_cache = c % 2 == 0;
            responses[static_cast<size_t>(c)] = service.handle(
                std::string("{\"spec\":\"qft:6\",\"use_cache\":") +
                (use_cache ? "true" : "false") + "}");
        });
    for (std::thread &t : clients)
        t.join();

    const std::string expected = reportSubstring(responses[0]);
    ASSERT_FALSE(expected.empty()) << responses[0];
    for (const std::string &response : responses) {
        EXPECT_EQ(json::parse(response).stringOr("status", ""), "ok");
        EXPECT_EQ(reportSubstring(response), expected);
    }
}

TEST(Service, MetricsSnapshotCarriesServeCounters)
{
    CompileService service(ServiceConfig{});
    service.handle("{\"spec\":\"bv:4\"}");
    service.handle("{\"spec\":\"bv:4\"}");
    service.handle("{\"op\":\"ping\"}");
    const json::Value doc =
        json::parse(service.metricsSnapshot().toJson());
    const json::Value *counters = doc.find("counters");
    ASSERT_NE(counters, nullptr);
    EXPECT_EQ(counters->numberOr("serve.requests", 0), 3);
    EXPECT_EQ(counters->numberOr("serve.ok", 0), 2);
    EXPECT_EQ(counters->numberOr("serve.control", 0), 1);
    EXPECT_EQ(counters->numberOr("serve.cache.hits", 0), 1);
    EXPECT_EQ(counters->numberOr("serve.cache.misses", 0), 1);
    const json::Value *hists = doc.find("histograms");
    ASSERT_NE(hists, nullptr);
    EXPECT_NE(hists->find("serve.latency_us"), nullptr);
    EXPECT_NE(hists->find("serve.latency_us.hit"), nullptr);
    EXPECT_NE(hists->find("serve.latency_us.miss"), nullptr);
}

TEST(Service, RejectsInvalidConfiguration)
{
    ServiceConfig bad_workers;
    bad_workers.workers = kMaxWorkerThreads + 1;
    EXPECT_THROW(CompileService{bad_workers}, Error);

    ServiceConfig bad_queue;
    bad_queue.queue_depth = 0;
    EXPECT_THROW(CompileService{bad_queue}, Error);
}

// ------------------------------------------------------------- session

TEST(Session, FullRoundTripWithShutdown)
{
    std::istringstream in(
        encodeFrame("{\"id\":1,\"op\":\"ping\"}") +
        encodeFrame("{\"id\":2,\"spec\":\"bv:4\"}") +
        encodeFrame("{\"id\":3,\"op\":\"shutdown\"}") +
        encodeFrame("{\"id\":4,\"op\":\"ping\"}")); // after shutdown
    std::ostringstream out;
    CompileService service(ServiceConfig{});
    EXPECT_EQ(runSession(in, out, service, SessionConfig{}), 0);

    const std::vector<std::string> replies = decodeFrames(out.str());
    ASSERT_EQ(replies.size(), 3u); // frame 4 is never read
    bool saw_compile = false;
    for (const std::string &r : replies) {
        const json::Value doc = json::parse(r);
        EXPECT_NE(doc.stringOr("status", ""), "error") << r;
        if (doc.numberOr("id", 0) == 2) {
            EXPECT_EQ(doc.stringOr("status", ""), "ok");
            saw_compile = true;
        }
    }
    EXPECT_TRUE(saw_compile);
    EXPECT_TRUE(service.shutdownRequested());
}

TEST(Session, TruncatedFrameEndsSessionWithError)
{
    std::string data = encodeFrame("{\"op\":\"ping\"}");
    data += encodeFrame("{\"op\":\"ping\"}").substr(0, 6);
    std::istringstream in(data);
    std::ostringstream out;
    CompileService service(ServiceConfig{});
    EXPECT_EQ(runSession(in, out, service, SessionConfig{}), 1);

    const std::vector<std::string> replies = decodeFrames(out.str());
    ASSERT_EQ(replies.size(), 2u);
    EXPECT_EQ(json::parse(replies[0]).stringOr("op", ""), "pong");
    const json::Value err = json::parse(replies[1]);
    EXPECT_EQ(err.stringOr("status", ""), "error");
    EXPECT_NE(err.stringOr("error", "").find("truncated"),
              std::string::npos);
}

TEST(Session, OversizedFrameIsRejectedAndSessionContinues)
{
    SessionConfig config;
    config.max_frame_bytes = 64;
    std::istringstream in(
        encodeFrame(std::string(200, ' ')) + // oversized, skipped
        encodeFrame("{\"id\":9,\"op\":\"ping\"}"));
    std::ostringstream out;
    CompileService service(ServiceConfig{});
    EXPECT_EQ(runSession(in, out, service, config), 0);

    const std::vector<std::string> replies = decodeFrames(out.str());
    ASSERT_EQ(replies.size(), 2u);
    const json::Value first = json::parse(replies[0]);
    EXPECT_EQ(first.stringOr("status", ""), "error");
    EXPECT_NE(first.stringOr("error", "").find("frame_oversized"),
              std::string::npos);
    EXPECT_EQ(json::parse(replies[1]).stringOr("op", ""), "pong");
}

TEST(Session, HostileQasmGetsErrorReplyAndSessionContinues)
{
    // Every input of the hostile corpus, sent inline, then a ping.
    std::string frames;
    size_t inputs = 0;
    for (const auto &entry :
         std::filesystem::directory_iterator(AB_HOSTILE_QASM_DIR)) {
        if (entry.path().extension() != ".qasm")
            continue;
        std::ifstream in(entry.path());
        std::ostringstream text;
        text << in.rdbuf();
        std::string request;
        json::Writer w(request);
        w.beginObject().key("qasm").value(text.str()).end();
        frames += encodeFrame(request) +
                  encodeFrame("{\"id\":\"after\",\"op\":\"ping\"}");
        ++inputs;
    }
    EXPECT_GE(inputs, 4u);
    std::istringstream in(frames);
    std::ostringstream out;
    CompileService service(ServiceConfig{});
    EXPECT_EQ(runSession(in, out, service, SessionConfig{}), 0);

    const std::vector<std::string> replies = decodeFrames(out.str());
    ASSERT_EQ(replies.size(), 2 * inputs);
    size_t errors = 0;
    size_t pongs = 0;
    for (const std::string &r : replies) {
        const json::Value doc = json::parse(r);
        errors += doc.stringOr("status", "") == "error";
        pongs += doc.stringOr("op", "") == "pong";
    }
    EXPECT_EQ(errors, inputs);
    EXPECT_EQ(pongs, inputs);
}

TEST(Session, GarbagePayloadGetsErrorReplyAndSessionContinues)
{
    std::istringstream in(encodeFrame("\x01\x02 garbage bytes") +
                          encodeFrame("{\"op\":\"ping\"}"));
    std::ostringstream out;
    CompileService service(ServiceConfig{});
    EXPECT_EQ(runSession(in, out, service, SessionConfig{}), 0);
    const std::vector<std::string> replies = decodeFrames(out.str());
    ASSERT_EQ(replies.size(), 2u);
    EXPECT_EQ(json::parse(replies[0]).stringOr("status", ""),
              "error");
    EXPECT_EQ(json::parse(replies[1]).stringOr("op", ""), "pong");
}

} // namespace
