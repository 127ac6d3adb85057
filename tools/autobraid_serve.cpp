/**
 * @file
 * autobraid_serve — persistent compile daemon.
 *
 * Accepts a stream of compile requests over stdin/stdout using
 * 4-byte big-endian length-prefixed JSON frames (docs/serving.md)
 * and answers each one from a bounded worker pool with admission
 * control, per-request deadlines, graceful load shedding, and a
 * content-addressed compile cache — repeated circuits are answered
 * from the stored bytes of their first compile.
 *
 *   autobraid_serve [options]
 *
 *     --workers=N          worker threads, 0 = hardware concurrency
 *                          (default 0; bounded like --jobs)
 *     --queue-depth=N      bounded admission queue; submissions
 *                          beyond it are shed with a structured
 *                          "queue_full" response (default 64)
 *     --cache-entries=N    compile-cache capacity in entries
 *                          (default 1024)
 *     --no-cache           disable the compile cache entirely
 *     --deadline-ms=N      default per-request deadline; requests
 *                          still queued past it are shed with
 *                          reason "deadline" (default 0 = none)
 *     --max-frame-bytes=N  reject request frames larger than N
 *                          bytes (default 8388608)
 *     --metrics-out=FILE   write the serve metrics registry
 *                          (latency histograms, cache and shed
 *                          counters) as JSON at shutdown
 *
 * The session ends on stdin EOF or a {"op":"shutdown"} request;
 * both drain every admitted request before exiting, so no accepted
 * request is ever dropped.
 *
 * Exit codes (shared across all autobraid tools): 0 clean shutdown,
 * 1 stream failure mid-frame, 2 usage or input parse errors
 * (UserError).
 */

#include <cstdio>
#include <cstring>
#include <iostream>
#include <string>

#include "common/error.hpp"
#include "common/parse.hpp"
#include "common/text.hpp"
#include "serve/session.hpp"

using namespace autobraid;

namespace {

struct ServeCliOptions
{
    serve::ServiceConfig service;
    serve::SessionConfig session;
    std::string metrics_out;
};

[[noreturn]] void
usage(int code)
{
    std::fprintf(
        code == 0 ? stdout : stderr,
        "usage: autobraid_serve [options]\n"
        "  --workers=N          worker threads (0 = hardware)\n"
        "  --queue-depth=N      bounded admission queue\n"
        "  --cache-entries=N    compile-cache capacity\n"
        "  --no-cache           disable the compile cache\n"
        "  --deadline-ms=N      default per-request deadline\n"
        "  --max-frame-bytes=N  per-frame payload cap\n"
        "  --metrics-out=FILE   serve metrics JSON at shutdown\n"
        "Speaks length-prefixed JSON frames on stdin/stdout; see\n"
        "docs/serving.md for the protocol.\n");
    std::exit(code);
}

ServeCliOptions
parseArgs(int argc, char **argv)
{
    ServeCliOptions opts;
    // parseArgs runs outside main's try block, so checked-parse
    // rejections are reported here instead of propagating.
    try {
        for (int i = 1; i < argc; ++i) {
            const char *arg = argv[i];
            std::string value;
            if (std::strcmp(arg, "--help") == 0 ||
                std::strcmp(arg, "-h") == 0) {
                usage(0);
            } else if (matchValue(arg, "--workers", value)) {
                opts.service.workers = parseCheckedIntFlag(
                    value, "--workers", 0, kMaxWorkerThreads);
            } else if (matchValue(arg, "--queue-depth", value)) {
                opts.service.queue_depth =
                    static_cast<size_t>(parseCheckedInt(
                        value, "--queue-depth", 1, 1 << 20));
            } else if (matchValue(arg, "--cache-entries", value)) {
                opts.service.cache_entries =
                    static_cast<size_t>(parseCheckedInt(
                        value, "--cache-entries", 0, 1 << 24));
            } else if (std::strcmp(arg, "--no-cache") == 0) {
                opts.service.cache_entries = 0;
            } else if (matchValue(arg, "--deadline-ms", value)) {
                opts.service.default_deadline_ms = parseCheckedUInt(
                    value, "--deadline-ms", 1000ULL * 86400);
            } else if (matchValue(arg, "--max-frame-bytes", value)) {
                opts.session.max_frame_bytes =
                    static_cast<size_t>(parseCheckedInt(
                        value, "--max-frame-bytes", 16, 1 << 30));
            } else if (matchValue(arg, "--metrics-out", value)) {
                opts.metrics_out = value;
            } else {
                std::fprintf(stderr, "unknown option '%s'\n", arg);
                usage(2);
            }
        }
    } catch (const UserError &e) {
        std::fprintf(stderr, "error: %s\n", e.what());
        usage(2);
    }
    return opts;
}

} // namespace

int
main(int argc, char **argv)
{
    const ServeCliOptions opts = parseArgs(argc, argv);
    try {
        serve::CompileService service(opts.service);
        const int rc = serve::runSession(std::cin, std::cout,
                                         service, opts.session);
        if (!opts.metrics_out.empty())
            writeTextFile(opts.metrics_out,
                          service.metricsSnapshot().toJson() + "\n");
        service.shutdown();
        return rc;
    } catch (const UserError &e) {
        std::fprintf(stderr, "error: %s\n", e.what());
        return 2;
    } catch (const Error &e) {
        std::fprintf(stderr, "error: %s\n", e.what());
        return 1;
    }
}
