#include "serve/session.hpp"

#include <mutex>
#include <string>

#include "common/text.hpp"

namespace autobraid {
namespace serve {

int
runSession(std::istream &in, std::ostream &out,
           CompileService &service, SessionConfig config)
{
    // Workers complete replies concurrently with the read loop; one
    // mutex serializes whole frames onto the shared output stream.
    std::mutex out_mu;
    const auto reply = [&out, &out_mu](const std::string &response) {
        std::lock_guard<std::mutex> lock(out_mu);
        writeFrame(out, response);
    };

    std::string payload;
    for (;;) {
        const FrameStatus status =
            readFrame(in, payload, config.max_frame_bytes);
        if (status == FrameStatus::Eof)
            break;
        if (status == FrameStatus::Truncated) {
            // The stream died mid-frame: answer what was admitted,
            // then report the dirty termination to the caller.
            service.drain();
            reply(errorResponse("null", "truncated frame"));
            return 1;
        }
        if (status == FrameStatus::Oversized) {
            reply(errorResponse(
                "null", strformat("frame_oversized: payload exceeds "
                                  "%zu bytes",
                                  config.max_frame_bytes)));
            continue;
        }
        service.submit(payload, reply);
        if (service.shutdownRequested())
            break;
    }
    // Every admitted request is answered before the session ends —
    // the "no lost in-flight requests" half of graceful shutdown.
    service.drain();
    return 0;
}

} // namespace serve
} // namespace autobraid
