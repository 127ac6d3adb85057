/**
 * @file
 * Scope guard for short-lived worker threads.
 *
 * Destroying a joinable std::thread calls std::terminate. A pool that
 * spawns its threads into a JoinGuard joins every one of them on the
 * way out of the scope, so a failed spawn (std::system_error when the
 * thread limit is reached) or a throw on the spawning thread unwinds
 * as an ordinary exception instead of ending the process.
 */

#ifndef AUTOBRAID_COMMON_JOIN_GUARD_HPP
#define AUTOBRAID_COMMON_JOIN_GUARD_HPP

#include <thread>
#include <vector>

namespace autobraid {

/** Joins every thread in @ref threads on join() or destruction. */
struct JoinGuard
{
    std::vector<std::thread> threads;

    JoinGuard() = default;
    JoinGuard(const JoinGuard &) = delete;
    JoinGuard &operator=(const JoinGuard &) = delete;

    ~JoinGuard() { join(); }

    /** Wait for every thread still running. */
    void
    join()
    {
        for (std::thread &t : threads)
            if (t.joinable())
                t.join();
    }
};

} // namespace autobraid

#endif // AUTOBRAID_COMMON_JOIN_GUARD_HPP
