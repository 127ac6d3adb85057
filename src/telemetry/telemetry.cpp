#include "telemetry/telemetry.hpp"

namespace autobraid {
namespace telemetry {

using detail::g_current;

TelemetryScope::TelemetryScope(Telemetry *sink) : prev_(g_current)
{
    g_current = sink;
}

TelemetryScope::~TelemetryScope()
{
    g_current = prev_;
}

ScopedSpan::ScopedSpan(std::string_view name)
{
    Telemetry *t = g_current;
    if (t == nullptr || !t->spansEnabled())
        return;
    sink_ = t;
    name_ = name;
    start_us_ = t->tracer().nowUs();
}

ScopedSpan::~ScopedSpan()
{
    if (sink_ == nullptr)
        return;
    const double end_us = sink_->tracer().nowUs();
    sink_->tracer().record(std::move(name_), threadTrackId(),
                           start_us_, end_us - start_us_);
}

} // namespace telemetry
} // namespace autobraid
