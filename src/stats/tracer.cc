#include "stats/tracer.hh"

#include <ostream>

#include "stats/report.hh"
#include "util/check.hh"

namespace chopin
{

Tracer::TrackId
Tracer::track(const std::string &name)
{
    seq.assertHeld("Tracer::track");
    for (std::size_t i = 0; i < tracks.size(); ++i)
        if (tracks[i] == name)
            return static_cast<TrackId>(i);
    tracks.push_back(name);
    return static_cast<TrackId>(tracks.size() - 1);
}

void
Tracer::span(TrackId track, const char *category, std::string name,
             Tick start, Tick end, std::vector<TraceArg> args)
{
    seq.assertHeld("Tracer::span");
    CHOPIN_ASSERT(track < tracks.size(), "span on unregistered track");
    CHOPIN_ASSERT(end >= start, "span ends before it starts");
    spans.push_back(
        {track, category, std::move(name), start, end - start,
         std::move(args)});
}

std::size_t
Tracer::spanCount() const
{
    seq.assertHeld("Tracer::spanCount");
    return spans.size();
}

void
Tracer::clearSpans()
{
    seq.assertHeld("Tracer::clearSpans");
    spans.clear();
}

void
Tracer::exportChromeJson(std::ostream &os) const
{
    seq.assertHeld("Tracer::exportChromeJson");
    os << "{\"traceEvents\":[";
    bool first = true;
    auto sep = [&] {
        if (!first)
            os << ",";
        first = false;
        os << "\n";
    };
    // Track names first, as thread_name metadata in registration order.
    for (std::size_t i = 0; i < tracks.size(); ++i) {
        sep();
        os << "{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,\"tid\":"
           << (i + 1) << ",\"args\":{\"name\":";
        writeJsonString(os, tracks[i]);
        os << "}}";
    }
    // Then every span, in emission order. ts/dur are sim Ticks verbatim
    // (trace viewers label them "us"; the unit is cycles here).
    for (const Span &s : spans) {
        sep();
        os << "{\"name\":";
        writeJsonString(os, s.name);
        os << ",\"cat\":";
        writeJsonString(os, s.category);
        os << ",\"ph\":\"X\",\"ts\":" << s.start << ",\"dur\":" << s.dur
           << ",\"pid\":1,\"tid\":" << (s.track + 1);
        if (!s.args.empty()) {
            os << ",\"args\":{";
            for (std::size_t i = 0; i < s.args.size(); ++i) {
                if (i)
                    os << ",";
                writeJsonString(os, s.args[i].key);
                os << ":" << s.args[i].value;
            }
            os << "}";
        }
        os << "}";
    }
    os << "\n]}\n";
}

} // namespace chopin
