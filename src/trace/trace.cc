#include "trace/trace.hh"

#include <cinttypes>
#include <cstdio>

#include "common/logging.hh"

namespace dmx::trace
{

namespace
{

// Thread-local so that parallel scenario workers (src/exec/) each see
// only their own scenario's buffer: installing a session on one worker
// can never leak spans into another scenario running concurrently. In
// the single-threaded simulator this is indistinguishable from a
// process-wide pointer.
thread_local TraceBuffer *g_active = nullptr;

/** JSON string escaping for names (quotes, backslashes, control). */
std::string
jsonEscape(const std::string &s)
{
    std::string out;
    out.reserve(s.size());
    for (char c : s) {
        switch (c) {
          case '"': out += "\\\""; break;
          case '\\': out += "\\\\"; break;
          case '\n': out += "\\n"; break;
          case '\t': out += "\\t"; break;
          default:
            if (static_cast<unsigned char>(c) < 0x20) {
                char buf[8];
                std::snprintf(buf, sizeof(buf), "\\u%04x", c);
                out += buf;
            } else {
                out += c;
            }
        }
    }
    return out;
}

/**
 * Ticks (integer picoseconds) as Chrome's microsecond timestamps.
 * %.6f of an exact pico value is deterministic across platforms and
 * loses nothing: 1 ps = 1e-6 us is exactly the last printed digit.
 */
std::string
ticksAsUs(Tick t)
{
    char buf[40];
    std::snprintf(buf, sizeof(buf), "%" PRIu64 ".%06u",
                  t / tick_per_us,
                  static_cast<unsigned>(t % tick_per_us));
    return buf;
}

/** Counter values: plain counts in practice; print exact integers. */
std::string
numAsJson(double v)
{
    char buf[40];
    if (v == static_cast<double>(static_cast<std::int64_t>(v))) {
        std::snprintf(buf, sizeof(buf), "%" PRId64,
                      static_cast<std::int64_t>(v));
    } else {
        std::snprintf(buf, sizeof(buf), "%.9g", v);
    }
    return buf;
}

} // namespace

const char *
toString(Category c)
{
    switch (c) {
      case Category::Kernel:      return "kernel";
      case Category::Restructure: return "restructure";
      case Category::Movement:    return "movement";
      case Category::Driver:      return "driver";
      case Category::Command:     return "command";
      case Category::Retry:       return "retry";
      case Category::Degrade:     return "degrade";
      case Category::Device:      return "device";
      case Category::Flow:        return "flow";
      case Category::Drx:         return "drx";
      case Category::Robust:      return "robust";
      case Category::DrxCache:    return "drxcache";
      case Category::Integrity:   return "integrity";
      case Category::Serve:       return "serve";
      case Category::NumCategories: break;
    }
    return "?";
}

// ---------------------------------------------------------- TraceBuffer

std::uint32_t
TraceBuffer::intern(std::string_view s)
{
    const auto it = _ids.find(s);
    if (it != _ids.end())
        return it->second;
    const auto id = static_cast<std::uint32_t>(_strings.size());
    _strings.emplace_back(s);
    _ids.emplace(std::string(s), id);
    return id;
}

const std::string &
TraceBuffer::stringAt(std::uint32_t id) const
{
    if (id >= _strings.size())
        dmx_panic("TraceBuffer::stringAt: bad string id %u", id);
    return _strings[id];
}

void
TraceBuffer::span(Category cat, std::string_view name,
                  std::string_view track, Tick begin, Tick end,
                  std::uint64_t arg)
{
    if (end < begin)
        dmx_panic("TraceBuffer::span('%.*s'): negative duration "
                  "(begin %" PRIu64 " > end %" PRIu64 ")",
                  static_cast<int>(name.size()), name.data(), begin, end);
    Span s;
    s.begin = begin;
    s.end = end;
    s.cat = cat;
    s.name = intern(name);
    s.track = intern(track);
    s.arg = arg;
    _spans.push_back(s);
}

void
TraceBuffer::count(std::string_view name, Tick at, double delta)
{
    CounterSample c;
    c.at = at;
    c.name = intern(name);
    double &total = _counter_totals[c.name];
    total += delta;
    c.value = total;
    _counters.push_back(c);
}

double
TraceBuffer::counterTotal(std::string_view name) const
{
    const auto it = _ids.find(name);
    if (it == _ids.end())
        return 0;
    const auto tot = _counter_totals.find(it->second);
    return tot == _counter_totals.end() ? 0 : tot->second;
}

std::array<CategoryTotal,
           static_cast<std::size_t>(Category::NumCategories)>
TraceBuffer::breakdown() const
{
    std::array<CategoryTotal,
               static_cast<std::size_t>(Category::NumCategories)>
        out{};
    for (const Span &s : _spans) {
        CategoryTotal &t = out[static_cast<std::size_t>(s.cat)];
        t.ticks += s.duration();
        ++t.spans;
    }
    return out;
}

Tick
TraceBuffer::categoryTicks(Category cat) const
{
    Tick total = 0;
    for (const Span &s : _spans) {
        if (s.cat == cat)
            total += s.duration();
    }
    return total;
}

Tick
TraceBuffer::maxEnd() const
{
    Tick m = 0;
    for (const Span &s : _spans)
        m = std::max(m, s.end);
    return m;
}

void
TraceBuffer::exportChromeJson(std::ostream &os) const
{
    os << "{\"traceEvents\":[";
    bool first = true;
    auto sep = [&] {
        if (!first)
            os << ",";
        first = false;
        os << "\n";
    };

    // Track (thread) metadata. Tracks are string-table ids; emit a
    // thread_name record for every id that any span uses as a track.
    std::map<std::uint32_t, bool> tracks;
    for (const Span &s : _spans)
        tracks.emplace(s.track, true);
    sep();
    os << "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":1,\"tid\":0,"
          "\"args\":{\"name\":\"dmx\"}}";
    for (const auto &[id, used] : tracks) {
        (void)used;
        sep();
        os << "{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,\"tid\":"
           << id << ",\"args\":{\"name\":\""
           << jsonEscape(_strings[id]) << "\"}}";
    }

    for (const Span &s : _spans) {
        sep();
        os << "{\"name\":\"" << jsonEscape(_strings[s.name])
           << "\",\"cat\":\"" << toString(s.cat)
           << "\",\"ph\":\"X\",\"pid\":1,\"tid\":" << s.track
           << ",\"ts\":" << ticksAsUs(s.begin)
           << ",\"dur\":" << ticksAsUs(s.duration())
           << ",\"args\":{\"arg\":" << s.arg << "}}";
    }
    for (const CounterSample &c : _counters) {
        sep();
        os << "{\"name\":\"" << jsonEscape(_strings[c.name])
           << "\",\"ph\":\"C\",\"pid\":1,\"tid\":0,\"ts\":"
           << ticksAsUs(c.at) << ",\"args\":{\"value\":"
           << numAsJson(c.value) << "}}";
    }
    os << "\n],\"displayTimeUnit\":\"ns\"}\n";
}

void
TraceBuffer::writeSummary(std::ostream &os) const
{
    const auto bd = breakdown();
    os << "---------- Trace summary (" << _spans.size() << " spans, "
       << _counters.size() << " counter samples) ----------\n";
    char line[160];
    for (std::size_t c = 0;
         c < static_cast<std::size_t>(Category::NumCategories); ++c) {
        if (bd[c].spans == 0)
            continue;
        std::snprintf(line, sizeof(line),
                      "%-14s %14" PRIu64 " ticks  %12.3f ms  %8" PRIu64
                      " spans\n",
                      toString(static_cast<Category>(c)), bd[c].ticks,
                      ticksToMs(bd[c].ticks), bd[c].spans);
        os << line;
    }
    for (const auto &[name, total] : _counter_totals) {
        std::snprintf(line, sizeof(line), "%-40s %16s\n",
                      _strings[name].c_str(), numAsJson(total).c_str());
        os << line;
    }
    os << "---------- End trace summary ----------\n";
}

void
TraceBuffer::clear()
{
    _strings.clear();
    _ids.clear();
    _spans.clear();
    _counters.clear();
    _counter_totals.clear();
}

// --------------------------------------------------- session management

TraceBuffer *
active()
{
    return g_active;
}

TraceSession::TraceSession(TraceBuffer &buffer) : _previous(g_active)
{
    g_active = &buffer;
}

TraceSession::~TraceSession()
{
    g_active = _previous;
}

} // namespace dmx::trace
