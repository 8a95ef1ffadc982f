#include "harness.hh"

#include <numeric>
#include <ostream>

namespace perfbench
{

unsigned
stratified(std::uint64_t seed, std::uint64_t i, unsigned n)
{
    std::vector<unsigned> order(n);
    std::iota(order.begin(), order.end(), 0u);
    Rng rng(mix(seed, 0x5eed0000ull + i / n));
    rng.shuffle(order);
    return order[i % n];
}

namespace
{

constexpr std::size_t probe_table_words = 32768; // 256 KiB
constexpr unsigned probe_steps = 12000;

} // namespace

SpeedProbe::SpeedProbe() : _table(probe_table_words)
{
    for (std::size_t k = 0; k < _table.size(); ++k)
        _table[k] = mix(k, 0x9b0be);
}

double
SpeedProbe::run()
{
    constexpr std::size_t mask = probe_table_words - 1;
    // Load the table into cache first, untimed: the probe measures the
    // machine's speed, not what the last operation left in the cache.
    std::uint64_t x = _chain;
    for (const std::uint64_t v : _table)
        x += v;
    const Clock::time_point t0 = Clock::now();
    for (unsigned k = 0; k < probe_steps; ++k) {
        const std::uint64_t y = _table[x & mask];
        x = mix(x, y);
        _table[(x >> 32) & mask] = y + k;
    }
    // Kept for the next run, so the chain cannot be optimised away.
    _chain = x;
    return secondsBetween(t0, Clock::now());
}

std::uint32_t
Tracer::intern(std::string_view name)
{
    const std::string key(name);
    const auto it = _ids.find(key);
    if (it != _ids.end())
        return it->second;
    const auto id = static_cast<std::uint32_t>(_names.size());
    _names.push_back(key);
    _ids.emplace(key, id);
    return id;
}

std::int32_t
Tracer::open(std::uint32_t name)
{
    Span s;
    s.name = name;
    s.parent = _current;
    s.op = _op;
    _spans.push_back(s);
    _current = static_cast<std::int32_t>(_spans.size() - 1);
    // Stamp last, so the bookkeeping above is charged to the parent.
    _spans.back().begin = Clock::now();
    return _current;
}

void
Tracer::close(std::int32_t index)
{
    Span &s = _spans[static_cast<std::size_t>(index)];
    s.end = Clock::now();
    _current = s.parent;
}

std::map<std::string, LayerTime>
Tracer::selfTimes() const
{
    std::vector<double> child_s(_spans.size(), 0.0);
    for (const Span &s : _spans)
        if (s.parent >= 0)
            child_s[static_cast<std::size_t>(s.parent)] +=
                secondsBetween(s.begin, s.end);
    std::map<std::string, LayerTime> out;
    for (std::size_t i = 0; i < _spans.size(); ++i) {
        const Span &s = _spans[i];
        LayerTime &lt = out[_names[s.name]];
        lt.self_s += secondsBetween(s.begin, s.end) - child_s[i];
        ++lt.spans;
    }
    return out;
}

void
Tracer::writeChromeJson(std::ostream &os) const
{
    const Clock::time_point t0 =
        _spans.empty() ? Clock::time_point{} : _spans.front().begin;
    auto us = [t0](Clock::time_point t) {
        return std::chrono::duration<double, std::micro>(t - t0).count();
    };
    os << "{\"traceEvents\":[";
    for (std::size_t i = 0; i < _spans.size(); ++i) {
        const Span &s = _spans[i];
        os << (i ? ",\n" : "\n") << "{\"name\":\"" << _names[s.name]
           << "\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":" << us(s.begin)
           << ",\"dur\":" << us(s.end) - us(s.begin)
           << ",\"args\":{\"id\":" << i << ",\"parent\":" << s.parent
           << ",\"op\":" << s.op << "}}";
    }
    os << "\n]}\n";
}

double
selfMs(const std::map<std::string, LayerTime> &layers,
       const std::string &name, double per)
{
    const auto it = layers.find(name);
    if (it == layers.end() || per <= 0)
        return 0;
    return it->second.self_s * 1e3 / per;
}

double
meanSelfMs(const std::map<std::string, LayerTime> &layers,
           const std::string &name)
{
    const auto it = layers.find(name);
    if (it == layers.end())
        return 0;
    return it->second.self_s * 1e3 / static_cast<double>(it->second.spans);
}

} // namespace perfbench
