/**
 * @file
 * Host-time benchmark harness: the benchmark's own seeded generator,
 * the simulated-statistics digest, the in-memory host span recorder
 * and the metric record every workload reports into.
 *
 * Everything here measures or fingerprints the simulator from the
 * outside; nothing in src/ is modified or instrumented.
 */

#ifndef PERFBENCH_HARNESS_HH
#define PERFBENCH_HARNESS_HH

#include <chrono>
#include <cstdint>
#include <cstring>
#include <iosfwd>
#include <map>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

namespace perfbench
{

using Clock = std::chrono::steady_clock;

/** Seconds elapsed between two steady-clock points. */
inline double
secondsBetween(Clock::time_point a, Clock::time_point b)
{
    return std::chrono::duration<double>(b - a).count();
}

/** SplitMix64 finalizer: mixes @p a and @p b into one 64-bit seed. */
inline std::uint64_t
mix(std::uint64_t a, std::uint64_t b)
{
    std::uint64_t z = a * 0x9e3779b97f4a7c15ull + b + 0x632be59bd9b4e019ull;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
}

/**
 * The benchmark's own generator (SplitMix64). It is deliberately not
 * the simulator's dmx::Rng: a change to src/ must never change the
 * inputs the benchmark generates, or parent and child would do
 * different work.
 */
class Rng
{
  public:
    explicit Rng(std::uint64_t seed) : _state(seed) {}

    std::uint64_t
    next()
    {
        _state += 0x9e3779b97f4a7c15ull;
        return mix(_state, 0);
    }

    /** @return a value in [0, n); n must be nonzero. */
    std::uint64_t below(std::uint64_t n) { return next() % n; }

    /** @return a value in [lo, hi). */
    double
    uniform(double lo, double hi)
    {
        const double u = static_cast<double>(next() >> 11) * 0x1.0p-53;
        return lo + (hi - lo) * u;
    }

    /** Fisher-Yates shuffle of @p v. */
    template <typename T>
    void
    shuffle(std::vector<T> &v)
    {
        for (std::size_t i = v.size(); i > 1; --i)
            std::swap(v[i - 1], v[below(i)]);
    }

  private:
    std::uint64_t _state;
};

/**
 * Stratified draw: slot @p i of a stream that visits every value in
 * [0, n) once per round of n, in a fresh seeded order each round. The
 * workloads use it both to order the slots of their fixed designs by
 * the run's seed and, with a fixed seed, to spread each input evenly
 * over a design's slots.
 */
unsigned stratified(std::uint64_t seed, std::uint64_t i, unsigned n);

/** FNV-1a fingerprint of simulated statistics. */
class Digest
{
  public:
    void
    add(std::uint64_t v)
    {
        for (int b = 0; b < 8; ++b) {
            _h ^= (v >> (8 * b)) & 0xffu;
            _h *= 0x100000001b3ull;
        }
    }

    /** Doubles fold by bit pattern: equal means bit-identical. */
    void
    add(double v)
    {
        std::uint64_t bits = 0;
        std::memcpy(&bits, &v, sizeof(bits));
        add(bits);
    }

    std::uint64_t value() const { return _h; }

  private:
    std::uint64_t _h = 0xcbf29ce484222325ull;
};

/**
 * A fixed piece of host work, timed, that tracks how fast the machine
 * runs right now. On a shared virtual machine the same code runs up to
 * 1.8 times slower in spells of seconds to minutes; the probe slows with
 * it, so host times divided by the probe's slow-down are comparable
 * across spells. The work is a dependent hash chain over a 256 KiB
 * table, which, like the simulator, is bound by arithmetic latency and
 * cache-resident loads.
 */
class SpeedProbe
{
  public:
    /** Host seconds one probe takes on the reference machine. */
    static constexpr double nominal_s = 100e-6;

    SpeedProbe();

    /** Run the probe once. @return its host seconds. */
    double run();

  private:
    std::vector<std::uint64_t> _table;
    std::uint64_t _chain = 1;
};

/** Self time of one span name, summed over a run. */
struct LayerTime
{
    double self_s = 0;       ///< span time not covered by child spans
    std::uint64_t spans = 0; ///< spans recorded under the name
};

/**
 * In-memory host span recorder. Spans nest by scope on the one
 * benchmark thread; each carries its parent span and the operation id
 * it ran under. Disabled, a scope costs one branch and records nothing.
 */
class Tracer
{
  public:
    struct Span
    {
        std::uint32_t name = 0;
        std::int32_t parent = -1;   ///< index into spans(), -1 = root
        std::int64_t op = -1;       ///< operation id, -1 = setup
        Clock::time_point begin{};
        Clock::time_point end{};
    };

    /** Ends its span when it leaves scope. */
    class Scope
    {
      public:
        Scope(const Scope &) = delete;
        Scope &operator=(const Scope &) = delete;
        ~Scope()
        {
            if (_tracer)
                _tracer->close(_index);
        }

      private:
        friend class Tracer;
        Scope(Tracer *t, std::int32_t index) : _tracer(t), _index(index) {}
        Tracer *_tracer;
        std::int32_t _index;
    };

    bool enabled() const { return _enabled; }
    void setEnabled(bool on) { _enabled = on; }

    /** Tag the spans opened from now on with operation @p op. */
    void setOp(std::int64_t op) { _op = op; }

    /** @return the id of span name @p name (interned once). */
    std::uint32_t intern(std::string_view name);

    /** Open a span named by an interned id. */
    Scope
    span(std::uint32_t name)
    {
        if (!_enabled)
            return Scope(nullptr, -1);
        return Scope(this, open(name));
    }

    const std::vector<Span> &spans() const { return _spans; }

    /** Self time per span name over every recorded span. */
    std::map<std::string, LayerTime> selfTimes() const;

    /** Write every span as a Chrome trace_event "X" record. */
    void writeChromeJson(std::ostream &os) const;

  private:
    std::int32_t open(std::uint32_t name);
    void close(std::int32_t index);

    bool _enabled = false;
    std::int64_t _op = -1;
    std::int32_t _current = -1;
    std::vector<Span> _spans;
    std::vector<std::string> _names;
    std::unordered_map<std::string, std::uint32_t> _ids;
};

/** What the harness asks of one operation. */
struct OpContext
{
    /// Fold the operation's generated inputs here; null past the
    /// digest prefix.
    Digest *inputs = nullptr;
    /// Fold the operation's simulated statistics here; null past the
    /// digest prefix.
    Digest *digest = nullptr;
    /// Traced phase: accumulate per-layer counters.
    bool traced = false;
    /// Inside the fixed digest prefix: counts reported as per-layer
    /// metrics come from here only, so they repeat exactly per seed.
    bool prefix = false;
};

/** One benchmark workload. */
class Workload
{
  public:
    virtual ~Workload() = default;

    /** Build everything every operation shares (timed as setup_s). */
    virtual void setup() = 0;

    /**
     * Run operation @p i: derive its inputs from the seed and @p i,
     * execute it, check its output. @return false when the check
     * failed (the reason goes to stderr).
     */
    virtual bool run(std::uint64_t i, const OpContext &ctx) = 0;

    /**
     * Fill per-layer metrics from counters and @p layers (self time per
     * span name of the traced phase, which ran @p ops operations after
     * @p setups timed setups).
     */
    virtual void layerMetrics(const std::map<std::string, LayerTime> &layers,
                              std::uint64_t ops, unsigned setups,
                              std::map<std::string, double> &out) const = 0;
};

/** @return self milliseconds of @p name in @p layers, divided by @p per. */
double selfMs(const std::map<std::string, LayerTime> &layers,
              const std::string &name, double per);

/** @return mean self milliseconds per span of @p name (0 if none). */
double meanSelfMs(const std::map<std::string, LayerTime> &layers,
                  const std::string &name);

} // namespace perfbench

#endif // PERFBENCH_HARNESS_HH
