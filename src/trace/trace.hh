/**
 * @file
 * Simulated-time tracing and metrics.
 *
 * The simulator's whole argument rests on *where simulated time goes*
 * (CPU restructuring vs. DMA hops vs. kernel compute), so this layer
 * records first-class spans and counters rather than only end-of-run
 * aggregates. A TraceBuffer holds:
 *
 *  - *spans*: [begin, end] intervals of simulated time, each tagged
 *    with a Category (what kind of time this is), an interned name and
 *    a track (who spent it: an app pipeline, a device, a link);
 *  - *counters*: cumulative event counts sampled at a simulated time
 *    (retries, degradations, re-routed copies, dropped interrupts).
 *
 * Instrumentation sites across runtime / pcie / drx / accel / sys all
 * consult the *thread-local* active buffer (trace::active()); with no
 * session installed every site reduces to one null-pointer check, so
 * tracing is zero-overhead when disabled and can never perturb
 * simulated time (it only ever *observes* ticks). Thread-locality is
 * what lets exec::ScenarioRunner run scenarios in parallel with fully
 * isolated per-scenario traces: a session installed on one worker
 * thread is invisible to every other.
 *
 * Determinism contract: the simulator is single-threaded and
 * deterministic, so two equal-seed runs record byte-identical traces -
 * record order, interning order, tick values and the exported Chrome
 * trace_event JSON all match exactly. Tests assert this.
 *
 * Export targets:
 *  - exportChromeJson(): Chrome trace_event format ("ph":"X" complete
 *    events plus "C" counter series), loadable in chrome://tracing or
 *    https://ui.perfetto.dev (ts/dur are microseconds, exact to 1 ps);
 *  - writeSummary(): compact per-category time breakdown.
 */

#ifndef DMX_TRACE_TRACE_HH
#define DMX_TRACE_TRACE_HH

#include <array>
#include <cstdint>
#include <map>
#include <ostream>
#include <string>
#include <string_view>
#include <vector>

#include "common/units.hh"

namespace dmx::trace
{

/**
 * What kind of simulated time a span accounts for. Categories are
 * designed not to double-count *within* a category: the three phase
 * categories (Kernel / Restructure / Movement) exactly tile each sys
 * request per app track, while device occupancy, fabric flows and DRX
 * pipeline phases live in their own categories.
 */
enum class Category : std::uint8_t
{
    Kernel,      ///< sys per-request kernel phase
    Restructure, ///< sys per-request restructuring phase
    Movement,    ///< sys per-request data-motion phase
    Driver,      ///< driver notifications (instants; zero duration)
    Command,     ///< runtime command first attempts (dispatch->settle)
    Retry,       ///< runtime retry attempts and backoff waits
    Degrade,     ///< CPU-fallback execution of degraded commands
    Device,      ///< accelerator/DRX unit occupancy
    Flow,        ///< PCIe fabric flows and per-hop spans
    Drx,         ///< DRX machine phases (fetch / execute / DMA)
    Robust,      ///< overload protection: backpressure, shed, breakers
    /// Reserved: nothing records here. The slot stays so Integrity and
    /// Serve keep their numbers, which pinned trace digests hash.
    DrxCache,
    Integrity,   ///< data-integrity events: ECC, CRC replay, checksums
    Serve,       ///< serving layer: hedges, budget denials, brownout
    NumCategories,
};

/** @return human name, e.g. "restructure". */
const char *toString(Category c);

/** One closed interval of simulated time. */
struct Span
{
    Tick begin = 0;
    Tick end = 0;
    Category cat = Category::Kernel;
    std::uint32_t name = 0;  ///< string-table id
    std::uint32_t track = 0; ///< string-table id of the owning track
    std::uint64_t arg = 0;   ///< free-form payload (bytes, cycles, ...)

    Tick duration() const { return end - begin; }
};

/** One cumulative counter sample. */
struct CounterSample
{
    Tick at = 0;
    std::uint32_t name = 0; ///< string-table id
    double value = 0;       ///< cumulative value after this event
};

/** Per-category aggregate of recorded spans. */
struct CategoryTotal
{
    Tick ticks = 0;
    std::uint64_t spans = 0;
};

/**
 * The deterministic in-memory trace store.
 *
 * Not a SimObject: a buffer may outlive (and span) several simulations,
 * and instrumentation sites always pass explicit ticks from their own
 * clocks.
 */
class TraceBuffer
{
  public:
    TraceBuffer() = default;

    // ------------------------------------------------------- recording

    /** Intern @p s; equal strings always return equal ids. */
    std::uint32_t intern(std::string_view s);

    /** @return the interned string for @p id. */
    const std::string &stringAt(std::uint32_t id) const;

    /**
     * Record a completed span.
     *
     * @param cat   time category
     * @param name  span label (interned)
     * @param track owning track label (interned)
     * @param begin simulated start tick
     * @param end   simulated end tick; must be >= begin
     * @param arg   free-form payload (bytes, cycles, ...)
     */
    void span(Category cat, std::string_view name, std::string_view track,
              Tick begin, Tick end, std::uint64_t arg = 0);

    /** Record a zero-duration marker span at @p at. */
    void
    instant(Category cat, std::string_view name, std::string_view track,
            Tick at, std::uint64_t arg = 0)
    {
        span(cat, name, track, at, at, arg);
    }

    /**
     * Add @p delta to the named cumulative counter and sample it at
     * @p at.
     */
    void count(std::string_view name, Tick at, double delta = 1.0);

    // ------------------------------------------------------ inspection

    const std::vector<Span> &spans() const { return _spans; }
    const std::vector<CounterSample> &counters() const { return _counters; }
    bool empty() const { return _spans.empty() && _counters.empty(); }

    /** @return current cumulative value of @p name (0 when unseen). */
    double counterTotal(std::string_view name) const;

    /** @return per-category span totals. */
    std::array<CategoryTotal,
               static_cast<std::size_t>(Category::NumCategories)>
    breakdown() const;

    /** @return total ticks recorded under @p cat. */
    Tick categoryTicks(Category cat) const;

    /** @return the latest span end tick (0 when empty). */
    Tick maxEnd() const;

    // --------------------------------------------------------- export

    /** Write the whole buffer as Chrome trace_event JSON. */
    void exportChromeJson(std::ostream &os) const;

    /** Write the compact per-category time-breakdown summary. */
    void writeSummary(std::ostream &os) const;

    /** Drop every record (interned strings are dropped too). */
    void clear();

  private:
    std::vector<std::string> _strings;
    std::map<std::string, std::uint32_t, std::less<>> _ids;
    std::vector<Span> _spans;
    std::vector<CounterSample> _counters;
    std::map<std::uint32_t, double> _counter_totals;
};

/**
 * @return the calling thread's installed buffer, or nullptr when
 *         tracing is disabled on this thread
 */
TraceBuffer *active();

/**
 * RAII installation of a TraceBuffer as the calling thread's active
 * trace sink. Sessions nest; destruction restores the previously
 * active buffer. The buffer must outlive the session, and the session
 * must be destroyed on the thread that created it.
 */
class TraceSession
{
  public:
    explicit TraceSession(TraceBuffer &buffer);
    ~TraceSession();

    TraceSession(const TraceSession &) = delete;
    TraceSession &operator=(const TraceSession &) = delete;

  private:
    TraceBuffer *_previous;
};

} // namespace dmx::trace

#endif // DMX_TRACE_TRACE_HH
