/**
 * @file
 * The discrete-event simulation core.
 *
 * Events are closures scheduled at an absolute Tick. Ties are broken
 * first by an explicit priority, then by insertion order, so simulation
 * runs are fully deterministic.
 *
 * The queue is a binary heap of 24-byte POD keys over a slot arena
 * with a free list (see DESIGN.md section 7h). Scheduling allocates
 * nothing once the arena is warm, cancellation is O(1), and
 * pendingCount() is a counter read. Handles reference slots through
 * one shared slot table and a per-occupancy sequence number, so a
 * recycled slot can never be cancelled by a stale handle.
 *
 * The (when, prio, seq) firing order is observable through traces; the
 * property tests in tests/test_core_equiv.cc pin it against a naive
 * linear-scan reference queue.
 */

#ifndef DMX_SIM_EVENTQ_HH
#define DMX_SIM_EVENTQ_HH

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "common/units.hh"

namespace dmx::sim
{

/** Scheduling priority; lower runs first at equal ticks. */
enum class Priority : int
{
    Interrupt = -10,   ///< interrupt delivery before normal work
    Default = 0,
    Stat = 10,         ///< sampling after the tick's real work
};

namespace detail
{

/** One arena slot: the closure plus liveness bookkeeping. */
struct EventSlot
{
    std::function<void()> fn;
    std::uint64_t seq = 0;       ///< sequence of the current occupant
    std::uint32_t next_free = 0; ///< free-list link while vacant
    bool cancelled = false;
    bool fired = false;
};

/** Slot arena shared between a queue and its outstanding handles. */
struct EventSlotTable
{
    std::vector<EventSlot> slots;
    std::size_t live = 0;        ///< pending, uncancelled events
};

} // namespace detail

/**
 * Handle to a scheduled event, allowing cancellation.
 *
 * Copies share cancellation state; cancelling any copy cancels the event.
 */
class EventHandle
{
  public:
    EventHandle() = default;

    /** Cancel the event if it has not fired yet. */
    void
    cancel()
    {
        if (!_table)
            return;
        auto &s = _table->slots[_slot];
        if (s.seq == _seq && !s.cancelled && !s.fired) {
            s.cancelled = true;
            s.fn = nullptr;
            --_table->live;
        }
    }

    /** @return true if this handle refers to a scheduled (live) event. */
    bool
    pending() const
    {
        if (!_table || _slot >= _table->slots.size())
            return false;
        const auto &s = _table->slots[_slot];
        return s.seq == _seq && !s.cancelled && !s.fired;
    }

  private:
    friend class EventQueue;
    // Shared slot table + (slot, seq) reference.
    std::shared_ptr<detail::EventSlotTable> _table;
    std::uint32_t _slot = 0;
    std::uint64_t _seq = 0;
};

/**
 * A deterministic discrete-event queue.
 *
 * The queue is not thread-safe; each engine instance is single-threaded
 * by design (reproducibility beats parallel host speed at this scale).
 * Parallelism comes from running independent scenarios, each with its
 * own queue, on separate threads (see exec::ScenarioRunner).
 */
class EventQueue
{
  public:
    EventQueue();

    /** @return current simulated time. */
    Tick now() const { return _now; }

    /**
     * Schedule @p fn to run at absolute time @p when.
     *
     * @param when absolute tick; must be >= now()
     * @param fn   closure executed when the event fires
     * @param prio tie-break priority
     * @return a handle that can cancel the event
     */
    EventHandle schedule(Tick when, std::function<void()> fn,
                         Priority prio = Priority::Default);

    /** Schedule @p fn @p delay ticks from now. */
    EventHandle
    scheduleIn(Tick delay, std::function<void()> fn,
               Priority prio = Priority::Default)
    {
        return schedule(_now + delay, std::move(fn), prio);
    }

    /**
     * Run a single event (cancelled records are skipped silently).
     * @return false when the queue is empty.
     */
    bool runOne();

    /** Run until the queue drains; @return final simulated time. */
    Tick run();

    /**
     * Run until simulated time would exceed @p limit. Events exactly at
     * @p limit still execute.
     * @return simulated time after the last executed event.
     */
    Tick runUntil(Tick limit);

    /** @return number of pending, uncancelled events. */
    std::size_t pendingCount() const { return _slots->live; }

    /** @return total events executed since construction. */
    std::uint64_t executedCount() const { return _executed; }

    /** Drop every pending event and reset time to zero. */
    void reset();

  private:
    /** 24-byte POD heap key referencing a slot. */
    struct Key
    {
        Tick when;
        std::uint64_t seq;
        std::int32_t prio;
        std::uint32_t slot;
    };

    /** Heap order: the earliest (when, prio, seq) is the heap top. */
    struct KeyLater
    {
        bool
        operator()(const Key &a, const Key &b) const
        {
            if (a.when != b.when)
                return a.when > b.when;
            if (a.prio != b.prio)
                return a.prio > b.prio;
            return a.seq > b.seq;
        }
    };

    static constexpr std::uint32_t no_slot = 0xffffffffu;

    /** Pop the key-heap top. */
    Key popKeyTop();

    std::uint32_t allocSlot();
    void freeSlot(std::uint32_t slot);

    // POD key heap + slot arena with free list.
    std::vector<Key> _kheap;
    std::shared_ptr<detail::EventSlotTable> _slots;
    std::uint32_t _free_head = no_slot;

    Tick _now = 0;
    std::uint64_t _next_seq = 0;
    std::uint64_t _executed = 0;
};

} // namespace dmx::sim

#endif // DMX_SIM_EVENTQ_HH
