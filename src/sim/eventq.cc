#include "sim/eventq.hh"

#include <algorithm>

#include "common/logging.hh"

namespace dmx::sim
{

EventQueue::EventQueue()
    : _slots(std::make_shared<detail::EventSlotTable>())
{
}

std::uint32_t
EventQueue::allocSlot()
{
    if (_free_head != no_slot) {
        const std::uint32_t slot = _free_head;
        _free_head = _slots->slots[slot].next_free;
        return slot;
    }
    const std::uint32_t slot =
        static_cast<std::uint32_t>(_slots->slots.size());
    _slots->slots.emplace_back();
    return slot;
}

void
EventQueue::freeSlot(std::uint32_t slot)
{
    auto &s = _slots->slots[slot];
    s.fn = nullptr;
    s.next_free = _free_head;
    _free_head = slot;
}

EventHandle
EventQueue::schedule(Tick when, std::function<void()> fn, Priority prio)
{
    if (when < _now) {
        dmx_panic("event scheduled in the past: when=%llu now=%llu",
                  static_cast<unsigned long long>(when),
                  static_cast<unsigned long long>(_now));
    }

    const std::uint64_t seq = _next_seq++;
    const std::uint32_t slot = allocSlot();
    auto &s = _slots->slots[slot];
    s.fn = std::move(fn);
    s.seq = seq;
    s.cancelled = false;
    s.fired = false;
    ++_slots->live;

    _kheap.push_back(Key{when, seq, static_cast<std::int32_t>(prio), slot});
    std::push_heap(_kheap.begin(), _kheap.end(), KeyLater{});

    EventHandle handle;
    handle._table = _slots;
    handle._slot = slot;
    handle._seq = seq;
    return handle;
}

EventQueue::Key
EventQueue::popKeyTop()
{
    std::pop_heap(_kheap.begin(), _kheap.end(), KeyLater{});
    const Key key = _kheap.back();
    _kheap.pop_back();
    return key;
}

bool
EventQueue::runOne()
{
    while (!_kheap.empty()) {
        const Key key = popKeyTop();
        auto &s = _slots->slots[key.slot];
        if (s.seq != key.seq) {
            // Slot was cancelled, freed, and recycled; the stale key
            // carries no event any more.
            continue;
        }
        if (s.cancelled) {
            freeSlot(key.slot);
            continue;
        }
        _now = key.when;
        s.fired = true;
        --_slots->live;
        auto fn = std::move(s.fn);
        // Free before firing: the closure may schedule new events and
        // immediately reuse this slot (a fresh seq keeps old handles
        // from ever seeing the new occupant as their event).
        freeSlot(key.slot);
        ++_executed;
        fn();
        return true;
    }
    return false;
}

Tick
EventQueue::run()
{
    while (runOne()) {
    }
    return _now;
}

Tick
EventQueue::runUntil(Tick limit)
{
    while (!_kheap.empty()) {
        // Peek: drop dead keys without advancing time.
        const Key &top = _kheap.front();
        const auto &s = _slots->slots[top.slot];
        if (s.seq != top.seq || s.cancelled) {
            const Key key = popKeyTop();
            if (_slots->slots[key.slot].seq == key.seq)
                freeSlot(key.slot);
            continue;
        }
        if (top.when > limit)
            break;
        runOne();
    }
    return _now;
}

void
EventQueue::reset()
{
    _kheap.clear();
    // A fresh table, so handles into the old epoch go stale rather than
    // aliasing recycled slots.
    _slots = std::make_shared<detail::EventSlotTable>();
    _free_head = no_slot;
    _now = 0;
    _next_seq = 0;
    _executed = 0;
}

} // namespace dmx::sim
