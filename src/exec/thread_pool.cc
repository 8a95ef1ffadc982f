#include "exec/thread_pool.hh"

namespace dmx::exec
{

ThreadPool::ThreadPool(unsigned workers)
{
    if (workers == 0)
        return; // inline mode: no queues, no threads
    _queues.reserve(workers);
    for (unsigned w = 0; w < workers; ++w)
        _queues.push_back(std::make_unique<WorkerQueue>());
    _workers.reserve(workers);
    for (unsigned w = 0; w < workers; ++w)
        _workers.emplace_back([this, w] { workerLoop(w); });
}

ThreadPool::~ThreadPool()
{
    if (_workers.empty())
        return;
    wait();
    {
        std::lock_guard<std::mutex> lk(_sleep_mu);
        _stop = true;
    }
    _wake.notify_all();
    for (std::thread &t : _workers)
        t.join();
}

void
ThreadPool::submit(Task task)
{
    if (_workers.empty()) {
        // 0-worker pool: the caller is the worker.
        task();
        _executed.fetch_add(1, std::memory_order_relaxed);
        return;
    }
    const auto target = static_cast<unsigned>(
        _next_queue.fetch_add(1, std::memory_order_relaxed) %
        _queues.size());
    {
        std::lock_guard<std::mutex> lk(_queues[target]->mu);
        _queues[target]->jobs.push_back(std::move(task));
    }
    _inflight.fetch_add(1, std::memory_order_relaxed);
    {
        // Publish under the sleep lock: a worker that has just found
        // the wait predicate false but not yet blocked would otherwise
        // miss this notify and sleep with work queued (a lost wakeup).
        std::lock_guard<std::mutex> lk(_sleep_mu);
        _queued.fetch_add(1, std::memory_order_release);
    }
    _wake.notify_one();
}

void
ThreadPool::wait()
{
    if (_workers.empty())
        return;
    std::unique_lock<std::mutex> lk(_sleep_mu);
    _idle.wait(lk, [this] {
        return _inflight.load(std::memory_order_acquire) == 0;
    });
}

bool
ThreadPool::takeTask(unsigned self, Task &out)
{
    // Own deque first: FIFO keeps a sweep's scenarios in submission
    // order when uncontended.
    {
        WorkerQueue &q = *_queues[self];
        std::lock_guard<std::mutex> lk(q.mu);
        if (!q.jobs.empty()) {
            out = std::move(q.jobs.front());
            q.jobs.pop_front();
            return true;
        }
    }
    // Steal from siblings' backs, scanning from the next neighbour so
    // thieves spread out instead of mobbing worker 0.
    const auto n = static_cast<unsigned>(_queues.size());
    for (unsigned hop = 1; hop < n; ++hop) {
        WorkerQueue &victim = *_queues[(self + hop) % n];
        std::lock_guard<std::mutex> lk(victim.mu);
        if (!victim.jobs.empty()) {
            out = std::move(victim.jobs.back());
            victim.jobs.pop_back();
            _stolen.fetch_add(1, std::memory_order_relaxed);
            return true;
        }
    }
    return false;
}

void
ThreadPool::workerLoop(unsigned self)
{
    for (;;) {
        Task task;
        if (takeTask(self, task)) {
            _queued.fetch_sub(1, std::memory_order_relaxed);
            task();
            _executed.fetch_add(1, std::memory_order_relaxed);
            if (_inflight.fetch_sub(1, std::memory_order_acq_rel) == 1) {
                // Last task out: wake wait()ers. Taking the lock
                // orders the notify against the predicate check.
                std::lock_guard<std::mutex> lk(_sleep_mu);
                _idle.notify_all();
            }
            continue;
        }
        std::unique_lock<std::mutex> lk(_sleep_mu);
        _wake.wait(lk, [this] {
            return _stop || _queued.load(std::memory_order_acquire) > 0;
        });
        if (_stop && _queued.load(std::memory_order_acquire) == 0)
            return;
    }
}

} // namespace dmx::exec
