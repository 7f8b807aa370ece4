/**
 * @file
 * Single-flight, compute-once map of shared immutable values.
 *
 * The sweep engines cache attack-free baselines that every cell of a
 * matrix shares: the perf engine's no-ALERT finish times
 * (sim::BaselineCache) and the co-attack engine's attack-free co-runs.
 * Both need the same three guarantees, implemented here once:
 *
 *  - each distinct key is computed at most once while it succeeds;
 *    concurrent first requesters of one key block on the single
 *    computation instead of repeating it;
 *  - the computation runs outside the lock, so distinct keys compute
 *    in parallel;
 *  - a throwing computation caches nothing: its entry is erased, every
 *    waiter blocked on that key receives the exception, and the next
 *    request recomputes.
 *
 * workload::TraceStore and sim::ResultStore keep their own maps: their
 * LRU, byte, and in-flight accounting would make this template branch
 * on its caller.
 */

#ifndef MOATSIM_COMMON_COMPUTE_ONCE_HH
#define MOATSIM_COMMON_COMPUTE_ONCE_HH

#include <cstddef>
#include <exception>
#include <future>
#include <memory>
#include <unordered_map>

#include "common/mutex.hh"

namespace moatsim
{

/** Thread-safe Key -> shared_ptr<const Value> map, computed on demand. */
template <typename Key, typename Value>
class ComputeOnce
{
  public:
    using Ptr = std::shared_ptr<const Value>;

    /**
     * The value of @p key, computed by @p compute (a callable
     * returning Ptr) on the first request. Rethrows whatever compute
     * threw -- to its caller and to every concurrent waiter.
     */
    template <typename Compute>
    Ptr get(const Key &key, Compute &&compute) EXCLUDES(mu_)
    {
        std::promise<Ptr> promise;
        std::shared_future<Ptr> future;
        {
            MutexLock lock(mu_);
            const auto it = entries_.find(key);
            if (it != entries_.end())
                future = it->second;
            else
                entries_.emplace(key, promise.get_future().share());
        }
        if (future.valid())
            return future.get();
        Ptr value;
        try {
            value = compute();
        } catch (...) {
            {
                MutexLock lock(mu_);
                entries_.erase(key);
            }
            promise.set_exception(std::current_exception());
            throw;
        }
        promise.set_value(value);
        return value;
    }

    /** Keys computed or computing (failed ones are not counted). */
    std::size_t size() const EXCLUDES(mu_)
    {
        MutexLock lock(mu_);
        return entries_.size();
    }

  private:
    mutable Mutex mu_;
    std::unordered_map<Key, std::shared_future<Ptr>> entries_
        GUARDED_BY(mu_);
};

} // namespace moatsim

#endif // MOATSIM_COMMON_COMPUTE_ONCE_HH
