#ifndef FAST_SERVICE_PLAN_CACHE_H_
#define FAST_SERVICE_PLAN_CACHE_H_

// Thread-safe LRU cache of query plans for the match service.
//
// A plan is everything RunFastWithCst needs that does not depend on the
// request: the matching order, the built CST and, once a run on that CST
// has recorded it, Alg. 2's partition plan (cst/partition.h), all in the
// canonical query numbering of the cache key. A hit replaces order
// computation and CST construction — typically the dominant host-side cost
// for repeated query shapes — and hands the cached CST to the pipeline as
// is: the CST is immutable and shared, so concurrent hits only read it. A
// hit whose plan has partitions also skips Alg. 2: it rebuilds the recorded
// partitions from the CST (partition settings are fixed per tenant, so a
// plan is valid for every request of its key). A plan is charged its CST's
// wire size (CstWireBytes, the bytes that would cross PCIe) plus its
// partition bitset bytes against the byte budget.
//
// Plans are data-dependent: the CST enumerates candidate vertices of the
// data graph, so a plan built against one graph snapshot is garbage against
// any other. Every entry is therefore tagged with the graph epoch it was
// built on (see GraphState snapshot semantics); Lookup treats an epoch
// mismatch as a miss, dropping the entry on the spot when it is older than
// the request's snapshot (published epochs are monotone, so it can never
// become valid again) and leaving it in place when it is newer (a request
// draining on an old snapshot must not evict — or overwrite, see Insert —
// what current requests use). InvalidateBefore lets the publisher reclaim a
// whole superseded epoch eagerly — correctness never depends on it, the
// per-key epoch check is the safety net.
//
// Entries are immutable once inserted and handed out as shared_ptr, so
// readers never hold the cache lock while using a plan.

#include <cstdint>
#include <list>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <unordered_map>

#include "cst/cst.h"
#include "cst/partition.h"
#include "obs/metrics.h"
#include "query/matching_order.h"
#include "util/profiled_mutex.h"

namespace fast::service {

struct CachedPlan {
  MatchingOrder order;             // canonical numbering
  std::shared_ptr<const Cst> cst;  // built on the entry's epoch
  // Alg. 2's partitions of `cst`, recorded by the first successful run on
  // it (AttachPartitions); none for order-only and FAST-DRAM entries.
  std::optional<PartitionPlan> partitions;

  // Order-only entry: the plan's CST exceeded the byte budget, so only the
  // matching order is cached (cst is null). A hit skips order computation;
  // the CST is rebuilt against the request's snapshot.
  bool order_only() const { return cst == nullptr; }

  // Byte charge against the cache budget: CstWireBytes(*cst) plus the
  // partition bitset bytes; 0 when order-only.
  std::size_t Bytes() const;
};

struct PlanCacheStats {
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;
  std::uint64_t insertions = 0;
  std::uint64_t evictions = 0;      // LRU capacity or byte-budget pressure
  std::uint64_t invalidations = 0;  // dropped for a superseded epoch
  std::uint64_t rejected_oversized = 0;  // CSTs over the budget (demoted)
  std::uint64_t order_only_hits = 0;  // hits that only skipped the order
  std::uint64_t replay_hits = 0;  // hits whose plan had partitions
  // Partition plans refused because the plan with them would exceed the
  // whole budget (the CST-only entry stays).
  std::uint64_t rejected_partitions = 0;
  std::size_t entries = 0;
  std::size_t bytes_in_use = 0;  // summed CachedPlan::Bytes() of entries
  std::size_t byte_budget = 0;   // configured bound; 0 = entries-only bound

  double HitRate() const {
    const std::uint64_t total = hits + misses;
    return total == 0 ? 0.0 : static_cast<double>(hits) / static_cast<double>(total);
  }
};

class PlanCache {
 public:
  // capacity = max entries; 0 disables caching (Lookup always misses,
  // Insert is a no-op), which is the bench's cache-off baseline.
  // byte_budget bounds the summed CST wire bytes in addition to the entry
  // count (hub-heavy queries produce CSTs orders of magnitude larger than
  // typical, so an entry bound alone does not bound memory); 0 = no byte
  // bound. A single plan larger than the whole budget is demoted to an
  // order-only entry — evicting every live entry to admit one query's CST
  // would thrash the cache, but the order (a few words) is always worth
  // keeping: a hit still skips order computation, rebuilding only the CST.
  explicit PlanCache(std::size_t capacity, std::size_t byte_budget = 0)
      : capacity_(capacity), byte_budget_(byte_budget) {}

  // Returns the plan and refreshes its LRU position, or nullptr on miss.
  // An entry tagged with a different epoch is a miss; it is also erased
  // when its epoch is older than the request's.
  std::shared_ptr<const CachedPlan> Lookup(const std::string& key,
                                           std::uint64_t epoch);

  // Inserts (or replaces) the plan, tagged with the graph epoch it was built
  // on, and evicts the least recently used entries beyond capacity. An
  // existing entry with a newer epoch is kept (the insert is dropped).
  // Concurrent builders of the same key and epoch are harmless: the last
  // insert wins and both plans are valid. Returns whether the cache now
  // holds `plan` itself (false when dropped or demoted to order-only).
  bool Insert(const std::string& key, std::uint64_t epoch,
              std::shared_ptr<const CachedPlan> plan);

  // Publishes `partitions`, recorded by a successful run on `base`'s CST,
  // as the plan {order, same CST, partitions} under the same key and epoch.
  // Only when the entry still holds `base` itself: a replaced, evicted,
  // invalidated or already upgraded entry is left alone (of concurrent
  // recorders, the first wins). Not an insertion: only the byte charge
  // grows. A plan that would exceed the whole byte budget with its
  // partitions keeps the CST-only entry (counted in rejected_partitions).
  // Returns the bytes added (0 when nothing was published).
  std::size_t AttachPartitions(const std::string& key, std::uint64_t epoch,
                               const std::shared_ptr<const CachedPlan>& base,
                               PartitionPlan partitions);

  // Drops every entry tagged with an epoch < `epoch`, and rejects future
  // Inserts below it (a draining old-epoch request must not push a dead
  // plan in and evict a live one). Called by the snapshot publisher right
  // after a swap to reclaim plan memory eagerly.
  void InvalidateBefore(std::uint64_t epoch);

  PlanCacheStats stats() const;
  std::size_t capacity() const { return capacity_; }
  std::size_t byte_budget() const { return byte_budget_; }

  // Additionally reports cache traffic into the process-wide registry
  // (fast_plan_cache_* counters; entries/bytes gauges are adjusted by delta,
  // so several caches — one per tenant — sum correctly into one gauge).
  // Call before the cache sees traffic; the registry must outlive the cache.
  void BindMetrics(obs::MetricsRegistry* registry);

 private:
  struct Entry {
    std::list<std::string>::iterator lru_it;
    std::uint64_t epoch = 0;
    std::shared_ptr<const CachedPlan> plan;
  };

  // Erases an entry (caller holds mu_), accounting `counter`.
  void EraseLocked(std::unordered_map<std::string, Entry>::iterator it,
                   std::uint64_t* counter);

  // Evicts LRU entries until both the entry count and the byte budget hold
  // (caller holds mu_). The MRU entry is never evicted.
  void EvictToFitLocked();

  const std::size_t capacity_;
  const std::size_t byte_budget_;
  // Registry metrics (null until BindMetrics): bumped alongside stats_ under
  // mu_, mirroring the per-instance counters into the process-wide view.
  obs::Counter* hits_counter_ = nullptr;
  obs::Counter* misses_counter_ = nullptr;
  obs::Counter* insertions_counter_ = nullptr;
  obs::Counter* evictions_counter_ = nullptr;
  obs::Counter* invalidations_counter_ = nullptr;
  obs::Gauge* entries_gauge_ = nullptr;
  obs::Gauge* bytes_gauge_ = nullptr;
  mutable util::ProfiledMutex mu_{"plan_cache"};
  std::list<std::string> lru_;  // front = most recently used
  std::unordered_map<std::string, Entry> entries_;
  std::uint64_t min_epoch_ = 0;  // floor set by InvalidateBefore
  PlanCacheStats stats_;
};

}  // namespace fast::service

#endif  // FAST_SERVICE_PLAN_CACHE_H_
