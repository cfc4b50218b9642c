//===- serve/ProgramCache.h - Byte-budgeted compiled-program cache -*-C++-*-==//
//
// Part of simdflat. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The compile-once/run-many heart of the serving core: a bounded,
/// cost-aware LRU cache from canonical program hash
/// (transform::canonicalKey) to the *verdict* of compiling it - the
/// transform::CompiledSimdProgram, or the transform::PipelineError the
/// pipeline returned. The paper's rewrites are static: whether GOTO
/// recovery, flattening and SIMDization accept a nest depends only on
/// the nest and the pipeline options, which the key encodes, so a
/// failure is as cacheable as a success. Compilation is single-flight:
/// when N requests for the same uncached key arrive concurrently, one
/// compiles and N-1 wait on its verdict instead of compiling N times.
///
/// Residency is bounded three ways, every bound enforced at publish
/// time and applied to failure entries exactly as to programs:
///  * MaxEntries - the count bound (LRU beyond it);
///  * MaxBytes - a byte budget over the estimated footprint of each
///    entry (programCostBytes, or failureCostBytes for a failure),
///    evicting global LRU order;
///  * TenantMaxBytes - a per-tenant occupancy cap: entries are
///    attributed to the tenant whose request compiled them, and a
///    tenant over its cap evicts its *own* LRU entries first, so one
///    hot tenant cannot wash everyone else's programs out of a shared
///    cache.
/// The entry just published is never chosen as its own victim: a tenant
/// may always hold its newest verdict and the cache always serves the
/// verdict it just computed (caps are enforced against everything
/// else).
///
/// Robustness contract:
///  * Entries hand out shared_ptrs, so eviction (pressure or the fault
///    plan's mid-flight eviction) never invalidates a program a worker
///    is still executing.
///  * A compiler callback that throws is not a verdict: its flight's
///    slot is removed, its waiters wake with an error, and the
///    exception propagates to the caller. The next lookup of the key
///    compiles afresh.
///  * All waiting is bounded by the compiler callback returning or
///    throwing.
///
//===----------------------------------------------------------------------===//

#ifndef SIMDFLAT_SERVE_PROGRAMCACHE_H
#define SIMDFLAT_SERVE_PROGRAMCACHE_H

#include "support/Result.h"
#include "transform/Pipeline.h"

#include <condition_variable>
#include <cstdint>
#include <functional>
#include <list>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>

namespace simdflat {
namespace serve {

/// Deterministic footprint estimate of one compiled program: the
/// bytecode vectors and pools plus the retained IR, with a fixed
/// per-entry overhead. Not an allocator-exact measure - a stable
/// ordering key for cost-aware eviction.
size_t programCostBytes(const transform::CompiledSimdProgram &P);

/// Footprint estimate of one cached failure: the same fixed per-entry
/// overhead plus the rendered error text.
size_t failureCostBytes(const std::string &Error);

class ProgramCache {
public:
  struct Options {
    /// Completed entries kept (>= 1); in-flight compiles are pinned and
    /// do not count.
    size_t MaxEntries = 64;
    /// Byte budget over the entries' estimated costs (0 = unmetered).
    size_t MaxBytes = 0;
    /// Per-tenant resident-byte cap (0 = unmetered).
    size_t TenantMaxBytes = 0;
    /// Fault hook: pretend every published entry costs this many bytes
    /// (0 = measure). Drives byte-pressure eviction deterministically
    /// in tests and the chaos campaign.
    size_t CostOverrideBytes = 0;
  };

  struct Stats {
    int64_t Hits = 0;
    int64_t Misses = 0;
    int64_t Evictions = 0;
    /// Lookups that joined an in-flight compile of the same key.
    int64_t Waits = 0;
    /// Evictions forced by the MaxBytes budget (subset of Evictions).
    int64_t ByteEvictions = 0;
    /// Evictions forced by a tenant's occupancy cap (subset).
    int64_t TenantEvictions = 0;
    /// Estimated bytes currently resident.
    int64_t BytesResident = 0;
  };

  /// What one lookup produced: the key's verdict. Prog is null iff the
  /// compile failed; Error then carries the rendering.
  struct Outcome {
    std::shared_ptr<const transform::CompiledSimdProgram> Prog;
    std::string Error;
    /// The verdict was already cached: no compile ran for this lookup.
    bool Hit = false;
    /// This lookup joined another request's flight and shares its
    /// verdict.
    bool Waited = false;
  };

  /// Compiles one program; the returned verdict is cached either way.
  using Compiler = std::function<
      Expected<transform::CompiledSimdProgram, transform::PipelineError>()>;

  /// Count-only bound (legacy single-tenant shape).
  explicit ProgramCache(size_t Capacity);
  explicit ProgramCache(Options O);

  /// Returns the cached verdict for \p Key, joins an in-flight compile
  /// of it, or runs \p Fn to fill it (single-flight: at most one
  /// concurrent Fn per key). Blocks only while a flight for this key is
  /// running. \p Tenant attributes a newly compiled entry for the
  /// per-tenant occupancy cap (empty: the default tenant). Rethrows
  /// whatever \p Fn throws, caching nothing.
  Outcome getOrCompile(uint64_t Key, const Compiler &Fn,
                       const std::string &Tenant = std::string());

  /// Drops the completed entry (program or failure) for \p Key if
  /// present (no-op for keys mid-compile; the flight will publish and
  /// is evictable afterwards). Outstanding shared_ptrs stay valid.
  void evict(uint64_t Key);

  /// Completed entries (programs and failures) currently resident.
  size_t size() const;
  /// Estimated bytes currently resident.
  size_t bytesResident() const;
  /// Estimated resident bytes attributed to \p Tenant.
  size_t tenantBytes(const std::string &Tenant) const;

  Stats stats() const;

private:
  struct Slot {
    std::shared_ptr<const transform::CompiledSimdProgram> Prog;
    std::string Error;
    bool Compiling = true;
    /// Estimated footprint charged against the budgets.
    size_t Cost = 0;
    /// Tenant whose request compiled the entry (occupancy attribution;
    /// later hits by other tenants do not re-attribute).
    std::string Owner;
  };

  /// Marks \p Key most-recently-used; inserts it if new. Lock held.
  void touchLocked(uint64_t Key);
  /// Removes \p Key's completed entry, crediting its cost back. Lock
  /// held.
  void dropLocked(uint64_t Key);
  /// Evicts down to every budget: \p Owner's occupancy cap (own-LRU
  /// first), then MaxBytes (global LRU), then MaxEntries. The
  /// just-published \p Keep is never the victim. Lock held.
  void enforceBudgetsLocked(const std::string &Owner, uint64_t Keep);

  mutable std::mutex M;
  std::condition_variable Published;
  std::unordered_map<uint64_t, std::shared_ptr<Slot>> Map;
  /// Completed keys only, most recent first.
  std::list<uint64_t> Lru;
  /// Resident bytes per owning tenant.
  std::unordered_map<std::string, size_t> OwnerBytes;
  Options Opts;
  Stats S;
};

} // namespace serve
} // namespace simdflat

#endif // SIMDFLAT_SERVE_PROGRAMCACHE_H
