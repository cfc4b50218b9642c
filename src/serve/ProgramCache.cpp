//===- serve/ProgramCache.cpp ---------------------------------*- C++ -*-===//

#include "serve/ProgramCache.h"

#include "exec/Bytecode.h"
#include "serve/TenantRegistry.h"

#include <algorithm>
#include <cassert>

using namespace simdflat;
using namespace simdflat::serve;

namespace {

/// Fixed overhead for the entry bookkeeping and the retained IR (the
/// ir::Program is a small tree next to the lowered vectors; a constant
/// keeps the estimate deterministic and cheap).
constexpr size_t EntryOverheadBytes = 512;

} // namespace

size_t serve::programCostBytes(const transform::CompiledSimdProgram &P) {
  size_t Bytes = EntryOverheadBytes;
  if (P.Code) {
    const exec::Program &E = *P.Code;
    Bytes += sizeof(exec::Program);
    Bytes += E.Code.size() * sizeof(exec::Instr);
    Bytes += E.IntPool.size() * sizeof(int64_t);
    Bytes += E.RealPool.size() * sizeof(double);
    Bytes += E.Extra.size() * sizeof(int32_t);
    Bytes += E.ProgName.size();
    for (const std::string &Str : E.SlotNames)
      Bytes += Str.size() + sizeof(std::string);
    for (const std::string &Str : E.Callees)
      Bytes += Str.size() + sizeof(std::string);
    for (const std::string &Str : E.Msgs)
      Bytes += Str.size() + sizeof(std::string);
    for (const std::string &Str : E.Locs)
      Bytes += Str.size() + sizeof(std::string);
  }
  return Bytes;
}

size_t serve::failureCostBytes(const std::string &Error) {
  return EntryOverheadBytes + Error.size();
}

ProgramCache::ProgramCache(size_t Capacity)
    : ProgramCache(Options{std::max<size_t>(Capacity, 1), 0, 0, 0}) {}

ProgramCache::ProgramCache(Options O) : Opts(O) {
  Opts.MaxEntries = std::max<size_t>(Opts.MaxEntries, 1);
}

ProgramCache::Outcome ProgramCache::getOrCompile(uint64_t Key,
                                                 const Compiler &Fn,
                                                 const std::string &Tenant) {
  std::shared_ptr<Slot> Mine;
  {
    std::unique_lock<std::mutex> Lock(M);
    auto It = Map.find(Key);
    if (It != Map.end()) {
      std::shared_ptr<Slot> Found = It->second;
      Outcome Out;
      if (Found->Compiling) {
        // Join the in-flight compile and share its verdict.
        ++S.Waits;
        Out.Waited = true;
        Published.wait(Lock, [&] { return !Found->Compiling; });
      } else {
        touchLocked(Key);
        ++S.Hits;
        Out.Hit = true;
      }
      Out.Prog = Found->Prog;
      Out.Error = Found->Error;
      return Out;
    }
    // Miss: claim the flight.
    ++S.Misses;
    Mine = std::make_shared<Slot>();
    Mine->Owner = Tenant.empty() ? defaultTenant() : Tenant;
    Map.emplace(Key, Mine);
  }

  // Compile outside the lock; other keys proceed, same-key lookups wait.
  auto Result = [&] {
    try {
      return Fn();
    } catch (...) {
      // Not a verdict: drop the flight and wake its waiters.
      std::lock_guard<std::mutex> Lock(M);
      Mine->Error = "internal error: the compile of this program threw";
      Mine->Compiling = false;
      Map.erase(Key);
      Published.notify_all();
      throw;
    }
  }();

  std::lock_guard<std::mutex> Lock(M);
  if (Result) {
    Mine->Prog = std::make_shared<const transform::CompiledSimdProgram>(
        std::move(*Result));
    Mine->Cost = programCostBytes(*Mine->Prog);
  } else {
    Mine->Error = Result.error().render();
    Mine->Cost = failureCostBytes(Mine->Error);
  }
  if (Opts.CostOverrideBytes)
    Mine->Cost = Opts.CostOverrideBytes;
  Mine->Compiling = false;
  S.BytesResident += (int64_t)Mine->Cost;
  OwnerBytes[Mine->Owner] += Mine->Cost;
  touchLocked(Key);
  enforceBudgetsLocked(Mine->Owner, Key);
  Published.notify_all();
  Outcome Out;
  Out.Prog = Mine->Prog;
  Out.Error = Mine->Error;
  return Out;
}

void ProgramCache::evict(uint64_t Key) {
  std::lock_guard<std::mutex> Lock(M);
  auto It = Map.find(Key);
  if (It == Map.end() || It->second->Compiling)
    return;
  dropLocked(Key);
}

size_t ProgramCache::size() const {
  std::lock_guard<std::mutex> Lock(M);
  return Lru.size();
}

size_t ProgramCache::bytesResident() const {
  std::lock_guard<std::mutex> Lock(M);
  return (size_t)S.BytesResident;
}

size_t ProgramCache::tenantBytes(const std::string &Tenant) const {
  std::lock_guard<std::mutex> Lock(M);
  auto It = OwnerBytes.find(Tenant.empty() ? defaultTenant() : Tenant);
  return It == OwnerBytes.end() ? 0 : It->second;
}

ProgramCache::Stats ProgramCache::stats() const {
  std::lock_guard<std::mutex> Lock(M);
  return S;
}

void ProgramCache::touchLocked(uint64_t Key) {
  Lru.remove(Key);
  Lru.push_front(Key);
}

void ProgramCache::dropLocked(uint64_t Key) {
  auto It = Map.find(Key);
  assert(It != Map.end() && !It->second->Compiling && "dropping a flight");
  Slot &Victim = *It->second;
  S.BytesResident -= (int64_t)Victim.Cost;
  auto OB = OwnerBytes.find(Victim.Owner);
  if (OB != OwnerBytes.end()) {
    OB->second -= std::min(OB->second, Victim.Cost);
    if (OB->second == 0)
      OwnerBytes.erase(OB);
  }
  Lru.remove(Key);
  Map.erase(It);
  ++S.Evictions;
}

void ProgramCache::enforceBudgetsLocked(const std::string &Owner,
                                        uint64_t Keep) {
  // 1. The owner's occupancy cap: the tenant that grew evicts its own
  //    LRU entries, never a bystander's.
  if (Opts.TenantMaxBytes > 0) {
    while (OwnerBytes[Owner] > Opts.TenantMaxBytes) {
      uint64_t Victim = 0;
      bool FoundVictim = false;
      for (auto It = Lru.rbegin(); It != Lru.rend(); ++It) {
        if (*It == Keep)
          continue;
        auto MI = Map.find(*It);
        if (MI != Map.end() && MI->second->Owner == Owner) {
          Victim = *It;
          FoundVictim = true;
          break;
        }
      }
      if (!FoundVictim)
        break; // only the just-published entry remains: a tenant may
               // always hold its newest program
      dropLocked(Victim);
      ++S.TenantEvictions;
    }
    if (OwnerBytes[Owner] == 0)
      OwnerBytes.erase(Owner);
  }
  // 2. The global byte budget, LRU order.
  if (Opts.MaxBytes > 0) {
    while ((size_t)S.BytesResident > Opts.MaxBytes && Lru.size() > 1) {
      uint64_t Victim = Lru.back() == Keep ? *std::next(Lru.rbegin())
                                           : Lru.back();
      dropLocked(Victim);
      ++S.ByteEvictions;
    }
  }
  // 3. The legacy count bound.
  while (Lru.size() > Opts.MaxEntries) {
    uint64_t Victim = Lru.back() == Keep ? *std::next(Lru.rbegin())
                                         : Lru.back();
    dropLocked(Victim);
  }
}
