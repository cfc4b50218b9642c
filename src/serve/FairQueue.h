//===- serve/FairQueue.h - Round-robin multi-tenant queue ------*- C++ -*-===//
//
// Part of simdflat. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A deterministic round-robin queue over named tenants, used by the
/// Server's dequeue path so one hot tenant cannot starve another: each
/// tenant with queued work owns a FIFO lane, and pop() serves the lanes
/// in turn, in the order their tenants became active. A lane exists
/// only from the push that activates its tenant to the pop of its last
/// job, so a tenant that goes idle holds nothing and rejoins at the back
/// of the turn order with no banked credit. Memory and dequeue cost are
/// bounded by the queued entries, never by the tenant names seen.
///
/// The class is single-threaded on purpose (the Server already holds
/// its queue mutex around every call); keeping it lock-free makes the
/// scheduling policy unit-testable without threads.
///
//===----------------------------------------------------------------------===//

#ifndef SIMDFLAT_SERVE_FAIRQUEUE_H
#define SIMDFLAT_SERVE_FAIRQUEUE_H

#include <deque>
#include <map>
#include <string>
#include <utility>

namespace simdflat {
namespace serve {

template <typename T> class FairQueue {
public:
  /// Appends \p V to \p Tenant's lane; the first entry of an idle
  /// tenant opens its lane at the back of the turn order.
  void push(const std::string &Tenant, T V) {
    auto [It, Activated] = Lanes.try_emplace(Tenant);
    if (Activated)
      Turns.push_back(It);
    It->second.push_back(std::move(V));
    ++Total;
  }

  bool empty() const { return Total == 0; }
  size_t size() const { return Total; }

  /// Queued entries for one tenant (per-tenant queue-share caps).
  size_t sizeOf(const std::string &Tenant) const {
    auto It = Lanes.find(Tenant);
    return It == Lanes.end() ? 0 : It->second.size();
  }

  /// Tenants with queued entries (each owns one lane).
  size_t lanes() const { return Lanes.size(); }

  /// Removes and returns the front entry of the lane whose turn it is;
  /// that lane goes to the back of the turn order, or closes when it is
  /// empty. Undefined when empty() - callers check first (the Server
  /// pops under its queue lock after a cv wait).
  std::pair<std::string, T> pop() {
    auto It = Turns.front();
    Turns.pop_front();
    std::pair<std::string, T> Out{It->first, std::move(It->second.front())};
    It->second.pop_front();
    --Total;
    if (It->second.empty())
      Lanes.erase(It);
    else
      Turns.push_back(It);
    return Out;
  }

  /// Drains every queued entry (shutdown/drain-deadline sweep),
  /// invoking \p Fn(tenant, entry) in round-robin order.
  template <typename Fn> void drainAll(Fn &&F) {
    while (!empty()) {
      auto [Tenant, V] = pop();
      F(Tenant, std::move(V));
    }
  }

private:
  using LaneMap = std::map<std::string, std::deque<T>>;

  /// Busy tenants' lanes (std::map: iterators stay valid in Turns).
  LaneMap Lanes;
  /// One entry per lane: whose turn is next, front first.
  std::deque<typename LaneMap::iterator> Turns;
  size_t Total = 0;
};

} // namespace serve
} // namespace simdflat

#endif // SIMDFLAT_SERVE_FAIRQUEUE_H
