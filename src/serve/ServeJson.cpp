//===- serve/ServeJson.cpp ------------------------------------*- C++ -*-===//

#include "serve/ServeJson.h"

using namespace simdflat;
using namespace simdflat::serve;

namespace {

/// Reads an optional integer field; type errors are reported, absence is
/// not.
bool readInt(const json::Value &Obj, const char *Key, int64_t &Out,
             std::string &Err) {
  const json::Value *F = Obj.get(Key);
  if (!F)
    return true;
  if (!F->isInt()) {
    Err = std::string("field '") + Key + "' must be an integer";
    return false;
  }
  Out = F->asInt();
  return true;
}

bool readBool(const json::Value &Obj, const char *Key, bool &Out,
              std::string &Err) {
  const json::Value *F = Obj.get(Key);
  if (!F)
    return true;
  if (!F->isBool()) {
    Err = std::string("field '") + Key + "' must be a boolean";
    return false;
  }
  Out = F->asBool();
  return true;
}

bool readIntMap(const json::Value &Obj, const char *Key,
                std::map<std::string, int64_t> &Out, std::string &Err) {
  const json::Value *F = Obj.get(Key);
  if (!F)
    return true;
  if (!F->isObject()) {
    Err = std::string("field '") + Key + "' must be an object";
    return false;
  }
  for (const auto &[Name, V] : F->members()) {
    if (!V.isInt()) {
      Err = std::string("'") + Key + "." + Name + "' must be an integer";
      return false;
    }
    Out[Name] = V.asInt();
  }
  return true;
}

template <typename Elem>
bool readArrayMap(const json::Value &Obj, const char *Key,
                  std::map<std::string, std::vector<Elem>> &Out,
                  std::string &Err) {
  const json::Value *F = Obj.get(Key);
  if (!F)
    return true;
  if (!F->isObject()) {
    Err = std::string("field '") + Key + "' must be an object";
    return false;
  }
  for (const auto &[Name, Arr] : F->members()) {
    if (!Arr.isArray()) {
      Err = std::string("'") + Key + "." + Name + "' must be an array";
      return false;
    }
    std::vector<Elem> Vals;
    Vals.reserve(Arr.size());
    for (size_t I = 0; I < Arr.size(); ++I) {
      const json::Value &E = Arr.at(I);
      if constexpr (std::is_same_v<Elem, int64_t>) {
        if (!E.isInt()) {
          Err = std::string("'") + Key + "." + Name +
                "' must hold only integers";
          return false;
        }
        Vals.push_back(E.asInt());
      } else {
        if (!E.isNumber()) {
          Err = std::string("'") + Key + "." + Name +
                "' must hold only numbers";
          return false;
        }
        Vals.push_back(E.asDouble());
      }
    }
    Out.emplace(Name, std::move(Vals));
  }
  return true;
}

} // namespace

Expected<Request, std::string> serve::parseRequest(const json::Value &V) {
  if (!V.isObject())
    return std::string("request must be a JSON object");

  static const char *Known[] = {"id",          "tenant",      "source",
                                "ints",        "int_arrays",  "real_arrays",
                                "lanes",       "fuel",        "deadline_ms",
                                "queue_timeout_ms", "min_one", "want_arrays"};
  for (const auto &[Key, Val] : V.members()) {
    (void)Val;
    bool Ok = false;
    for (const char *K : Known)
      if (Key == K) {
        Ok = true;
        break;
      }
    if (!Ok)
      return "unknown request field '" + Key + "'";
  }

  Request R;
  std::string Err;
  const json::Value *Src = V.get("source");
  if (!Src || !Src->isString())
    return std::string("request needs a string 'source' field");
  R.Source = Src->asString();

  int64_t Id = 0;
  if (!readInt(V, "id", Id, Err))
    return Err;
  R.Id = (uint64_t)Id;
  if (const json::Value *T = V.get("tenant")) {
    if (!T->isString())
      return std::string("field 'tenant' must be a string");
    R.Tenant = T->asString();
  }
  if (!readInt(V, "lanes", R.Lanes, Err) || !readInt(V, "fuel", R.Fuel, Err) ||
      !readInt(V, "deadline_ms", R.DeadlineMs, Err) ||
      !readInt(V, "queue_timeout_ms", R.QueueTimeoutMs, Err))
    return Err;
  if (!readBool(V, "min_one", R.MinOne, Err) ||
      !readBool(V, "want_arrays", R.WantArrays, Err))
    return Err;
  if (!readIntMap(V, "ints", R.Ints, Err) ||
      !readArrayMap<int64_t>(V, "int_arrays", R.IntArrays, Err) ||
      !readArrayMap<double>(V, "real_arrays", R.RealArrays, Err))
    return Err;
  return R;
}

namespace {

/// The per-request accounting fields, written once for both the reply's
/// "telemetry" object and the telemetry log record.
void setTelemetry(json::Value &O, const Telemetry &T) {
  O.set("engine", T.Engine);
  O.set("tenant", T.Tenant);
  O.set("queue_nanos", T.QueueNanos);
  O.set("compile_nanos", T.CompileNanos);
  O.set("run_nanos", T.RunNanos);
  O.set("cache_hit", T.CacheHit);
  O.set("coalesced_compile", T.CoalescedCompile);
  O.set("fallback", T.Fallback);
  O.set("fuel_spent", T.FuelSpent);
  O.set("cycles_spent", T.CyclesSpent);
  O.set("strategy", T.Strategy);
  O.set("strategy_epoch", T.StrategyEpoch);
}

} // namespace

json::Value serve::toJson(const Reply &R) {
  json::Value O = json::Value::object();
  O.set("id", (int64_t)R.Id);
  O.set("outcome", outcomeName(R.Out));
  if (!R.Error.empty())
    O.set("error", R.Error);
  if (R.T) {
    json::Value T = json::Value::object();
    T.set("kind", interp::trapKindName(R.T->Kind));
    json::Value Lanes = json::Value::array();
    for (int64_t L : R.T->Lanes)
      Lanes.push(L);
    T.set("lanes", std::move(Lanes));
    T.set("location", R.T->Location);
    T.set("detail", R.T->Detail);
    O.set("trap", std::move(T));
  }
  if (R.Out == Outcome::Shed)
    O.set("retry_after_ms", R.RetryAfterMs);
  if (R.Draining)
    O.set("draining", true);
  if (!R.IntArrays.empty()) {
    json::Value Arrays = json::Value::object();
    for (const auto &[Name, Vals] : R.IntArrays) {
      json::Value A = json::Value::array();
      for (int64_t E : Vals)
        A.push(E);
      Arrays.set(Name, std::move(A));
    }
    O.set("int_arrays", std::move(Arrays));
  }
  setTelemetry(O.set("telemetry", json::Value::object()), R.Tele);
  return O;
}

json::Value serve::telemetryJson(const Reply &R) {
  json::Value O = json::Value::object();
  O.set("schema", "simdflat-serve-v1");
  O.set("id", (int64_t)R.Id);
  O.set("outcome", outcomeName(R.Out));
  setTelemetry(O, R.Tele);
  if (R.T)
    O.set("trap_kind", interp::trapKindName(R.T->Kind));
  if (!R.Error.empty())
    O.set("error", R.Error);
  return O;
}

std::string serve::toLine(const json::Value &V) { return V.dumpLine(); }

json::Value serve::toJson(const ServerStats &S) {
  json::Value O = json::Value::object();
  O.set("submitted", S.Submitted);
  O.set("served", S.Served);
  O.set("trapped", S.Trapped);
  O.set("shed", S.Shed);
  O.set("compile_errors", S.CompileErrors);
  O.set("cache_hits", S.CacheHits);
  O.set("cache_misses", S.CacheMisses);
  O.set("cache_evictions", S.CacheEvictions);
  O.set("cache_byte_evictions", S.CacheByteEvictions);
  O.set("cache_tenant_evictions", S.CacheTenantEvictions);
  O.set("cache_bytes_resident", S.CacheBytesResident);
  O.set("compiles_coalesced", S.CompilesCoalesced);
  O.set("fallback_serves", S.FallbackServes);
  O.set("quota_sheds", S.QuotaSheds);
  O.set("drain_sheds", S.DrainSheds);
  O.set("adaptive_decisions", S.AdaptiveDecisions);
  O.set("respecializations", S.Respecializations);
  O.set("native_fallbacks", S.NativeFallbacks);
  if (!S.Tenants.empty()) {
    json::Value Ts = json::Value::object();
    for (const auto &[Name, T] : S.Tenants) {
      json::Value TV = json::Value::object();
      TV.set("submitted", T.Submitted);
      TV.set("admitted", T.Admitted);
      TV.set("served", T.Served);
      TV.set("trapped", T.Trapped);
      TV.set("compile_errors", T.CompileErrors);
      TV.set("shed_at_admission", T.ShedAtAdmission);
      TV.set("shed_in_service", T.ShedInService);
      TV.set("consistent", T.consistent());
      Ts.set(Name, std::move(TV));
    }
    O.set("tenants", std::move(Ts));
  }
  O.set("consistent", S.consistent());
  O.set("tenants_consistent", S.tenantsConsistent());
  return O;
}
