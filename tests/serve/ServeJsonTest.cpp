//===- tests/serve/ServeJsonTest.cpp ---------------------------*- C++ -*-===//
//
// The flattend wire format: strict request parsing (a hostile line is a
// structured parse error, never a misread request), reply/telemetry
// serialization (one telemetry record shared by the reply and the log),
// and the one-line JSON-lines framing.
//
//===----------------------------------------------------------------------===//

#include "serve/ServeJson.h"

#include <gtest/gtest.h>

using namespace simdflat;
using namespace simdflat::serve;

namespace {

json::Value parseDoc(const std::string &Text) {
  auto V = json::Value::parse(Text);
  EXPECT_TRUE(static_cast<bool>(V)) << Text;
  return *V;
}

TEST(ServeJson, ParsesFullRequest) {
  auto R = parseRequest(parseDoc(
      R"({"id": 7, "source": "PROGRAM P\nEND\n", "ints": {"K": 8},
          "int_arrays": {"L": [1, 2, 3]}, "real_arrays": {"W": [0.5, 2]},
          "lanes": 8, "fuel": 5000, "deadline_ms": 100,
          "queue_timeout_ms": 10, "min_one": true, "want_arrays": true})"));
  ASSERT_TRUE(static_cast<bool>(R)) << R.error();
  EXPECT_EQ(R->Id, 7u);
  EXPECT_EQ(R->Source, "PROGRAM P\nEND\n");
  EXPECT_EQ(R->Ints.at("K"), 8);
  EXPECT_EQ(R->IntArrays.at("L"), (std::vector<int64_t>{1, 2, 3}));
  EXPECT_EQ(R->RealArrays.at("W"), (std::vector<double>{0.5, 2.0}));
  EXPECT_EQ(R->Lanes, 8);
  EXPECT_EQ(R->Fuel, 5000);
  EXPECT_EQ(R->DeadlineMs, 100);
  EXPECT_EQ(R->QueueTimeoutMs, 10);
  EXPECT_TRUE(R->MinOne);
  EXPECT_TRUE(R->WantArrays);
}

TEST(ServeJson, DefaultsApplyWhenFieldsAbsent) {
  auto R = parseRequest(parseDoc(R"({"source": "x"})"));
  ASSERT_TRUE(static_cast<bool>(R)) << R.error();
  EXPECT_EQ(R->Id, 0u);
  EXPECT_EQ(R->Lanes, 4);
  EXPECT_EQ(R->Fuel, 0);
  EXPECT_FALSE(R->WantArrays);
}

TEST(ServeJson, RejectsMalformedRequests) {
  // Not an object.
  EXPECT_FALSE(static_cast<bool>(parseRequest(parseDoc("[1, 2]"))));
  // Missing source.
  EXPECT_FALSE(static_cast<bool>(parseRequest(parseDoc(R"({"id": 1})"))));
  // Source of the wrong type.
  EXPECT_FALSE(
      static_cast<bool>(parseRequest(parseDoc(R"({"source": 3})"))));
  // Unknown field: a typo must not be silently ignored.
  auto Unknown =
      parseRequest(parseDoc(R"({"source": "x", "fuell": 10})"));
  ASSERT_FALSE(static_cast<bool>(Unknown));
  EXPECT_NE(Unknown.error().find("fuell"), std::string::npos);
  // Wrong field types.
  EXPECT_FALSE(static_cast<bool>(
      parseRequest(parseDoc(R"({"source": "x", "fuel": "lots"})"))));
  EXPECT_FALSE(static_cast<bool>(
      parseRequest(parseDoc(R"({"source": "x", "ints": [1]})"))));
  EXPECT_FALSE(static_cast<bool>(parseRequest(
      parseDoc(R"({"source": "x", "int_arrays": {"A": [1, "two"]}})"))));
}

Reply sampleReply() {
  Reply R;
  R.Id = 9;
  R.Out = Outcome::Served;
  R.IntArrays["X"] = {1, 2, 3};
  R.Tele.QueueNanos = 10;
  R.Tele.CompileNanos = 20;
  R.Tele.RunNanos = 30;
  R.Tele.CacheHit = true;
  R.Tele.FuelSpent = 44;
  R.Tele.CyclesSpent = 17.5;
  return R;
}

TEST(ServeJson, ServedReplySerialization) {
  json::Value O = toJson(sampleReply());
  EXPECT_EQ(O.get("id")->asInt(), 9);
  EXPECT_EQ(O.get("outcome")->asString(), "served");
  EXPECT_EQ(O.get("error"), nullptr) << "no error field when served";
  EXPECT_EQ(O.get("retry_after_ms"), nullptr)
      << "retry hint is shed-only";
  ASSERT_NE(O.get("int_arrays"), nullptr);
  EXPECT_EQ(O.get("int_arrays")->get("X")->size(), 3u);
  const json::Value *Tele = O.get("telemetry");
  ASSERT_NE(Tele, nullptr);
  EXPECT_EQ(Tele->get("engine")->asString(), "bytecode");
  EXPECT_TRUE(Tele->get("cache_hit")->asBool());
  EXPECT_EQ(Tele->get("fuel_spent")->asInt(), 44);
  EXPECT_DOUBLE_EQ(Tele->get("cycles_spent")->asDouble(), 17.5);
}

TEST(ServeJson, ShedAndTrappedReplySerialization) {
  Reply Shed;
  Shed.Id = 1;
  Shed.Out = Outcome::Shed;
  Shed.Error = "admission queue full (4 waiting)";
  Shed.RetryAfterMs = 5;
  json::Value SO = toJson(Shed);
  EXPECT_EQ(SO.get("outcome")->asString(), "shed");
  EXPECT_EQ(SO.get("retry_after_ms")->asInt(), 5);
  EXPECT_NE(SO.get("error")->asString().find("queue full"),
            std::string::npos);

  Reply Trapped;
  Trapped.Id = 2;
  Trapped.Out = Outcome::Trapped;
  interp::Trap T;
  T.Kind = interp::TrapKind::FuelExhausted;
  T.Lanes = {0, 2};
  T.Location = "DO i";
  T.Detail = "fuel exhausted";
  Trapped.T = T;
  json::Value TO = toJson(Trapped);
  EXPECT_EQ(TO.get("outcome")->asString(), "trapped");
  const json::Value *Trap = TO.get("trap");
  ASSERT_NE(Trap, nullptr);
  EXPECT_EQ(Trap->get("kind")->asString(),
            interp::trapKindName(interp::TrapKind::FuelExhausted));
  EXPECT_EQ(Trap->get("lanes")->size(), 2u);
  EXPECT_EQ(Trap->get("location")->asString(), "DO i");
}

TEST(ServeJson, StrategyTelemetryRoundTrips) {
  // The adaptive layer's reply tags: which strategy compiled the
  // primary and at which decision epoch, the same in the reply and in
  // the log record. A reply the adaptive layer did not route is
  // tagged "static".
  Reply R = sampleReply();
  R.Tele.Strategy = "coalesced";
  R.Tele.StrategyEpoch = 3;
  json::Value O = toJson(R);
  const json::Value *Tele = O.get("telemetry");
  ASSERT_NE(Tele, nullptr);
  EXPECT_EQ(Tele->get("strategy")->asString(), "coalesced");
  EXPECT_EQ(Tele->get("strategy_epoch")->asInt(), 3);
  EXPECT_EQ(toJson(sampleReply()).get("telemetry")->get("strategy")
                ->asString(),
            "static");

  json::Value Log = telemetryJson(R);
  EXPECT_EQ(Log.get("strategy")->asString(), "coalesced");
  EXPECT_EQ(Log.get("strategy_epoch")->asInt(), 3);
}

TEST(ServeJson, StatsSerializationCarriesAdaptiveCounters) {
  ServerStats S;
  S.AdaptiveDecisions = 5;
  S.Respecializations = 2;
  json::Value O = toJson(S);
  EXPECT_EQ(O.get("adaptive_decisions")->asInt(), 5);
  EXPECT_EQ(O.get("respecializations")->asInt(), 2);
}

TEST(ServeJson, TelemetryRecordIsSchemaTagged) {
  json::Value O = telemetryJson(sampleReply());
  EXPECT_EQ(O.get("schema")->asString(), "simdflat-serve-v1");
  EXPECT_EQ(O.get("outcome")->asString(), "served");
  EXPECT_EQ(O.get("engine")->asString(), "bytecode");
  EXPECT_TRUE(O.get("cache_hit")->asBool());
}

TEST(ServeJson, StatsSerializationCarriesConsistency) {
  ServerStats S;
  S.Submitted = 4;
  S.Served = 2;
  S.Shed = 1;
  S.CompileErrors = 1;
  json::Value O = toJson(S);
  EXPECT_EQ(O.get("submitted")->asInt(), 4);
  EXPECT_TRUE(O.get("consistent")->asBool());
  S.Shed = 0; // lose a request: the summary must say so
  EXPECT_FALSE(toJson(S).get("consistent")->asBool());
}

TEST(ServeJson, LogRecordIsTheReplyTelemetryPlusItsHeader) {
  Reply Served = sampleReply();
  Served.Tele.Tenant = "team-blue";
  Served.Tele.CoalescedCompile = true;
  Served.Tele.Strategy = "flattened";
  Served.Tele.StrategyEpoch = 2;
  Served.Tele.CyclesSpent = 1234.0;

  Reply Trapped;
  Trapped.Id = 4;
  Trapped.Out = Outcome::Trapped;
  interp::Trap T;
  T.Kind = interp::TrapKind::OutOfBounds;
  T.Lanes = {1};
  T.Location = "DO i";
  T.Detail = "lane 1 reads A(9)";
  Trapped.T = T;
  Trapped.Error = T.render();
  Trapped.Tele.Engine = "native";
  Trapped.Tele.Fallback = true;
  Trapped.Tele.RunNanos = 77;

  for (const Reply *R : {&Served, &Trapped}) {
    json::Value Wire = toJson(*R);
    json::Value Log = telemetryJson(*R);
    const json::Value *Tele = Wire.get("telemetry");
    ASSERT_NE(Tele, nullptr);
    EXPECT_EQ(Tele->members().size(), 12u);
    for (const auto &[Key, V] : Tele->members()) {
      const json::Value *L = Log.get(Key);
      ASSERT_NE(L, nullptr) << Key;
      EXPECT_EQ(L->dumpLine(), V.dumpLine()) << Key;
    }
    // Whatever else the log record holds is its header.
    for (const auto &[Key, V] : Log.members()) {
      (void)V;
      if (Tele->get(Key))
        continue;
      EXPECT_TRUE(Key == "schema" || Key == "id" || Key == "outcome" ||
                  Key == "trap_kind" || Key == "error")
          << Key;
    }
    EXPECT_EQ(Log.get("id")->asInt(), Wire.get("id")->asInt());
    EXPECT_EQ(Log.get("outcome")->asString(),
              Wire.get("outcome")->asString());
  }
  EXPECT_EQ(telemetryJson(Trapped).get("trap_kind")->asString(),
            interp::trapKindName(interp::TrapKind::OutOfBounds));
  EXPECT_EQ(telemetryJson(Trapped).get("error")->asString(), Trapped.Error);
  EXPECT_EQ(telemetryJson(Served).get("trap_kind"), nullptr);
}

TEST(ServeJson, OneLineFormIsCompactAndRoundTrips) {
  json::Value Doc = toJson(sampleReply());
  std::string Line = Doc.dumpLine();
  EXPECT_EQ(Line.find('\n'), std::string::npos);
  EXPECT_EQ(Line.front(), '{');
  EXPECT_EQ(toLine(Doc), Line) << "toLine only forwards";
  auto Back = json::Value::parse(Line);
  ASSERT_TRUE(static_cast<bool>(Back)) << Line;
  EXPECT_EQ(Back->dump(), Doc.dump());
}

TEST(ServeJson, RequestTenantRoundTrips) {
  auto R = parseRequest(
      parseDoc(R"({"source": "x", "tenant": "team-blue"})"));
  ASSERT_TRUE(static_cast<bool>(R)) << R.error();
  EXPECT_EQ(R->Tenant, "team-blue");
  // Absent tenant stays empty here; the server normalizes to "default".
  auto Anon = parseRequest(parseDoc(R"({"source": "x"})"));
  ASSERT_TRUE(static_cast<bool>(Anon));
  EXPECT_TRUE(Anon->Tenant.empty());
  // Wrong type is a structured parse error, not a silent default.
  EXPECT_FALSE(static_cast<bool>(
      parseRequest(parseDoc(R"({"source": "x", "tenant": 7})"))));
}

TEST(ServeJson, ReplyCarriesTenantAndDrainingStatus) {
  Reply R = sampleReply();
  R.Tele.Tenant = "team-blue";
  json::Value Served = toJson(R);
  EXPECT_EQ(Served.get("draining"), nullptr)
      << "draining is shed-only wire noise otherwise";
  EXPECT_EQ(Served.get("telemetry")->get("tenant")->asString(),
            "team-blue");

  Reply Shed;
  Shed.Id = 3;
  Shed.Out = Outcome::Shed;
  Shed.Error = "server draining";
  Shed.RetryAfterMs = 5;
  Shed.Draining = true;
  json::Value SO = toJson(Shed);
  ASSERT_NE(SO.get("draining"), nullptr);
  EXPECT_TRUE(SO.get("draining")->asBool());
}

TEST(ServeJson, StatsSerializationCarriesTenants) {
  ServerStats S;
  S.Submitted = 3;
  S.Served = 2;
  S.Shed = 1;
  S.QuotaSheds = 1;
  TenantStats T;
  T.Submitted = 3;
  T.Admitted = 2;
  T.Served = 2;
  T.ShedAtAdmission = 1;
  S.Tenants["blue"] = T;
  json::Value O = toJson(S);
  EXPECT_EQ(O.get("quota_sheds")->asInt(), 1);
  EXPECT_EQ(O.get("drain_sheds")->asInt(), 0);
  const json::Value *Tenants = O.get("tenants");
  ASSERT_NE(Tenants, nullptr);
  const json::Value *Blue = Tenants->get("blue");
  ASSERT_NE(Blue, nullptr);
  EXPECT_EQ(Blue->get("submitted")->asInt(), 3);
  EXPECT_EQ(Blue->get("admitted")->asInt(), 2);
  EXPECT_EQ(Blue->get("shed_at_admission")->asInt(), 1);
  EXPECT_TRUE(Blue->get("consistent")->asBool());
  EXPECT_TRUE(O.get("tenants_consistent")->asBool());

  // Break one tenant's conservation law: the wire format says so.
  S.Tenants["blue"].Served = 1;
  json::Value Broken = toJson(S);
  EXPECT_FALSE(
      Broken.get("tenants")->get("blue")->get("consistent")->asBool());
  EXPECT_FALSE(Broken.get("tenants_consistent")->asBool());
}

/// Checks every one of the 12 telemetry fields in \p O against \p T.
void expectTelemetry(const json::Value &O, const Telemetry &T) {
  EXPECT_EQ(O.members().size(), 12u);
  EXPECT_EQ(O.get("engine")->asString(), T.Engine);
  EXPECT_EQ(O.get("tenant")->asString(), T.Tenant);
  EXPECT_EQ(O.get("queue_nanos")->asInt(), T.QueueNanos);
  EXPECT_EQ(O.get("compile_nanos")->asInt(), T.CompileNanos);
  EXPECT_EQ(O.get("run_nanos")->asInt(), T.RunNanos);
  EXPECT_EQ(O.get("cache_hit")->asBool(), T.CacheHit);
  EXPECT_EQ(O.get("coalesced_compile")->asBool(), T.CoalescedCompile);
  EXPECT_EQ(O.get("fallback")->asBool(), T.Fallback);
  EXPECT_EQ(O.get("fuel_spent")->asInt(), T.FuelSpent);
  EXPECT_DOUBLE_EQ(O.get("cycles_spent")->asDouble(), T.CyclesSpent);
  EXPECT_EQ(O.get("strategy")->asString(), T.Strategy);
  EXPECT_EQ(O.get("strategy_epoch")->asInt(), T.StrategyEpoch);
}

TEST(ServeJson, ReplyObjectCarriesEveryFieldForEveryOutcome) {
  // Every field toJson(Reply) writes, for all four outcomes: present
  // exactly when the reply has it, with the reply's value.
  Telemetry Tele;
  Tele.QueueNanos = 11;
  Tele.CompileNanos = 22;
  Tele.RunNanos = 33;
  Tele.CacheHit = true;
  Tele.CoalescedCompile = true;
  Tele.Fallback = true;
  Tele.FuelSpent = 44;
  Tele.CyclesSpent = 17.5;
  Tele.Strategy = "coalesced";
  Tele.StrategyEpoch = 3;
  Tele.Engine = "native";
  Tele.Tenant = "team-blue";

  Reply Served = sampleReply();
  Served.IntArrays["Y"] = {};
  Served.Tele = Tele;

  Reply Trapped;
  Trapped.Id = 2;
  Trapped.Out = Outcome::Trapped;
  interp::Trap T;
  T.Kind = interp::TrapKind::OutOfBounds;
  T.Lanes = {1, 3};
  T.Location = "DO i";
  T.Detail = "lane 1 reads A(9)";
  Trapped.T = T;
  Trapped.Error = T.render();

  Reply Draining;
  Draining.Id = 3;
  Draining.Out = Outcome::Shed;
  Draining.Error = "server draining";
  Draining.RetryAfterMs = 12;
  Draining.Draining = true;

  // 0 is a real hint: retrying is pointless (over budget, shutdown).
  Reply Pointless;
  Pointless.Id = 4;
  Pointless.Out = Outcome::Shed;
  Pointless.Error = "fuel budget 0 outside the served range 1..10";

  Reply Refused;
  Refused.Id = 5;
  Refused.Out = Outcome::CompileError;
  Refused.Error = "primary pipeline: stage 'simdize'";
  Refused.Tele = Tele;

  const std::pair<const Reply *, const char *> Cases[] = {
      {&Served, "served"},   {&Trapped, "trapped"},
      {&Draining, "shed"},   {&Pointless, "shed"},
      {&Refused, "compile-error"}};
  for (const auto &[R, Name] : Cases) {
    SCOPED_TRACE(Name + std::string(" #") + std::to_string(R->Id));
    json::Value O = toJson(*R);
    EXPECT_EQ(O.get("id")->asInt(), static_cast<int64_t>(R->Id));
    EXPECT_EQ(O.get("outcome")->asString(), Name);

    if (R->Error.empty()) {
      EXPECT_EQ(O.get("error"), nullptr);
    } else {
      EXPECT_EQ(O.get("error")->asString(), R->Error);
    }

    const json::Value *Retry = O.get("retry_after_ms");
    if (R->Out == Outcome::Shed) {
      ASSERT_NE(Retry, nullptr) << "a shed reply must price the retry";
      ASSERT_TRUE(Retry->isInt());
      EXPECT_GE(Retry->asInt(), 0);
      EXPECT_EQ(Retry->asInt(), R->RetryAfterMs);
    } else {
      EXPECT_EQ(Retry, nullptr) << "the retry hint is shed-only";
    }

    if (R->Draining) {
      EXPECT_TRUE(O.get("draining")->asBool());
    } else {
      EXPECT_EQ(O.get("draining"), nullptr);
    }

    const json::Value *Trap = O.get("trap");
    if (!R->T) {
      EXPECT_EQ(Trap, nullptr);
    } else {
      ASSERT_NE(Trap, nullptr);
      EXPECT_EQ(Trap->get("kind")->asString(), "out-of-bounds");
      const json::Value *Lanes = Trap->get("lanes");
      ASSERT_EQ(Lanes->size(), R->T->Lanes.size());
      for (size_t I = 0; I < Lanes->size(); ++I)
        EXPECT_EQ(Lanes->at(I).asInt(), R->T->Lanes[I]);
      EXPECT_EQ(Trap->get("location")->asString(), R->T->Location);
      EXPECT_EQ(Trap->get("detail")->asString(), R->T->Detail);
    }

    const json::Value *Arrays = O.get("int_arrays");
    if (R->IntArrays.empty()) {
      EXPECT_EQ(Arrays, nullptr);
    } else {
      ASSERT_NE(Arrays, nullptr);
      EXPECT_EQ(Arrays->members().size(), R->IntArrays.size());
      for (const auto &[ArrName, Vals] : R->IntArrays) {
        const json::Value *A = Arrays->get(ArrName);
        ASSERT_NE(A, nullptr) << ArrName;
        ASSERT_EQ(A->size(), Vals.size());
        for (size_t I = 0; I < Vals.size(); ++I)
          EXPECT_EQ(A->at(I).asInt(), Vals[I]);
      }
    }

    ASSERT_NE(O.get("telemetry"), nullptr);
    expectTelemetry(*O.get("telemetry"), R->Tele);

    for (const auto &[Key, V] : O.members()) {
      (void)V;
      EXPECT_TRUE(Key == "id" || Key == "outcome" || Key == "error" ||
                  Key == "trap" || Key == "retry_after_ms" ||
                  Key == "draining" || Key == "int_arrays" ||
                  Key == "telemetry")
          << Key;
    }
  }
}

TEST(ServeJson, OneLineFormEscapesStrings) {
  json::Value Doc = json::Value::object();
  Doc.set("s", std::string("a\"b\nc"));
  std::string Line = Doc.dumpLine();
  EXPECT_EQ(Line.find('\n'), std::string::npos)
      << "embedded newlines must be escaped for JSON-lines framing";
  auto Back = json::Value::parse(Line);
  ASSERT_TRUE(static_cast<bool>(Back));
  EXPECT_EQ(Back->get("s")->asString(), "a\"b\nc");
}

} // namespace
