//===- fuzz/Corpus.cpp - Replayable corpus files ---------------*- C++ -*-===//
//
// Part of simdflat. MIT license.
//
//===----------------------------------------------------------------------===//

#include "fuzz/Corpus.h"

#include "frontend/Parser.h"
#include "ir/Printer.h"

#include <cmath>
#include <limits>

using namespace simdflat;
using namespace simdflat::fuzz;
using json::Value;

namespace {

const char *verdictName(ExpectedVerdict V) {
  switch (V) {
  case ExpectedVerdict::Any:
    return "any";
  case ExpectedVerdict::Complete:
    return "complete";
  case ExpectedVerdict::Trap:
    return "trap";
  }
  return "any";
}

} // namespace

Value fuzz::renderCase(const FuzzCase &C) {
  Value Doc = Value::object();
  Doc.set("format", CorpusFormat);
  Doc.set("name", C.Name);
  Doc.set("seed", static_cast<int64_t>(C.Seed));
  Doc.set("expect", verdictName(C.Expect));
  if (C.Expect == ExpectedVerdict::Trap)
    Doc.set("expectTrapKind", C.ExpectTrapKind);
  Doc.set("source", ir::printProgram(C.Prog));

  Value Ints = Value::object();
  for (const auto &[Name, V] : C.Ints)
    Ints.set(Name, V);
  Doc.set("ints", std::move(Ints));

  Value IntArrays = Value::object();
  for (const auto &[Name, Arr] : C.IntArrays) {
    Value A = Value::array();
    for (int64_t V : Arr)
      A.push(V);
    IntArrays.set(Name, std::move(A));
  }
  Doc.set("intArrays", std::move(IntArrays));

  Value RealArrays = Value::object();
  for (const auto &[Name, Arr] : C.RealArrays) {
    Value A = Value::array();
    for (double V : Arr)
      A.push(V); // NaN serializes as null (see json::Value::dump)
    RealArrays.set(Name, std::move(A));
  }
  Doc.set("realArrays", std::move(RealArrays));

  Doc.set("fuel", C.Fuel);
  Doc.set("deadlineNs", C.DeadlineNs);
  Doc.set("externTrapArg", C.ExternTrapArg);
  Doc.set("minOne", C.MinOne);
  return Doc;
}

Expected<FuzzCase, CorpusError> fuzz::parseCase(const Value &Doc) {
  auto Fail = [](std::string Msg) -> Expected<FuzzCase, CorpusError> {
    return CorpusError{std::move(Msg)};
  };
  if (!Doc.isObject())
    return Fail("corpus document is not an object");
  const Value *Format = Doc.get("format");
  if (!Format || !Format->isString() ||
      Format->asString() != CorpusFormat)
    return Fail("unknown corpus format (want " +
                std::string(CorpusFormat) + ")");
  const Value *Source = Doc.get("source");
  if (!Source || !Source->isString())
    return Fail("corpus case has no program source");

  frontend::ParseResult PR = frontend::parseProgram(Source->asString());
  if (!PR.ok())
    return Fail("corpus program does not parse: " +
                PR.Diags.renderAll());

  FuzzCase C(std::move(*PR.Prog));
  if (const Value *N = Doc.get("name"); N && N->isString())
    C.Name = N->asString();
  if (const Value *S = Doc.get("seed"); S && S->isInt())
    C.Seed = static_cast<uint64_t>(S->asInt());
  if (const Value *E = Doc.get("expect"); E && E->isString()) {
    if (E->asString() == "complete")
      C.Expect = ExpectedVerdict::Complete;
    else if (E->asString() == "trap")
      C.Expect = ExpectedVerdict::Trap;
    else if (E->asString() == "any")
      C.Expect = ExpectedVerdict::Any;
    else
      return Fail("unknown expect verdict '" + E->asString() + "'");
  }
  if (const Value *K = Doc.get("expectTrapKind"); K && K->isString())
    C.ExpectTrapKind = K->asString();

  if (const Value *Ints = Doc.get("ints")) {
    for (const auto &[Name, V] : Ints->members()) {
      if (!V.isInt())
        return Fail("ints." + Name + " is not an integer");
      C.Ints[Name] = V.asInt();
    }
  }
  if (const Value *Arrs = Doc.get("intArrays")) {
    for (const auto &[Name, A] : Arrs->members()) {
      if (!A.isArray())
        return Fail("intArrays." + Name + " is not an array");
      std::vector<int64_t> Vals;
      for (size_t I = 0; I < A.size(); ++I) {
        if (!A.at(I).isInt())
          return Fail("intArrays." + Name + " has a non-integer entry");
        Vals.push_back(A.at(I).asInt());
      }
      C.IntArrays[Name] = std::move(Vals);
    }
  }
  if (const Value *Arrs = Doc.get("realArrays")) {
    for (const auto &[Name, A] : Arrs->members()) {
      if (!A.isArray())
        return Fail("realArrays." + Name + " is not an array");
      std::vector<double> Vals;
      for (size_t I = 0; I < A.size(); ++I) {
        const Value &E = A.at(I);
        if (E.isNull()) // the writer's NaN convention
          Vals.push_back(std::numeric_limits<double>::quiet_NaN());
        else if (E.isNumber())
          Vals.push_back(E.asDouble());
        else
          return Fail("realArrays." + Name + " has a non-number entry");
      }
      C.RealArrays[Name] = std::move(Vals);
    }
  }
  if (const Value *F = Doc.get("fuel"); F && F->isInt())
    C.Fuel = F->asInt();
  if (const Value *D = Doc.get("deadlineNs"); D && D->isInt())
    C.DeadlineNs = D->asInt();
  if (const Value *T = Doc.get("externTrapArg"); T && T->isInt())
    C.ExternTrapArg = T->asInt();
  if (const Value *M = Doc.get("minOne"); M && M->isBool())
    C.MinOne = M->asBool();
  return C;
}

bool fuzz::writeCase(const FuzzCase &C, const std::string &Path) {
  return json::writeFile(Path, renderCase(C));
}

Expected<FuzzCase, CorpusError> fuzz::readCase(const std::string &Path) {
  Expected<Value, json::JsonError> Doc = json::parseFile(Path);
  if (!Doc)
    return CorpusError{Path + ": " + Doc.error().render()};
  Expected<FuzzCase, CorpusError> C = parseCase(*Doc);
  if (!C)
    return CorpusError{Path + ": " + C.error().Message};
  return C;
}
