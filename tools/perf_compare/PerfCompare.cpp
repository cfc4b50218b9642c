//===- tools/perf_compare/PerfCompare.cpp ---------------------------------===//
//
// Part of simdflat. MIT license.
//
//===----------------------------------------------------------------------===//

#include "tools/perf_compare/PerfCompare.h"

#include "support/Format.h"
#include "support/Table.h"

#include <algorithm>
#include <cmath>
#include <filesystem>
#include <map>
#include <set>

namespace simdflat {
namespace perfcompare {

namespace {

struct ParsedMetric {
  double Value = 0.0;
  bool Gate = true;
  bool LowerIsBetter = true;
};

using MetricMap = std::map<std::pair<std::string, std::string>, ParsedMetric>;

Expected<MetricMap, CompareError> extractMetrics(const json::Value &Doc,
                                                 const char *Which) {
  if (!Doc.isObject())
    return CompareError{formatf("%s: not a JSON object", Which)};
  const json::Value *Schema = Doc.get("schema");
  if (!Schema || !Schema->isString() ||
      Schema->asString() != "simdflat-bench-v1")
    return CompareError{
        formatf("%s: missing or unknown schema (want simdflat-bench-v1)",
                Which)};
  const json::Value *Metrics = Doc.get("metrics");
  if (!Metrics || !Metrics->isArray())
    return CompareError{formatf("%s: no metrics array", Which)};
  MetricMap Out;
  for (size_t I = 0; I < Metrics->size(); ++I) {
    const json::Value &M = Metrics->at(I);
    const json::Value *Case = M.get("case");
    const json::Value *Name = M.get("metric");
    const json::Value *Val = M.get("value");
    if (!Case || !Case->isString() || !Name || !Name->isString() ||
        !Val || !Val->isNumber())
      return CompareError{
          formatf("%s: metrics[%zu] is malformed", Which, I)};
    ParsedMetric P;
    P.Value = Val->asDouble();
    if (const json::Value *G = M.get("gate"))
      P.Gate = G->isBool() && G->asBool();
    if (const json::Value *B = M.get("better"))
      P.LowerIsBetter = !B->isString() || B->asString() != "higher";
    // Trip-histogram counters describe the workload's input
    // distribution, not the build's performance; a trip profile shift
    // is information, never a regression. Force them informational
    // whatever the producer wrote, so a re-seeded workload cannot fail
    // the gate on histogram shape.
    if (Name->asString().rfind("trip_hist", 0) == 0)
      P.Gate = false;
    Out[{Case->asString(), Name->asString()}] = P;
  }
  return Out;
}

std::string benchName(const json::Value &Doc) {
  const json::Value *N = Doc.get("bench");
  return N && N->isString() ? N->asString() : "<unnamed>";
}

/// The interpreter engine recorded in meta.engine, or "" when the
/// document predates the tag (seed baselines).
std::string benchEngine(const json::Value &Doc) {
  const json::Value *Meta = Doc.get("meta");
  if (!Meta || !Meta->isObject())
    return "";
  const json::Value *E = Meta->get("engine");
  return E && E->isString() ? E->asString() : "";
}

} // namespace

int64_t CompareResult::regressionCount() const {
  return std::count_if(Deltas.begin(), Deltas.end(),
                       [](const MetricDelta &D) { return D.Regressed; });
}

std::string CompareResult::render(const CompareOptions &Opts) const {
  std::string Out =
      formatf("perf_compare: bench '%s', threshold %.0f%%\n",
              BenchName.c_str(), 100.0 * Opts.Threshold);
  TextTable T;
  T.setHeader({"case", "metric", "base", "new", "delta", "verdict"});
  int64_t Shown = 0;
  for (const MetricDelta &D : Deltas) {
    bool Interesting = D.Regressed || D.Improved;
    if (!Interesting && !Opts.ShowAll)
      continue;
    ++Shown;
    T.addRow({D.Case, D.Metric, formatf("%g", D.Base),
              formatf("%g", D.New),
              formatf("%+.1f%%", 100.0 * D.RelDelta),
              D.Regressed    ? "REGRESSED"
              : D.Improved   ? "improved"
              : D.Gate       ? "ok"
                             : "info"});
  }
  if (Shown > 0)
    Out += T.render();
  for (const std::string &K : MissingInNew)
    Out += formatf("warning: gated metric dropped from new run: %s\n",
                   K.c_str());
  for (const std::string &K : MissingInBase)
    Out += formatf("note: new metric with no baseline: %s\n", K.c_str());
  int64_t Regressions = regressionCount();
  Out += formatf("%lld compared, %lld regression(s)%s\n",
                 static_cast<long long>(Deltas.size()),
                 static_cast<long long>(Regressions),
                 Regressions == 0 ? " - OK" : " - FAIL");
  return Out;
}

Expected<CompareResult, CompareError>
compareBenchJson(const json::Value &Base, const json::Value &New,
                 const CompareOptions &Opts) {
  auto BaseMetrics = extractMetrics(Base, "baseline");
  if (!BaseMetrics)
    return BaseMetrics.error();
  auto NewMetrics = extractMetrics(New, "new");
  if (!NewMetrics)
    return NewMetrics.error();

  CompareResult R;
  R.BenchName = benchName(New);
  if (benchName(Base) != R.BenchName)
    return CompareError{formatf(
        "bench name mismatch: baseline '%s' vs new '%s'",
        benchName(Base).c_str(), R.BenchName.c_str())};

  // Different engines (tree / bytecode / native / whatever comes
  // next) model the same machine but spend real time differently;
  // comparing their wall-clock (or mixing baselines regenerated under
  // another engine) would be meaningless. The check is generic over the
  // tag value - any two distinct non-empty tags refuse, so a native
  // baseline diffs only against a native run - and stays permissive
  // when either document predates the tag (seed baselines).
  {
    std::string BaseEng = benchEngine(Base), NewEng = benchEngine(New);
    if (!BaseEng.empty() && !NewEng.empty() && BaseEng != NewEng)
      return CompareError{formatf(
          "engine mismatch: baseline ran under '%s' but new run under "
          "'%s'; regenerate the baseline with the same --engine",
          BaseEng.c_str(), NewEng.c_str())};
  }

  for (const auto &[Key, BaseM] : *BaseMetrics) {
    auto It = NewMetrics->find(Key);
    if (It == NewMetrics->end()) {
      if (BaseM.Gate)
        R.MissingInNew.push_back(Key.first + "/" + Key.second);
      continue;
    }
    const ParsedMetric &NewM = It->second;
    MetricDelta D;
    D.Case = Key.first;
    D.Metric = Key.second;
    D.Base = BaseM.Value;
    D.New = NewM.Value;
    D.Gate = BaseM.Gate && NewM.Gate;
    D.LowerIsBetter = BaseM.LowerIsBetter;
    if (BaseM.Value == 0.0)
      // Zero baseline: no meaningful ratio. Any nonzero new value in
      // the bad direction counts as a full breach.
      D.RelDelta = NewM.Value == 0.0 ? 0.0
                   : NewM.Value > 0.0 ? 2.0 * Opts.Threshold
                                      : -2.0 * Opts.Threshold;
    else
      D.RelDelta = (NewM.Value - BaseM.Value) / std::abs(BaseM.Value);
    double Bad = D.LowerIsBetter ? D.RelDelta : -D.RelDelta;
    if (D.Gate && Bad > Opts.Threshold)
      D.Regressed = true;
    else if (Bad < -Opts.Threshold)
      D.Improved = true;
    R.Deltas.push_back(std::move(D));
  }
  for (const auto &[Key, NewM] : *NewMetrics)
    if (NewM.Gate && !BaseMetrics->count(Key))
      R.MissingInBase.push_back(Key.first + "/" + Key.second);
  return R;
}

Expected<CompareResult, CompareError>
compareBenchFiles(const std::string &BasePath, const std::string &NewPath,
                  const CompareOptions &Opts) {
  auto Base = json::parseFile(BasePath);
  if (!Base)
    return CompareError{Base.error().render()};
  auto New = json::parseFile(NewPath);
  if (!New)
    return CompareError{New.error().render()};
  return compareBenchJson(*Base, *New, Opts);
}

namespace {

Expected<std::set<std::string>, CompareError>
listJsonFiles(const std::string &Dir, const char *Which) {
  namespace fs = std::filesystem;
  std::error_code EC;
  if (!fs::is_directory(Dir, EC))
    return CompareError{
        formatf("%s: '%s' is not a directory", Which, Dir.c_str())};
  std::set<std::string> Out;
  for (const fs::directory_entry &E : fs::directory_iterator(Dir, EC)) {
    if (E.is_regular_file() && E.path().extension() == ".json")
      Out.insert(E.path().filename().string());
  }
  if (EC)
    return CompareError{formatf("%s: cannot list '%s': %s", Which,
                                Dir.c_str(), EC.message().c_str())};
  return Out;
}

} // namespace

int64_t DirCompareResult::regressionCount() const {
  int64_t N = 0;
  for (const auto &[File, R] : Compared)
    N += R.regressionCount();
  return N;
}

std::string DirCompareResult::render(const CompareOptions &Opts) const {
  std::string Out;
  for (const auto &[File, R] : Compared) {
    Out += formatf("== %s ==\n", File.c_str());
    Out += R.render(Opts);
  }
  for (const std::string &F : OnlyInNew)
    Out += formatf("note: bench added (no baseline yet): %s\n", F.c_str());
  for (const std::string &F : OnlyInBase)
    Out += formatf("note: bench removed (baseline only): %s\n", F.c_str());
  for (const std::string &F : Renamed)
    Out += formatf("note: bench renamed: %s\n", F.c_str());
  int64_t Regressions = regressionCount();
  Out += formatf(
      "%lld bench(es) compared, %lld added, %lld removed, %lld renamed, "
      "%lld regression(s)%s\n",
      static_cast<long long>(Compared.size()),
      static_cast<long long>(OnlyInNew.size()),
      static_cast<long long>(OnlyInBase.size()),
      static_cast<long long>(Renamed.size()),
      static_cast<long long>(Regressions),
      Regressions == 0 ? " - OK" : " - FAIL");
  return Out;
}

Expected<DirCompareResult, CompareError>
compareBenchDirs(const std::string &BaseDir, const std::string &NewDir,
                 const CompareOptions &Opts) {
  auto BaseFiles = listJsonFiles(BaseDir, "baseline");
  if (!BaseFiles)
    return BaseFiles.error();
  auto NewFiles = listJsonFiles(NewDir, "new");
  if (!NewFiles)
    return NewFiles.error();

  DirCompareResult R;
  for (const std::string &F : *BaseFiles)
    if (!NewFiles->count(F))
      R.OnlyInBase.push_back(F);
  for (const std::string &F : *NewFiles)
    if (!BaseFiles->count(F))
      R.OnlyInNew.push_back(F);

  namespace fs = std::filesystem;
  for (const std::string &F : *BaseFiles) {
    if (!NewFiles->count(F))
      continue;
    auto Base = json::parseFile((fs::path(BaseDir) / F).string());
    if (!Base)
      return CompareError{Base.error().render()};
    auto New = json::parseFile((fs::path(NewDir) / F).string());
    if (!New)
      return CompareError{New.error().render()};
    // A matched file whose embedded bench name changed is a rename in
    // place: comparing old metrics against the new bench's would be
    // apples to oranges, so report it informationally instead.
    std::string BaseName = benchName(*Base), NewName = benchName(*New);
    if (BaseName != NewName) {
      R.Renamed.push_back(
          formatf("%s: '%s' -> '%s'", F.c_str(), BaseName.c_str(),
                  NewName.c_str()));
      continue;
    }
    auto Cmp = compareBenchJson(*Base, *New, Opts);
    if (!Cmp)
      return CompareError{formatf("%s: %s", F.c_str(),
                                  Cmp.error().render().c_str())};
    R.Compared.emplace_back(F, std::move(*Cmp));
  }
  return R;
}

} // namespace perfcompare
} // namespace simdflat
