//===- perfbench/harness/main.cpp - Benchmark entry point -------*- C++ -*-===//
//
// Part of simdflat's wall-clock benchmark. MIT license.
//
// perfbench --workload <kernels|serve_cold> --seed <n>
//           --seconds <s> --trace <0|1> [--out-dir <dir>]
//
// Exit code 0 only when every output check passed; the last line of
// stdout is the JSON verdict.
//
//===----------------------------------------------------------------------===//

#include "Common.h"

#include <cstdio>
#include <cstdlib>
#include <string>

using namespace perfbench;

namespace {

int usage(const char *Why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload "
               "<kernels|serve_cold> --seed <n> --seconds <s> "
               "--trace <0|1> [--out-dir <dir>]\n",
               Why);
  return 2;
}

bool parseNumber(const std::string &S, double &Out) {
  char *End = nullptr;
  Out = std::strtod(S.c_str(), &End);
  return !S.empty() && End && *End == '\0';
}

} // namespace

int main(int argc, char **argv) {
  Options O;
  for (int I = 1; I < argc; ++I) {
    std::string A = argv[I];
    if (I + 1 >= argc)
      return usage(("missing value for " + A).c_str());
    std::string V = argv[++I];
    double D = 0;
    if (A == "--workload")
      O.Workload = V;
    else if (A == "--seed" && parseNumber(V, D) && D >= 0)
      O.Seed = static_cast<uint64_t>(D);
    else if (A == "--seconds" && parseNumber(V, D) && D > 0 && D <= 600)
      O.Seconds = D;
    else if (A == "--trace" && (V == "0" || V == "1"))
      O.Trace = V == "1";
    else if (A == "--out-dir")
      O.OutDir = V;
    else
      return usage(("bad argument " + A + " " + V).c_str());
  }
  if (O.Workload == "kernels")
    return runKernels(O);
  if (O.Workload == "serve_cold")
    return runServeCold(O);
  return usage("unknown workload");
}
