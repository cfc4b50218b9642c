//===- support/CommandLine.cpp --------------------------------*- C++ -*-===//

#include "support/CommandLine.h"

#include <cerrno>
#include <cstdlib>

using namespace simdflat;

bool simdflat::parseInt(const std::string &S, int64_t &Out) {
  if (S.empty())
    return false;
  errno = 0;
  char *End = nullptr;
  long long V = std::strtoll(S.c_str(), &End, 10);
  if (End != S.c_str() + S.size() || errno == ERANGE)
    return false;
  Out = V;
  return true;
}

bool simdflat::flagValue(const std::string &A, std::string_view Name,
                         std::string &Out) {
  if (A.size() <= Name.size() || A.compare(0, Name.size(), Name) != 0 ||
      A[Name.size()] != '=')
    return false;
  Out = A.substr(Name.size() + 1);
  return true;
}
