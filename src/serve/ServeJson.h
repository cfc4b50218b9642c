//===- serve/ServeJson.h - Request/reply wire format -----------*- C++ -*-===//
//
// Part of simdflat. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// JSON wire format of the flattend protocol (docs/SERVING.md): one
/// request object per input line, one reply object per output line, plus
/// the engine-tagged telemetry record the daemon appends to its service
/// log and the stats object of the end-of-stream summary. Parsing is
/// strict about types and rejects unknown top-level request fields, so a
/// malformed or hostile line is a structured parse error, never a
/// misinterpreted request.
///
//===----------------------------------------------------------------------===//

#ifndef SIMDFLAT_SERVE_SERVEJSON_H
#define SIMDFLAT_SERVE_SERVEJSON_H

#include "serve/Serve.h"
#include "support/Json.h"
#include "support/Result.h"

namespace simdflat {
namespace serve {

/// Parses one request object. Recognized fields (all optional except
/// "source"): id, tenant, source, ints, int_arrays, real_arrays, lanes,
/// fuel, deadline_ms, queue_timeout_ms, min_one, want_arrays. Returns a
/// rendering of the first problem on malformed input.
Expected<Request, std::string> parseRequest(const json::Value &V);

/// The reply object sent back over the wire. A shed reply always
/// carries a non-negative "retry_after_ms"; no other reply carries one.
json::Value toJson(const Reply &R);

/// The per-request accounting record for the telemetry log: the
/// reply's "telemetry" fields (written by the same code) plus the
/// header fields schema, id and outcome, and trap_kind and error when
/// the reply has them.
json::Value telemetryJson(const Reply &R);

/// The counters object of the summary line.
json::Value toJson(const ServerStats &S);

/// Same as V.dumpLine(); kept because perfbench/harness/Serve.cpp
/// renders its replies through it.
std::string toLine(const json::Value &V);

} // namespace serve
} // namespace simdflat

#endif // SIMDFLAT_SERVE_SERVEJSON_H
