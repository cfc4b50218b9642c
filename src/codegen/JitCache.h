//===- codegen/JitCache.h - Compile + dlopen cache -------------*- C++ -*-===//
//
// Part of simdflat. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Turns emitted C++ source (codegen::CppEmitter) into a loaded native
/// entry point: shells out to the host compiler, dlopen's the shared
/// object, and caches the result keyed by a hash of the compile flags
/// and the source text. Artifacts live under $SIMDFLAT_JIT_DIR
/// (default: a per-user directory under the system temp dir), so
/// identical programs compile once per machine, not once per process.
///
/// Failure is a first-class outcome, not an error: when the build was
/// configured with SIMDFLAT_ENABLE_JIT=OFF, when the configured
/// compiler is missing, or when a compile fails, getOrCompile returns
/// null and the caller degrades to the bytecode engine. Compile
/// *failures are cached per key* so a serving layer doesn't pay the
/// failed-compile cost on every request (as serve::ProgramCache caches
/// pipeline failures).
///
/// Loaded modules are never dlclosed: an entry point may be referenced
/// by concurrently running requests, and the handful of resident
/// modules is bounded by the number of distinct (program, lanes,
/// layout) shapes.
///
//===----------------------------------------------------------------------===//

#ifndef SIMDFLAT_CODEGEN_JITCACHE_H
#define SIMDFLAT_CODEGEN_JITCACHE_H

#include "codegen/NativeAbi.h"

#include <cstdint>
#include <string>

namespace simdflat {
namespace codegen {

/// Cumulative counters for one process (all JitCache queries share one
/// global cache).
struct JitStats {
  int64_t Hits = 0;          ///< In-memory entry-point hits.
  int64_t Compiles = 0;      ///< Successful compiler invocations.
  int64_t DiskHits = 0;      ///< Artifact already on disk; dlopen only.
  int64_t Failures = 0;      ///< Failed compiles/loads (also cached).
  int64_t ArtifactBytes = 0; ///< Total bytes of .so files produced.
};

/// True when this build can ever JIT: SIMDFLAT_ENABLE_JIT was ON and a
/// compiler path is configured (it may still fail at runtime if the
/// compiler was removed; that failure is cached like any other).
bool jitAvailable();

/// Returns the entry point for \p Source, compiling and loading on the
/// first request. Null means unavailable (disabled build, compile or
/// load failure) - callers must fall back to bytecode. Thread-safe;
/// concurrent requests for the same source single-flight behind one
/// compile.
SfNativeRunFn getOrCompile(const std::string &Source);

/// Process-wide counters (copied under the cache lock).
JitStats jitStats();

/// The FNV-1a 64-bit hash of the JIT compile flags followed by
/// \p Source - the cache key, also the artifact base name. Exposed for
/// tests and cache-key plumbing.
uint64_t sourceKey(const std::string &Source);

} // namespace codegen
} // namespace simdflat

#endif // SIMDFLAT_CODEGEN_JITCACHE_H
