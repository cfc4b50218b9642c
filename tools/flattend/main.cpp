//===- tools/flattend/main.cpp - Flattening-service daemon -----*- C++ -*-===//
//
// Part of simdflat. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// flattend: the compile-once/run-many face of the simdflat pipeline.
/// Reads one JSON request per line from stdin (docs/SERVING.md), pushes
/// each through the serve::Server (bounded round-robin admission queue,
/// per-tenant quotas, compiled-program cache, unflattened fallback,
/// per-request budgets), and writes one JSON reply per line to stdout in
/// submission order, each as soon as it and every earlier reply are
/// ready - a client holding its stream open gets answers as they
/// complete. At end of input it prints a summary line with the server
/// counters and self-checks the accounting invariant served + trapped +
/// shed + compile-errors == submitted, globally and per tenant.
///
/// Lifecycle: SIGINT/SIGTERM stop the input loop and drain gracefully -
/// already-admitted requests finish (or shed with a structured draining
/// status when --drain-deadline-ms passes first), every reply is
/// written, the summary reports drained=true, and the exit code stays 0.
/// --health runs an in-process self-check (compile + execute a builtin
/// probe under the configured engine) and exits 0/1 without reading
/// stdin.
///
/// Examples:
///   flattend < requests.jsonl
///   flattend --workers=4 --queue-capacity=8 --max-fuel=1000000
///            --telemetry=serve.log < requests.jsonl   (one line)
///   flattend --fault-fail-primary --fault-evict-mid-flight
///            < requests.jsonl   (fault drill: must still add up)
///   flattend --health --engine=native
///
/// Exit codes: 0 success, 1 unhealthy (--health only), 2 bad command
/// line, 4 internal error (the exception barrier fired), 5 accounting
/// inconsistency.
///
//===----------------------------------------------------------------------===//

#include "serve/ServeJson.h"
#include "serve/Server.h"
#include "support/CommandLine.h"
#include "support/Json.h"

#include <algorithm>
#include <cerrno>
#include <condition_variable>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <deque>
#include <exception>
#include <fstream>
#include <functional>
#include <iostream>
#include <mutex>
#include <optional>
#include <string>
#include <thread>

#include <pthread.h>
#include <unistd.h>

using namespace simdflat;

namespace {

/// Set by the SIGINT/SIGTERM handler; the input loop polls it and read()
/// is interrupted (no SA_RESTART), so a signal mid-block turns into a
/// graceful drain instead of a killed process.
volatile std::sig_atomic_t GSignal = 0;

extern "C" void onDrainSignal(int Sig) { GSignal = Sig; }

void installDrainHandlers() {
  struct sigaction SA;
  std::memset(&SA, 0, sizeof(SA));
  SA.sa_handler = onDrainSignal;
  sigemptyset(&SA.sa_mask);
  SA.sa_flags = 0; // deliberately no SA_RESTART: read() must wake
  sigaction(SIGINT, &SA, nullptr);
  sigaction(SIGTERM, &SA, nullptr);
}

struct CliOptions {
  serve::ServerOptions Server;
  std::string TelemetryPath;
  /// Hard bound on the graceful drain after SIGINT/SIGTERM: queued
  /// requests still unpicked when it passes are shed (draining status).
  int64_t DrainDeadlineMs = 5000;
  bool Health = false;
  bool TestThrow = false;
};

void usage() {
  std::fprintf(
      stderr,
      "usage: flattend [options] < requests.jsonl > replies.jsonl\n"
      "  --workers=N              worker threads (default 2)\n"
      "  --queue-capacity=N       admission queue bound (default 16)\n"
      "  --cache-capacity=N       compiled programs kept (default 64)\n"
      "  --cache-bytes=N          compiled-program byte budget\n"
      "                           (default 0: unmetered)\n"
      "  --cache-tenant-bytes=N   per-tenant cache occupancy cap in\n"
      "                           bytes (default 0: unmetered)\n"
      "  --max-lanes=N            lane bound per request (default 64)\n"
      "  --max-fuel=N             require 0 < fuel <= N per request\n"
      "                           (default 0: fuel optional)\n"
      "  --tenant-rate=N          request tokens per second for every\n"
      "                           tenant (default 0: unmetered)\n"
      "  --tenant-burst=N         request token bucket capacity\n"
      "                           (default 8)\n"
      "  --tenant-max-in-flight=N admitted-but-unresolved requests per\n"
      "                           tenant (default 0: unmetered)\n"
      "  --tenant-max-queued=N    queue share per tenant (default 0:\n"
      "                           bounded only by --queue-capacity)\n"
      "  --tenant-fuel-rate=N     fuel tokens per second per tenant\n"
      "                           (default 0: unmetered)\n"
      "  --retry-after-ms=N       base retry hint on shed replies\n"
      "                           (default 5; scaled by queue depth or\n"
      "                           quota refill time)\n"
      "  --drain-deadline-ms=N    hard bound on the SIGINT/SIGTERM\n"
      "                           graceful drain (default 5000)\n"
      "  --adaptive               profile-guided strategy selection:\n"
      "                           probe runs observe each program's trip\n"
      "                           distribution, the Sec. 6 cost model\n"
      "                           picks unflattened/flattened/coalesced,\n"
      "                           and drift triggers respecialization\n"
      "  --adaptive-min-samples=N trip samples before the first decision\n"
      "                           (default 8)\n"
      "  --adaptive-probe-every=N post-decision probe cadence (default\n"
      "                           8; 0 disables drift tracking)\n"
      "  --layout=cyclic|block    lane layout (default cyclic)\n"
      "  --engine=tree|bytecode|native\n"
      "                           execution engine (default bytecode;\n"
      "                           native JIT-compiles schedules to\n"
      "                           host loops and degrades to bytecode\n"
      "                           without a toolchain)\n"
      "  --telemetry=PATH         append one accounting record per reply\n"
      "  --health                 self-check (compile + run a probe\n"
      "                           program), print one status line, exit\n"
      "                           0 healthy / 1 unhealthy\n"
      "  --fault-fail-primary     fault drill: every primary pipeline\n"
      "                           fails, so requests serve the fallback\n"
      "  --fault-evict-mid-flight fault drill: evict each program while\n"
      "                           its request still runs\n"
      "  --fault-worker-stall-micros=N\n"
      "                           fault drill: stall workers N us per\n"
      "                           request\n"
      "  --fault-inflate-cost-bytes=N\n"
      "                           fault drill: pretend every cached\n"
      "                           program costs N bytes\n"
      "exit codes: 0 success, 1 unhealthy (--health), 2 bad command\n"
      "line, 4 internal error, 5 accounting inconsistency\n");
}

[[nodiscard]] bool cliError(const char *Fmt, const std::string &Arg) {
  std::fprintf(stderr, Fmt, Arg.c_str());
  std::fprintf(stderr, "\n");
  usage();
  return false;
}

bool intOption(const std::string &A, const char *Name, int64_t Min,
               int64_t &Out, bool &Matched) {
  std::string V;
  Matched = flagValue(A, Name, V);
  if (!Matched)
    return true;
  if (!parseInt(V, Out) || Out < Min)
    return cliError("flattend: bad value in '%s'", A);
  return true;
}

bool parseArgs(int Argc, char **Argv, CliOptions &Opts) {
  struct IntFlag {
    const char *Name;
    int64_t Min;
    std::function<void(CliOptions &, int64_t)> Apply;
  };
  static const IntFlag IntFlags[] = {
      {"--workers", 1,
       [](CliOptions &O, int64_t N) { O.Server.Workers = (int)N; }},
      {"--queue-capacity", 1,
       [](CliOptions &O, int64_t N) { O.Server.QueueCapacity = (size_t)N; }},
      {"--cache-capacity", 1,
       [](CliOptions &O, int64_t N) { O.Server.CacheCapacity = (size_t)N; }},
      {"--cache-tenant-bytes", 0,
       [](CliOptions &O, int64_t N) {
         O.Server.CacheTenantMaxBytes = (size_t)N;
       }},
      {"--cache-bytes", 0,
       [](CliOptions &O, int64_t N) { O.Server.CacheMaxBytes = (size_t)N; }},
      {"--max-lanes", 1,
       [](CliOptions &O, int64_t N) { O.Server.MaxLanes = N; }},
      {"--max-fuel", 0,
       [](CliOptions &O, int64_t N) { O.Server.MaxFuel = N; }},
      {"--tenant-rate", 0,
       [](CliOptions &O, int64_t N) {
         O.Server.DefaultQuota.RatePerSec = (double)N;
       }},
      {"--tenant-burst", 1,
       [](CliOptions &O, int64_t N) { O.Server.DefaultQuota.Burst = N; }},
      {"--tenant-max-in-flight", 0,
       [](CliOptions &O, int64_t N) {
         O.Server.DefaultQuota.MaxInFlight = N;
       }},
      {"--tenant-max-queued", 0,
       [](CliOptions &O, int64_t N) { O.Server.DefaultQuota.MaxQueued = N; }},
      {"--tenant-fuel-rate", 0,
       [](CliOptions &O, int64_t N) {
         O.Server.DefaultQuota.FuelPerSec = (double)N;
       }},
      {"--retry-after-ms", 0,
       [](CliOptions &O, int64_t N) { O.Server.RetryAfterMs = N; }},
      {"--drain-deadline-ms", 0,
       [](CliOptions &O, int64_t N) { O.DrainDeadlineMs = N; }},
      {"--adaptive-min-samples", 1,
       [](CliOptions &O, int64_t N) { O.Server.AdaptiveMinSamples = N; }},
      {"--adaptive-probe-every", 0,
       [](CliOptions &O, int64_t N) { O.Server.AdaptiveProbeEvery = N; }},
      {"--fault-worker-stall-micros", 0,
       [](CliOptions &O, int64_t N) {
         O.Server.Faults.WorkerStallMicros = N;
       }},
      {"--fault-inflate-cost-bytes", 0,
       [](CliOptions &O, int64_t N) {
         O.Server.Faults.InflateCostBytes = (size_t)N;
       }},
  };

  for (int I = 1; I < Argc; ++I) {
    std::string A = Argv[I];
    std::string V;
    bool Handled = false;
    for (const IntFlag &F : IntFlags) {
      int64_t N = 0;
      bool Matched = false;
      if (!intOption(A, F.Name, F.Min, N, Matched))
        return false;
      if (Matched) {
        F.Apply(Opts, N);
        Handled = true;
        break;
      }
    }
    if (Handled)
      continue;
    if (A == "--fault-fail-primary") {
      Opts.Server.Faults.FailPrimary = true;
    } else if (A == "--fault-evict-mid-flight") {
      Opts.Server.Faults.EvictMidFlight = true;
    } else if (A == "--adaptive") {
      Opts.Server.Adaptive = true;
    } else if (A == "--health") {
      Opts.Health = true;
    } else if (flagValue(A, "--layout", V)) {
      if (V != "cyclic" && V != "block")
        return cliError("flattend: --layout expects cyclic|block, got '%s'",
                        A);
      Opts.Server.Layout = V == "block" ? machine::Layout::Block
                                        : machine::Layout::Cyclic;
    } else if (flagValue(A, "--engine", V)) {
      if (!interp::engineFromName(V, Opts.Server.Eng))
        return cliError("flattend: --engine expects "
                        "tree|bytecode|native, got '%s'",
                        A);
    } else if (flagValue(A, "--telemetry", V)) {
      if (V.empty())
        return cliError("flattend: --telemetry expects a non-empty path, "
                        "got '%s'",
                        A);
      Opts.TelemetryPath = V;
    } else if (A == "--test-throw") {
      // Undocumented: fires the exception barrier (CI and the CLI test
      // assert the structured-diagnostic + exit-4 contract).
      Opts.TestThrow = true;
    } else if (A == "--help" || A == "-h") {
      usage();
      return false;
    } else {
      return cliError("flattend: unknown option '%s'", A);
    }
  }
  return true;
}

/// --health: compile and execute a builtin probe program in-process
/// under the configured engine/layout, verify the reply and the
/// accounting, print one status line. The fault drills are deliberately
/// NOT inherited - health answers "can this configuration serve", not
/// "do the drills still fail".
int healthCheck(const CliOptions &Opts) {
  serve::ServerOptions SO = Opts.Server;
  SO.Workers = 1;
  SO.Faults = serve::FaultPlan{};
  serve::ServerStats Stats;
  serve::Reply Rep;
  {
    serve::Server Server(SO);
    serve::Request R;
    R.Id = 1;
    R.Tenant = "health";
    R.Source = "PROGRAM HEALTH\n"
               "INTEGER K\n"
               "DISTRIBUTED INTEGER L(4)\n"
               "DISTRIBUTED INTEGER X(4, 3)\n"
               "INTEGER i\n"
               "INTEGER j\n"
               "BEGIN\n"
               "  DOALL i = 1, K\n"
               "    DO j = 1, L(i)\n"
               "      X(i, j) = i * j\n"
               "    ENDDO\n"
               "  ENDDO\n"
               "END\n";
    R.Ints = {{"K", 4}};
    R.IntArrays = {{"L", {3, 1, 2, 1}}};
    R.Lanes = std::min<int64_t>(4, SO.MaxLanes);
    R.Fuel = SO.MaxFuel > 0 ? std::min<int64_t>(100000, SO.MaxFuel) : 100000;
    R.DeadlineMs = 10'000;
    Rep = Server.submit(std::move(R)).get();
    Stats = Server.stats();
  }

  bool Healthy = Rep.Out == serve::Outcome::Served && Stats.consistent() &&
                 Stats.tenantsConsistent() && Rep.Tele.FuelSpent > 0;
  json::Value Status = json::Value::object();
  Status.set("health", Healthy ? "ok" : "bad");
  Status.set("engine", interp::engineName(SO.Eng));
  Status.set("outcome", serve::outcomeName(Rep.Out));
  Status.set("fuel_spent", Rep.Tele.FuelSpent);
  Status.set("consistent", Stats.consistent() && Stats.tenantsConsistent());
  if (!Rep.Error.empty())
    Status.set("error", Rep.Error);
  std::fputs((Status.dumpLine() + "\n").c_str(), stdout);
  std::fflush(stdout);
  return Healthy ? 0 : 1;
}

/// EINTR-aware JSON-lines reader over fd 0. std::getline would restart
/// transparently around the drain signals, so the daemon reads raw and
/// splits lines itself; the truncated-record semantics of the stream
/// version are preserved (EOF mid-record and I/O-error mid-record are
/// distinguishable).
class LineReader {
public:
  struct Line {
    std::string Text;
    /// Final line arrived without its newline (EOF mid-record).
    bool Unterminated = false;
    /// The record was cut off by a read error, not by EOF.
    bool IoError = false;
  };

  /// False at end of input (EOF, I/O error with nothing buffered, or a
  /// drain signal).
  bool next(Line &Out) {
    for (;;) {
      if (GSignal)
        return false; // drain: stop consuming input immediately
      size_t Nl = Buf.find('\n', Pos);
      if (Nl != std::string::npos) {
        Out.Text = Buf.substr(Pos, Nl - Pos);
        Out.Unterminated = false;
        Out.IoError = false;
        Pos = Nl + 1;
        return true;
      }
      if (Done) {
        if (Pos < Buf.size()) {
          // Trailing partial record.
          Out.Text = Buf.substr(Pos);
          Out.Unterminated = true;
          Out.IoError = HadError;
          Pos = Buf.size();
          return true;
        }
        return false;
      }
      if (Pos > 0) {
        Buf.erase(0, Pos);
        Pos = 0;
      }
      char Tmp[1 << 16];
      ssize_t N = ::read(STDIN_FILENO, Tmp, sizeof(Tmp));
      if (N > 0) {
        Buf.append(Tmp, (size_t)N);
      } else if (N == 0) {
        Done = true;
      } else if (errno == EINTR) {
        continue; // the top of the loop checks GSignal
      } else {
        Done = true;
        HadError = true;
      }
    }
  }

private:
  std::string Buf;
  size_t Pos = 0;
  bool Done = false;
  bool HadError = false;
};

/// Writes each reply line (and its telemetry record) in submission
/// order as soon as that reply and every earlier one are ready, from a
/// thread of its own, so a client holding stdin open is answered while
/// the input loop blocks on its next line. Holds only the requests not
/// answered yet.
class ReplyWriter {
public:
  /// A submitted request's future, or the reply to a line that never
  /// reached the server (bad JSON, truncated record).
  struct Pending {
    std::future<serve::Reply> F;
    std::optional<serve::Reply> Immediate;
  };

  explicit ReplyWriter(std::ofstream &Telemetry)
      : Telemetry(Telemetry), Thread([this] { run(); }) {}
  ReplyWriter(const ReplyWriter &) = delete;
  ReplyWriter &operator=(const ReplyWriter &) = delete;
  ~ReplyWriter() { close(); }

  void push(Pending P) {
    {
      std::lock_guard<std::mutex> Lock(M);
      Queue.push_back(std::move(P));
    }
    Cv.notify_one();
  }

  /// No more pushes: waits until every reply is written and returns how
  /// many were. Rethrows what stopped the writer, if anything did.
  int64_t finish() {
    close();
    if (Failure)
      std::rethrow_exception(Failure);
    return Answered;
  }

private:
  void close() {
    {
      std::lock_guard<std::mutex> Lock(M);
      Closed = true;
    }
    Cv.notify_one();
    if (Thread.joinable())
      Thread.join();
  }

  void run() {
    // The drain signals must interrupt the input loop's read(), never
    // this thread's writes.
    sigset_t Drain;
    sigemptyset(&Drain);
    sigaddset(&Drain, SIGINT);
    sigaddset(&Drain, SIGTERM);
    pthread_sigmask(SIG_BLOCK, &Drain, nullptr);
    try {
      for (;;) {
        Pending P;
        {
          std::unique_lock<std::mutex> Lock(M);
          Cv.wait(Lock, [&] { return Closed || !Queue.empty(); });
          if (Queue.empty())
            break;
          P = std::move(Queue.front());
          Queue.pop_front();
        }
        serve::Reply Rep =
            P.Immediate ? std::move(*P.Immediate) : P.F.get();
        ++Answered;
        std::fputs((serve::toJson(Rep).dumpLine() + "\n").c_str(), stdout);
        std::fflush(stdout);
        if (Telemetry.is_open())
          Telemetry << serve::telemetryJson(Rep).dumpLine() << "\n";
      }
      if (Telemetry.is_open())
        Telemetry.flush();
    } catch (...) {
      // Forwarded by finish() to the top-level barrier (exit 4).
      Failure = std::current_exception();
    }
  }

  std::ofstream &Telemetry;
  /// Guards Queue and Closed.
  std::mutex M;
  std::condition_variable Cv;
  std::deque<Pending> Queue;
  bool Closed = false;
  /// Written by the writer thread only; read after it is joined.
  int64_t Answered = 0;
  std::exception_ptr Failure;
  /// Last: starts once every member above is initialized.
  std::thread Thread;
};

int realMain(int Argc, char **Argv) {
  CliOptions Opts;
  if (!parseArgs(Argc, Argv, Opts))
    return 2;
  if (Opts.TestThrow)
    throw std::runtime_error("--test-throw requested");
  if (Opts.Health)
    return healthCheck(Opts);

  installDrainHandlers();

  std::ofstream Telemetry;
  if (!Opts.TelemetryPath.empty()) {
    Telemetry.open(Opts.TelemetryPath, std::ios::app);
    if (!Telemetry) {
      std::fprintf(stderr, "flattend: cannot open '%s'\n",
                   Opts.TelemetryPath.c_str());
      return 2;
    }
  }

  serve::Server Server(Opts.Server);

  // Submit every line as it arrives (so the admission queue sees real
  // pressure) and hand its future to the writer in submission order;
  // bad JSON never reaches the server and is answered inline.
  ReplyWriter Writer(Telemetry);
  int64_t Lines = 0;
  int64_t BadLines = 0;
  LineReader Reader;
  LineReader::Line Line;
  uint64_t LineNo = 0;
  while (Reader.next(Line)) {
    ++LineNo;
    if (Line.IoError) {
      // A read error can leave a partial record: it still gets a
      // structured per-request reply - silently dropping it would
      // desync a caller matching replies to requests by line, and
      // miscounting it would trip the exit-5 self-check below.
      ++BadLines;
      serve::Reply Rep;
      Rep.Id = LineNo;
      Rep.Out = serve::Outcome::CompileError;
      Rep.Error = "request line " + std::to_string(LineNo) +
                  " truncated by a stream I/O error after " +
                  std::to_string(Line.Text.size()) + " bytes";
      ReplyWriter::Pending P;
      P.Immediate = std::move(Rep);
      Writer.push(std::move(P));
      ++Lines;
      continue;
    }
    if (Line.Text.find_first_not_of(" \t\r") == std::string::npos) {
      --LineNo; // blank lines are skipped and unnumbered, as before
      continue;
    }
    // An unterminated final line may have been cut off mid-write (EOF
    // mid-record). If it still parses as a complete request it is
    // accepted; if not, the reply says "truncated", not "bad JSON".
    auto Parsed = json::Value::parse(Line.Text);
    ReplyWriter::Pending P;
    if (!Parsed) {
      ++BadLines;
      serve::Reply Rep;
      Rep.Id = LineNo;
      Rep.Out = serve::Outcome::CompileError;
      Rep.Error =
          Line.Unterminated
              ? "request line " + std::to_string(LineNo) +
                    " truncated (EOF mid-record): " +
                    Parsed.error().render()
              : "request line " + std::to_string(LineNo) +
                    " is not valid JSON: " + Parsed.error().render();
      P.Immediate = std::move(Rep);
    } else {
      auto Req = serve::parseRequest(*Parsed);
      if (!Req) {
        ++BadLines;
        serve::Reply Rep;
        Rep.Id = LineNo;
        Rep.Out = serve::Outcome::CompileError;
        Rep.Error =
            "request line " + std::to_string(LineNo) + ": " + Req.error();
        P.Immediate = std::move(Rep);
      } else {
        P.F = Server.submit(std::move(*Req));
      }
    }
    Writer.push(std::move(P));
    ++Lines;
  }

  // Graceful drain on SIGINT/SIGTERM: admission closes, everything
  // already admitted finishes (queued requests still unpicked at the
  // hard deadline shed with the draining status), and every future the
  // writer still holds is ready once drain() returns.
  bool Drained = false;
  bool DrainClean = true;
  if (GSignal) {
    Drained = true;
    DrainClean = Server.drain(Opts.DrainDeadlineMs);
  }
  int64_t Answered = Writer.finish();

  // Summary + self-check: the four outcome buckets must partition the
  // submitted count (globally and per tenant), and every input line
  // must have been answered.
  serve::ServerStats Stats = Server.stats();
  json::Value Summary = json::Value::object();
  Summary.set("summary", true);
  Summary.set("engine", interp::engineName(Opts.Server.Eng));
  Summary.set("adaptive", Opts.Server.Adaptive);
  Summary.set("lines", Lines);
  Summary.set("bad_lines", BadLines);
  Summary.set("answered", Answered);
  Summary.set("drained", Drained);
  if (Drained)
    Summary.set("drain_clean", DrainClean);
  Summary.set("stats", serve::toJson(Stats));
  std::fputs((Summary.dumpLine() + "\n").c_str(), stdout);
  std::fflush(stdout);

  bool Consistent = Stats.consistent() && Stats.tenantsConsistent() &&
                    Answered == Lines && Stats.Submitted + BadLines == Lines;
  if (!Consistent) {
    std::fprintf(stderr, "flattend: accounting inconsistency: %s\n",
                 serve::toJson(Stats).dumpLine().c_str());
    return 5;
  }
  return 0;
}

} // namespace

int main(int Argc, char **Argv) {
  // Top-level exception barrier: an escaped exception is a structured
  // one-line diagnostic and a distinct exit code, never std::terminate.
  try {
    return realMain(Argc, Argv);
  } catch (const std::exception &E) {
    std::fprintf(stderr, "flattend: internal error: %s\n", E.what());
    return 4;
  } catch (...) {
    std::fprintf(stderr, "flattend: internal error: unknown exception\n");
    return 4;
  }
}
