//===- bench/pipeline/bench_pipeline.cpp - Whole-pipeline bench -*- C++ -*-===//
///
/// \file
/// The repository's benchmark.  One process runs one workload through the
/// whole path the paper's numbers travel — sampled engine runs (or a pool
/// of ready shards), encode, PUSH_BATCH over shm or tcp, a relay, a root
/// that journals with fsync, and PULL — checks the result against a serial
/// reference fold, and prints its metrics as one JSON line on stdout.
///
///   bench_pipeline --workload=<fleet-sampled|ingest-small|ingest-wide>
///                  --seed=<n> [--seconds=<s>] [--workdir=<dir>]
///                  [--trace=<file>] [--smoke]
///
/// Without --trace the line holds the end-to-end metrics.  With --trace
/// the workload runs twice — untraced, then with a span around every call
/// into the system — and the line holds the per-layer metrics derived
/// from the spans, plus the tracing overhead between the two runs.  The
/// Chrome trace-event JSON of the traced run goes to the --trace file.
/// --smoke shrinks every workload to about a second on the same code path.
///
/// The bench reaches the system only through public calls:
/// harness::buildProgram / instrumentProgram / runInstrumented,
/// profstore::encodeBundle, ProfileClient::pushBatch / pull, and
/// ProfileServer::flushUpstream / stats (plus server and client set-up).
///
/// Exit status: 0 when every oracle held, 1 when one broke (the JSON line
/// then says "correct": false), 2 on a usage or set-up error.  README.md
/// describes the workloads and defines every metric.
///
//===----------------------------------------------------------------------===//

#include "Measure.h"
#include "Trace.h"

#include "harness/Experiment.h"
#include "harness/Pipeline.h"
#include "instr/Clients.h"
#include "profile/Overlap.h"
#include "profserve/Client.h"
#include "profserve/Server.h"
#include "profstore/ProfileIO.h"
#include "profstore/ProfileStore.h"
#include "shmem/ShmRing.h"
#include "support/Support.h"
#include "telemetry/Json.h"
#include "workloads/Workloads.h"

#include <sys/vfs.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <condition_variable>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <thread>
#include <utility>
#include <vector>

using namespace ars;
using pipeline::ScopedSpan;
using pipeline::TraceLog;
using pipeline::Tracer;

namespace {

namespace fs = std::filesystem;

//===----------------------------------------------------------------------===//
// Clock, limits and workload shapes
//===----------------------------------------------------------------------===//

const std::chrono::steady_clock::time_point Epoch =
    std::chrono::steady_clock::now();

int64_t nowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now() - Epoch)
      .count();
}

/// Sleeps until shortly before \p T, then yields until it, so a scheduled
/// operation starts on time rather than when a timer wake-up lands: the
/// latency measured from its due time is then the system's, not the
/// bench thread's (on a sub-millisecond PULL the wake-up was a fifth).
void waitUntilNs(int64_t T) {
  constexpr int64_t SpinNs = 500000;
  if (T - nowNs() > SpinNs)
    std::this_thread::sleep_until(Epoch + std::chrono::nanoseconds(T - SpinNs));
  while (nowNs() < T)
    std::this_thread::yield();
}

double msOf(int64_t Ns) { return static_cast<double>(Ns) / 1e6; }

constexpr int64_t NsPerS = 1000000000;

/// An operation slower than its limit counts as failed.
constexpr double AckLimitMs = 1000.0;
constexpr double VisibleLimitMs = 2000.0;
constexpr double PullLimitMs = 2000.0;

/// ingest-wide's reader PULLs from the root on this schedule, so a merge
/// change that slows reads shows.
constexpr int64_t PullPeriodNs = NsPerS / 10;

/// fleet-sampled runs javac at these scales.  The run count is fixed per
/// --seconds rather than time-bounded, so a seed's sim metrics (overhead,
/// overlaps, shard bytes) are exact; the rate is set so the runs take
/// about --seconds on a 4-core x86-64 host.
constexpr int64_t FleetScales[] = {24, 48, 72};
constexpr double FleetRunsPerSecond = 10.0;

/// ingest-small's closed loop is a fixed number of batches per producer
/// for the same reason, and because the root's exactly-once ledger grows
/// with every shard applied: a time-bounded loop made peak RSS follow
/// throughput.
constexpr double IngestSmallBatchesPerSecond = 2400.0;

/// Every workload drives the system from two producer threads, each with
/// its own connection (the host has four cores).
constexpr int NumProducers = 2;

/// The relay's upstream session, and the first producer session id.
constexpr uint64_t RelaySession = 0x5E1A7ULL;
constexpr uint64_t ProducerSessionBase = 0xB0000ULL;

enum class WorkloadKind { FleetSampled, IngestSmall, IngestWide };

struct Shape {
  WorkloadKind Kind = WorkloadKind::FleetSampled;
  bool ViaRelay = false; ///< producers -> shm -> relay -> tcp -> root
  int RootWorkers = 1;
  bool Reader = false; ///< a thread PULLs from the root on a schedule
  /// Set-ups per run: inputs made through the system, then the topology.
  int SetupReps = 5;
  /// The bench's flusher calls flushUpstream once this many shards were
  /// acked since the last flush began.
  uint64_t FlushEveryShards = 1;
  int64_t WarmupNs = 0; ///< open loop: warm-up, then the measured window
  int64_t WindowNs = 0;
  size_t WarmupBatches = 0; ///< closed ingest loop, per producer
  size_t MeasuredBatches = 0;
  size_t FleetRuns = 0;
  int64_t ScaleDivisor = 1; ///< --smoke shrinks the engine runs' scales
  size_t ShardsPerBatch = 1;
  double OfferedShardsPerS = 0.0; ///< 0 = closed loop
};

bool shapeFor(const std::string &Name, double Seconds, bool Smoke,
              Shape *Out) {
  Shape S;
  // --smoke: one second measured after a fifth of a second of warm-up.
  if (Smoke) {
    Seconds = 1.0;
    S.SetupReps = 1;
  }
  const double WarmupS = Smoke ? 0.2 : 2.0;
  if (Name == "fleet-sampled") {
    S.Kind = WorkloadKind::FleetSampled;
    S.ViaRelay = true;
    S.FleetRuns =
        static_cast<size_t>(std::llround(Seconds * FleetRunsPerSecond));
    S.ScaleDivisor = Smoke ? 12 : 1;
  } else if (Name == "ingest-small") {
    S.Kind = WorkloadKind::IngestSmall;
    S.RootWorkers = 2;
    S.ScaleDivisor = Smoke ? 8 : 1;
    S.WarmupBatches =
        static_cast<size_t>(WarmupS * IngestSmallBatchesPerSecond);
    S.MeasuredBatches =
        static_cast<size_t>(Seconds * IngestSmallBatchesPerSecond);
    S.ShardsPerBatch = 8;
  } else if (Name == "ingest-wide") {
    S.Kind = WorkloadKind::IngestWide;
    S.ViaRelay = true;
    // A PULL of the ~50k-key aggregate holds a reactor for tens of ms;
    // on a single reactor every flush behind it waits, and the flush
    // cycle phase-locks to the read schedule (visible p50 swung 90-140 ms
    // between runs).  Reactors are assigned round-robin, so the reader
    // (connected at set-up) and the relay (first flush) get one each.
    S.RootWorkers = 2;
    S.Reader = true;
    // Flushing back-to-back fed back on itself: a slow flush carried more
    // shards, which made the next one slower (flush p50 swung 4-15 ms).
    // Waiting for 24 shards, ~24 ms at the offered rate, fixes the
    // delta size while a flush still takes well under the interval.
    S.FlushEveryShards = 24;
    S.WarmupNs = static_cast<int64_t>(WarmupS * NsPerS);
    S.WindowNs = static_cast<int64_t>(Seconds * NsPerS);
    S.ShardsPerBatch = 4;
    S.OfferedShardsPerS = 1000.0;
  } else {
    return false;
  }
  *Out = S;
  return true;
}

//===----------------------------------------------------------------------===//
// Inputs: everything made from the seed before any timing starts
//===----------------------------------------------------------------------===//

struct RunSpec {
  int64_t Scale = 0;
  uint64_t JitterSeed = 0;
};

/// What a deployed fleet run at one scale must reproduce.
struct Reference {
  int64_t MainResult = 0;
  uint64_t BaselineCycles = 0;
  profile::ProfileBundle Perfect; ///< exhaustive call-edge + field-access
};

/// What the system receives, made from the seed during set-up.
struct Inputs {
  uint64_t Fingerprint = 0;
  // fleet-sampled: the compiled program and the deployed runs
  harness::Program Program;
  std::vector<RunSpec> Plan;
  // ingest workloads: encoded shards, and per producer the pool indices
  // of each batch it cycles through
  std::vector<std::string> Pool;
  std::vector<std::vector<std::vector<uint32_t>>> BatchPlan;
};

/// fleet-sampled's oracle data, per scale; made once, outside set-up.
using References = std::map<int64_t, Reference>;

const instr::CallEdgeInstrumentation CallEdgeClient;
const instr::FieldAccessInstrumentation FieldAccessClient;
const instr::BlockCountInstrumentation BlockCountClient;
const instr::ValueProfileInstrumentation ValueClient;
const instr::EdgeCountInstrumentation EdgeCountClient;
const instr::PathProfileInstrumentation PathClient;

/// The deployed configuration: Full-Duplication, counter trigger,
/// interval 1000 with 25% jitter, the paper's two clients.
harness::RunConfig fleetConfig() {
  harness::RunConfig C;
  C.Transform.M = sampling::Mode::FullDuplication;
  C.Engine.Trigger = runtime::TriggerKind::Counter;
  C.Engine.SampleInterval = 1000;
  C.Engine.RandomJitterPct = 25;
  C.Clients = {&CallEdgeClient, &FieldAccessClient};
  return C;
}

harness::ExperimentResult runOnce(const harness::Program &P, int64_t Scale,
                                  const harness::RunConfig &C) {
  harness::InstrumentedProgram IP =
      harness::instrumentProgram(P, C.Clients, C.Transform);
  return harness::runInstrumented(P, IP, Scale, C);
}

bool compile(const char *Name, harness::Program *Out, std::string *Error,
             TraceLog *Log) {
  const workloads::Workload *W = workloads::workloadByName(Name);
  ScopedSpan Span(Log, "frontend.compile");
  harness::BuildResult B = harness::buildProgram(W->Source);
  if (!B.Ok) {
    *Error = std::string(Name) + " does not compile: " + B.Error;
    return false;
  }
  *Out = std::move(B.P);
  return true;
}

/// Batch plans: per producer, 64 batches of \p PerBatch pool indices.
std::vector<std::vector<std::vector<uint32_t>>>
planBatches(uint64_t Seed, size_t PerBatch, size_t PoolSize) {
  std::vector<std::vector<std::vector<uint32_t>>> Plan(NumProducers);
  for (int P = 0; P != NumProducers; ++P) {
    support::Xorshift64 Rng(Seed * 0x100000001B3ULL + 0xBA7C0 + P);
    for (int B = 0; B != 64; ++B) {
      std::vector<uint32_t> Batch;
      for (size_t I = 0; I != PerBatch; ++I)
        Batch.push_back(static_cast<uint32_t>(Rng.nextBelow(PoolSize)));
      Plan[P].push_back(std::move(Batch));
    }
  }
  return Plan;
}

bool makeInputs(const Shape &S, uint64_t Seed, Inputs *In,
                std::string *Error, TraceLog *Log) {
  support::Xorshift64 Rng(Seed * 0x9E3779B97F4A7C15ULL + 1);
  switch (S.Kind) {
  case WorkloadKind::FleetSampled: {
    if (!compile("javac", &In->Program, Error, Log))
      return false;
    In->Fingerprint = harness::programHash(In->Program);
    // Equal thirds per scale in a seeded order: every seed does the same
    // engine work, so throughput does not swing with the scale mix.
    for (size_t I = 0; I != S.FleetRuns; ++I) {
      RunSpec R;
      R.Scale = std::max<int64_t>(1, FleetScales[I % 3] / S.ScaleDivisor);
      R.JitterSeed = Rng.next();
      In->Plan.push_back(R);
    }
    for (size_t I = In->Plan.size(); I > 1; --I)
      std::swap(In->Plan[I - 1], In->Plan[Rng.nextBelow(I)]);
    return true;
  }
  case WorkloadKind::IngestSmall: {
    // Eight real exhaustive six-kind jack shards, scales 2, 4, ..., 16, so
    // every seed's pool is the same work; the seed draws the batches.
    harness::Program P;
    if (!compile("jack", &P, Error, Log))
      return false;
    In->Fingerprint = harness::programHash(P);
    harness::RunConfig C;
    C.Transform.M = sampling::Mode::Exhaustive;
    C.Clients = {&CallEdgeClient, &FieldAccessClient, &BlockCountClient,
                 &ValueClient,    &EdgeCountClient,   &PathClient};
    for (int I = 0; I != 8; ++I) {
      harness::ExperimentResult R =
          runOnce(P, std::max(1, (2 + 2 * I) / int(S.ScaleDivisor)), C);
      if (!R.Stats.Ok) {
        *Error = "jack pool run failed: " + R.Stats.Error;
        return false;
      }
      In->Pool.push_back(profstore::encodeBundle(R.Profiles, In->Fingerprint));
    }
    break;
  }
  case WorkloadKind::IngestWide:
    In->Fingerprint = 0x5157A11DE0ULL;
    In->Pool = pipeline::zipfPool(Seed, pipeline::ZipfPoolSpec(),
                                  In->Fingerprint);
    break;
  }
  In->BatchPlan =
      planBatches(Seed, S.ShardsPerBatch, In->Pool.size());
  return true;
}

/// Baseline and perfect (exhaustive) javac runs at every planned scale.
bool makeReferences(const Inputs &In, References *Out, std::string *Error) {
  harness::RunConfig Baseline;
  harness::RunConfig Perfect = fleetConfig();
  Perfect.Transform.M = sampling::Mode::Exhaustive;
  for (const RunSpec &R : In.Plan) {
    if (Out->count(R.Scale))
      continue;
    harness::ExperimentResult B = runOnce(In.Program, R.Scale, Baseline);
    harness::ExperimentResult E = runOnce(In.Program, R.Scale, Perfect);
    if (!B.Stats.Ok || !E.Stats.Ok) {
      *Error = "javac reference run failed: " + B.Stats.Error + E.Stats.Error;
      return false;
    }
    Reference &Ref = (*Out)[R.Scale];
    Ref.MainResult = B.Stats.MainResult;
    Ref.BaselineCycles = B.Stats.Cycles;
    Ref.Perfect = std::move(E.Profiles);
  }
  return true;
}

//===----------------------------------------------------------------------===//
// Topology: the journaled root, the optional relay, and the bench's clients
//===----------------------------------------------------------------------===//

struct Topology {
  std::unique_ptr<profserve::ProfileServer> Root;
  std::unique_ptr<profserve::ProfileServer> Relay;
  std::vector<std::unique_ptr<profserve::ProfileClient>> Producers;
  std::unique_ptr<profserve::ProfileClient> Reader;

  Topology() = default;
  /// Clients first (BYE), then the relay (its final flush needs the
  /// root), then the root.
  ~Topology() {
    Producers.clear();
    Reader.reset();
    if (Relay)
      Relay->stop();
    if (Root)
      Root->stop();
  }
  Topology(const Topology &) = delete;
  Topology &operator=(const Topology &) = delete;
};

std::unique_ptr<Topology> setUp(const Shape &S, const std::string &Dir,
                                uint64_t Fingerprint, std::string *Error) {
  auto T = std::make_unique<Topology>();
  std::error_code Ec;
  fs::create_directories(Dir, Ec);
  std::unique_ptr<profserve::TcpListener> Tcp =
      profserve::listenTcp(0, Error);
  if (!Tcp)
    return nullptr;
  const uint16_t Port = Tcp->port();
  profserve::ServerConfig RootC;
  RootC.Fingerprint = Fingerprint;
  RootC.Workers = S.RootWorkers;
  RootC.JournalPath = Dir + "/root.arsj";
  RootC.JournalFsync = true;
  T->Root = std::make_unique<profserve::ProfileServer>(std::move(Tcp), RootC);
  T->Root->start();
  if (T->Root->stats().JournalFailures) {
    *Error = "root journal failed to open under " + Dir;
    return nullptr;
  }
  profserve::Dialer RootDial = profserve::tcpDialer("127.0.0.1", Port, 5000);
  profserve::Dialer ProducerDial = RootDial;
  if (S.ViaRelay) {
    const std::string ShmDir = Dir + "/shm";
    std::unique_ptr<shmem::ShmListener> Shm = shmem::listenShm(ShmDir, Error);
    if (!Shm)
      return nullptr;
    profserve::ServerConfig RelayC;
    RelayC.Fingerprint = Fingerprint;
    RelayC.Workers = 1;
    RelayC.Relay.Dial = RootDial;
    RelayC.Relay.Client.Fingerprint = Fingerprint;
    RelayC.Relay.Client.SessionId = RelaySession;
    RelayC.Relay.Client.SpillPath = Dir + "/relay.spill";
    T->Relay =
        std::make_unique<profserve::ProfileServer>(std::move(Shm), RelayC);
    T->Relay->start();
    ProducerDial = shmem::shmDialer(ShmDir);
  }
  for (int P = 0; P != NumProducers; ++P) {
    profserve::ClientConfig C;
    C.Fingerprint = Fingerprint;
    C.SessionId = ProducerSessionBase + static_cast<uint64_t>(P) + 1;
    C.SpillPath = Dir + "/producer-" + std::to_string(P) + ".spill";
    C.Name = "bench-producer";
    T->Producers.push_back(
        std::make_unique<profserve::ProfileClient>(ProducerDial, C));
  }
  profserve::ClientConfig ReaderC;
  ReaderC.Fingerprint = Fingerprint;
  ReaderC.Name = "bench-reader";
  T->Reader = std::make_unique<profserve::ProfileClient>(RootDial, ReaderC);
  // Without a reader thread the reader only makes the final oracle PULL;
  // connected now, it would idle past the root's read deadline and be
  // reaped, which the root counts as a reject.
  profserve::ClientResult R = S.Reader ? T->Reader->connect()
                                       : profserve::ClientResult{true, ""};
  for (size_t P = 0; R.Ok && P != T->Producers.size(); ++P)
    R = T->Producers[P]->connect();
  if (!R.Ok) {
    *Error = "a bench client cannot connect: " + R.Error;
    return nullptr;
  }
  return T;
}

//===----------------------------------------------------------------------===//
// One pass: set up, drive, check, and keep the raw records
//===----------------------------------------------------------------------===//

struct BatchRecord {
  int64_t FromNs = 0; ///< latencies start here: shard creation, or due time
  int64_t AckNs = 0;
  uint32_t Shards = 0;
  bool Ok = false;
  bool Measured = false; ///< past the warm-up
};

struct FlushRecord {
  int64_t BeginNs = 0;
  int64_t EndNs = 0;
  bool Ok = false;
};

struct PullRecord {
  int64_t DueNs = 0;
  int64_t EndNs = 0;
  size_t Bytes = 0;
  bool Ok = false;
};

/// One deployed fleet run.
struct RunRecord {
  int64_t Scale = 0;
  bool Ok = false;
  std::string Error;
  int64_t MainResult = 0;
  uint64_t Cycles = 0;
  uint64_t Instructions = 0;
  uint64_t Checks = 0;
  uint64_t Samples = 0;
  int CodeBefore = 0;
  int CodeAfter = 0;
  std::string Shard;
  BatchRecord Batch;
};

/// The deterministic results of a fleet-sampled seed.
struct SimMetrics {
  double OverheadPct = 0.0;
  double CallEdgeOverlapPct = 0.0;
  double FieldAccessOverlapPct = 0.0;
  double CyclesPerRun = 0.0;
  double ChecksPerRun = 0.0;
  double SamplesPerCheck = 0.0;
  double CodeGrowthPct = 0.0;
  double ShardBytes = 0.0;

  bool operator==(const SimMetrics &) const = default;
};

struct Pass {
  std::vector<std::string> Broken; ///< oracle failures
  std::vector<double> SetupS;
  int64_t WindowBeginNs = 0;
  int64_t WindowEndNs = 0;
  std::vector<BatchRecord> Batches; ///< every producer's, warm-up included
  std::vector<FlushRecord> Flushes;
  std::vector<PullRecord> Pulls;
  std::vector<double> LatenessMs;
  uint64_t BacklogMax = 0;
  uint64_t ShardsAttempted = 0;
  uint64_t RootDriveBytes = 0; ///< root-side bytes, pull requests excluded
  uint64_t RootDriveSyncs = 0; ///< journal fsyncs after set-up
  uint64_t ClientRetries = 0;
  uint64_t Instructions = 0;
  profserve::StatsMsg Root;
  profserve::StatsMsg Relay;
  double SetupRssMb = 0.0; ///< high-water mark when the workload starts
  double PeakRssMb = 0.0;
  double RefDecodeUs = 0.0;
  double RefMergeUs = 0.0;
  double ShardBytes = 0.0;
  SimMetrics Sim; ///< fleet-sampled only; zero elsewhere

  void broke(std::string Why) { Broken.push_back(std::move(Why)); }
};

/// The high-water RSS of this process image (VmHWM).  Not getrusage's
/// ru_maxrss: that keeps the peak of the process that exec'd the bench,
/// and run.py's Python interpreter, ~14 MiB, hid the fleet's ~7 MiB.
double peakRssMb() {
  std::ifstream Status("/proc/self/status");
  for (std::string Line; std::getline(Status, Line);)
    if (Line.rfind("VmHWM:", 0) == 0)
      return std::strtod(Line.c_str() + 6, nullptr) / 1024.0; // in kB
  return 0.0;
}

std::string filesystemType(const std::string &Dir) {
  struct statfs F {};
  if (statfs(Dir.c_str(), &F) != 0)
    return "unknown";
  switch (static_cast<unsigned long>(F.f_type)) {
  case 0xEF53:
    return "ext4";
  case 0x01021994:
    return "tmpfs";
  case 0x794C7630:
    return "overlayfs";
  case 0x58465342:
    return "xfs";
  case 0x9123683E:
    return "btrfs";
  default:
    return support::formatString("0x%lx",
                                 static_cast<unsigned long>(F.f_type));
  }
}

/// Bench threads that run beside the producers: the relay flusher and the
/// root reader.  Both stop when asked and are joined in stop().
class Background {
public:
  Background(Topology &T, Tracer *Tr, uint64_t FlushEvery, int64_t StartNs)
      : T(T), Tr(Tr), FlushEvery(FlushEvery), StartNs(StartNs) {}
  ~Background() { stop(); }
  Background(const Background &) = delete;
  Background &operator=(const Background &) = delete;

  void start(bool WithReader) {
    if (T.Relay)
      Flusher = std::thread([this] { flusherLoop(); });
    if (WithReader)
      Reader = std::thread([this] { readerLoop(); });
  }

  /// Producers report every acked batch here.
  void acked(uint64_t Shards) {
    {
      std::lock_guard<std::mutex> Lock(Mu);
      Acked += Shards;
    }
    Cv.notify_one();
  }

  void stop() {
    {
      std::lock_guard<std::mutex> Lock(Mu);
      Stop = true;
    }
    Cv.notify_one();
    if (Flusher.joinable())
      Flusher.join();
    if (Reader.joinable())
      Reader.join();
  }

  /// One flush on the caller's thread; recorded like the flusher's.
  void flushNow(TraceLog *Log) { Flushes.push_back(flushOnce(Log)); }

  std::vector<FlushRecord> Flushes; ///< read after stop()
  std::vector<PullRecord> Pulls;    ///< read after stop()

private:
  FlushRecord flushOnce(TraceLog *Log) {
    FlushRecord F;
    F.BeginNs = nowNs();
    {
      ScopedSpan S(Log, "profserve.relay_flush");
      std::string Error;
      F.Ok = T.Relay->flushUpstream(&Error);
    }
    F.EndNs = nowNs();
    return F;
  }

  /// Flushes as soon as FlushEvery shards were acked since the last flush
  /// began.
  void flusherLoop() {
    TraceLog *Log = Tr ? &Tr->log("flusher") : nullptr;
    uint64_t Seen = 0;
    std::unique_lock<std::mutex> Lock(Mu);
    while (true) {
      Cv.wait(Lock, [&] { return Stop || Acked - Seen >= FlushEvery; });
      if (Stop)
        return;
      Seen = Acked;
      Lock.unlock();
      Flushes.push_back(flushOnce(Log));
      Lock.lock();
    }
  }

  bool stopping() {
    std::lock_guard<std::mutex> Lock(Mu);
    return Stop;
  }

  /// PULLs on a fixed schedule; latency counts from the due time.
  void readerLoop() {
    TraceLog *Log = Tr ? &Tr->log("reader") : nullptr;
    for (int64_t K = 0;; ++K) {
      const int64_t Due = StartNs + K * PullPeriodNs;
      waitUntilNs(Due);
      if (stopping())
        return;
      PullRecord P;
      P.DueNs = Due;
      {
        ScopedSpan S(Log, "profserve.pull");
        profserve::ProfileClient::PullResult R = T.Reader->pull();
        P.Ok = R.Ok;
        P.Bytes = R.RawBytes.size();
      }
      P.EndNs = nowNs();
      Pulls.push_back(P);
    }
  }

  Topology &T;
  Tracer *Tr;
  const uint64_t FlushEvery;
  const int64_t StartNs;
  std::mutex Mu; ///< guards Acked and Stop
  std::condition_variable Cv;
  uint64_t Acked = 0; ///< shards acked so far
  bool Stop = false;
  std::thread Flusher;
  std::thread Reader;
};

/// The fleet: each producer takes the next planned run, instruments and
/// runs javac, encodes the profile and pushes it as a batch of one.
void driveFleet(Topology &T, const Inputs &In, Tracer *Tr, Background &Bg,
                std::vector<RunRecord> &Runs) {
  const harness::Program &P = In.Program;
  Runs.assign(In.Plan.size(), RunRecord());
  std::atomic<size_t> Next{0};
  const harness::RunConfig Base = fleetConfig();
  std::vector<std::thread> Threads;
  for (size_t I = 0; I != T.Producers.size(); ++I)
    Threads.emplace_back([&, I] {
      TraceLog *Log = Tr ? &Tr->log("producer-" + std::to_string(I)) : nullptr;
      profserve::ProfileClient &Client = *T.Producers[I];
      for (size_t K; (K = Next.fetch_add(1)) < In.Plan.size();) {
        RunRecord &Rec = Runs[K];
        Rec.Scale = In.Plan[K].Scale;
        harness::RunConfig C = Base;
        C.Engine.RandomSeed = In.Plan[K].JitterSeed;
        ScopedSpan Op(Log, "fleet.run");
        harness::InstrumentedProgram IP;
        {
          ScopedSpan S(Log, "sampling.transform", Op);
          IP = harness::instrumentProgram(P, C.Clients, C.Transform);
        }
        harness::ExperimentResult R;
        {
          ScopedSpan S(Log, "runtime.run", Op);
          R = harness::runInstrumented(P, IP, Rec.Scale, C);
        }
        {
          ScopedSpan S(Log, "profstore.encode", Op);
          Rec.Shard = profstore::encodeBundle(R.Profiles, In.Fingerprint);
        }
        Rec.Batch.FromNs = nowNs();
        {
          ScopedSpan S(Log, "profserve.push_batch", Op);
          Rec.Batch.Ok = Client.pushBatch({Rec.Shard}).Ok;
        }
        Rec.Batch.AckNs = nowNs();
        Rec.Batch.Shards = 1;
        Rec.Batch.Measured = true;
        Bg.acked(1);
        Rec.Ok = R.Stats.Ok;
        Rec.Error = R.Stats.Error;
        Rec.MainResult = R.Stats.MainResult;
        Rec.Cycles = R.Stats.Cycles;
        Rec.Instructions = R.Stats.Instructions;
        Rec.Checks = R.checksExecuted();
        Rec.Samples = R.samplesTaken();
        Rec.CodeBefore = IP.CodeSizeBefore;
        Rec.CodeAfter = IP.CodeSizeAfter;
      }
    });
  for (std::thread &Th : Threads)
    Th.join();
}

/// The ingest producers: back-to-back batches (closed loop), or batches
/// due on a fixed schedule split across the producers (open loop).
/// Returns per producer its records and how often it sent each batch.
void driveIngest(Topology &T, const Shape &S, const Inputs &In, Tracer *Tr,
                 Background &Bg, int64_t StartNs,
                 std::vector<std::vector<BatchRecord>> &Records,
                 std::vector<std::vector<uint64_t>> &SentPerBatch,
                 std::vector<double> &LatenessMs, uint64_t &BacklogMax) {
  const size_t N = T.Producers.size();
  Records.assign(N, {});
  SentPerBatch.assign(N, std::vector<uint64_t>(64, 0));
  std::vector<std::vector<double>> Lateness(N);
  std::vector<uint64_t> Backlog(N, 0);
  const bool Open = S.OfferedShardsPerS > 0;
  // Open loop: batch k of producer p is due at Start + (k*N + p) * Gap.
  const int64_t GapNs =
      Open ? static_cast<int64_t>(static_cast<double>(S.ShardsPerBatch) /
                                  S.OfferedShardsPerS * NsPerS)
           : 0;
  const int64_t PeriodNs = GapNs * static_cast<int64_t>(N);
  const int64_t WindowBeginNs = StartNs + S.WarmupNs;
  const int64_t EndNs = WindowBeginNs + S.WindowNs;
  std::vector<std::thread> Threads;
  for (size_t I = 0; I != N; ++I)
    Threads.emplace_back([&, I] {
      TraceLog *Log = Tr ? &Tr->log("producer-" + std::to_string(I)) : nullptr;
      profserve::ProfileClient &Client = *T.Producers[I];
      Records[I].reserve(Open ? static_cast<size_t>(
                                    (EndNs - StartNs) / PeriodNs + 1)
                              : S.WarmupBatches + S.MeasuredBatches);
      std::vector<std::vector<std::string>> Batches;
      for (const std::vector<uint32_t> &B : In.BatchPlan[I]) {
        Batches.emplace_back();
        for (uint32_t Idx : B)
          Batches.back().push_back(In.Pool[Idx]);
      }
      for (uint64_t K = 0;; ++K) {
        BatchRecord Rec;
        if (Open) {
          Rec.FromNs = StartNs + GapNs * static_cast<int64_t>(I) +
                       PeriodNs * static_cast<int64_t>(K);
          if (Rec.FromNs >= EndNs)
            break;
          {
            ScopedSpan Wait(Log, "load.wait");
            waitUntilNs(Rec.FromNs);
          }
          const int64_t LateNs = std::max<int64_t>(0, nowNs() - Rec.FromNs);
          Rec.Measured = Rec.FromNs >= WindowBeginNs;
          if (Rec.Measured)
            Lateness[I].push_back(msOf(LateNs));
          // Batches of this producer already due, this one included.
          Backlog[I] = std::max<uint64_t>(
              Backlog[I], static_cast<uint64_t>(LateNs / PeriodNs + 1));
        } else {
          if (K == S.WarmupBatches + S.MeasuredBatches)
            break;
          Rec.FromNs = nowNs();
          Rec.Measured = K >= S.WarmupBatches;
        }
        const size_t Which = K % Batches.size();
        {
          ScopedSpan Op(Log, "ingest.batch");
          ScopedSpan Push(Log, "profserve.push_batch", Op);
          Rec.Ok = Client.pushBatch(Batches[Which]).Ok;
        }
        Rec.AckNs = nowNs();
        Rec.Shards = static_cast<uint32_t>(Batches[Which].size());
        ++SentPerBatch[I][Which];
        Bg.acked(Rec.Shards);
        Records[I].push_back(Rec);
      }
    });
  for (std::thread &Th : Threads)
    Th.join();
  for (size_t I = 0; I != N; ++I) {
    LatenessMs.insert(LatenessMs.end(), Lateness[I].begin(),
                      Lateness[I].end());
    BacklogMax = std::max(BacklogMax, Backlog[I]);
  }
}

/// Each distinct encoded shard a pass sent, with how often it was sent.
using SentShards = std::vector<std::pair<const std::string *, uint64_t>>;

/// Serial reference: every shard attempted, decoded and folded in turn.
profile::ProfileBundle referenceFold(const SentShards &Shards,
                                     uint64_t Fingerprint, Pass &Out) {
  profile::ProfileBundle Fold;
  int64_t DecodeNs = 0, MergeNs = 0;
  uint64_t Decodes = 0, Merges = 0;
  for (const auto &[Bytes, Count] : Shards) {
    if (Count == 0)
      continue;
    int64_t T0 = nowNs();
    profstore::DecodeResult D = profstore::decodeBundle(*Bytes, Fingerprint);
    int64_t T1 = nowNs();
    DecodeNs += T1 - T0;
    ++Decodes;
    if (!D.Ok) {
      Out.broke("a pushed shard does not decode: " + D.Error);
      continue;
    }
    for (uint64_t K = 0; K != Count; ++K)
      profstore::mergeBundle(Fold, D.Bundle);
    MergeNs += nowNs() - T1;
    Merges += Count;
  }
  Out.RefDecodeUs = Decodes ? static_cast<double>(DecodeNs) / 1e3 /
                                  static_cast<double>(Decodes)
                            : 0.0;
  Out.RefMergeUs = Merges ? static_cast<double>(MergeNs) / 1e3 /
                                static_cast<double>(Merges)
                          : 0.0;
  return Fold;
}

/// Runs one full pass of workload \p S; the tracer (null = untraced)
/// records spans from every bench thread.  fleet-sampled's references are
/// made into \p Refs on the first pass, after its peak RSS was read.
Pass runPass(const Shape &S, uint64_t Seed, References &Refs,
             const std::string &Dir, Tracer *Tr, std::string *Error) {
  Pass Out;
  TraceLog *MainLog = Tr ? &Tr->log("main") : nullptr;

  // Set up SetupReps times and keep the last; the previous topology is
  // torn down untimed before each.  A set-up makes the seed's inputs
  // through the system (compile, engine runs, encode) and brings up the
  // topology; on ingest-small the topology alone is a few fsyncs and
  // connects, whose sub-millisecond cost drifted 40% with the host.
  std::unique_ptr<Topology> T;
  Inputs In;
  for (int R = 0; R != S.SetupReps; ++R) {
    T.reset();
    In = Inputs();
    const int64_t Begin = nowNs();
    if (!makeInputs(S, Seed, &In, Error, MainLog))
      return Out;
    T = setUp(S, Dir + "/setup-" + std::to_string(R), In.Fingerprint, Error);
    if (!T)
      return Out;
    Out.SetupS.push_back(static_cast<double>(nowNs() - Begin) / 1e9);
  }

  const profserve::StatsMsg RootBefore = T->Root->stats();
  Out.SetupRssMb = peakRssMb();
  const int64_t StartNs = nowNs();
  Background Bg(*T, Tr, S.FlushEveryShards, StartNs);
  Bg.start(S.Reader);

  std::vector<RunRecord> Runs;
  std::vector<std::vector<uint64_t>> SentPerBatch;
  if (S.Kind == WorkloadKind::FleetSampled) {
    driveFleet(*T, In, Tr, Bg, Runs);
    for (const RunRecord &R : Runs)
      Out.Batches.push_back(R.Batch);
  } else {
    std::vector<std::vector<BatchRecord>> Records;
    driveIngest(*T, S, In, Tr, Bg, StartNs, Records, SentPerBatch,
                Out.LatenessMs, Out.BacklogMax);
    for (const std::vector<BatchRecord> &R : Records)
      Out.Batches.insert(Out.Batches.end(), R.begin(), R.end());
  }
  Bg.stop();
  Out.PeakRssMb = peakRssMb();
  // The window runs from the first measured batch to its last ack.
  Out.WindowBeginNs = INT64_MAX;
  for (const BatchRecord &B : Out.Batches)
    if (B.Measured) {
      Out.WindowBeginNs = std::min(Out.WindowBeginNs, B.FromNs);
      Out.WindowEndNs = std::max(Out.WindowEndNs, B.AckNs + 1);
    }

  // A failed push spilled its batch under its sequence numbers; replaying
  // lands it exactly once, so the fold below still covers every shard.
  bool AnyFailed = false;
  for (const BatchRecord &B : Out.Batches)
    AnyFailed |= !B.Ok;
  if (AnyFailed)
    for (std::unique_ptr<profserve::ProfileClient> &C : T->Producers) {
      profserve::ClientResult R = C->replaySpill();
      if (!R.Ok)
        Out.broke("spilled shards could not be replayed: " + R.Error);
    }
  if (T->Relay)
    Bg.flushNow(MainLog);
  Out.Flushes = std::move(Bg.Flushes);
  Out.Pulls = std::move(Bg.Pulls);

  {
    ScopedSpan Span(MainLog, "profserve.stats");
    Out.Root = T->Root->stats();
    if (T->Relay)
      Out.Relay = T->Relay->stats();
  }
  // Retries: dials beyond each client's first, and batches the server
  // answered as duplicates.
  auto redials = [](const profserve::ProfileClient &C) {
    return static_cast<uint64_t>(std::max(0, C.dialAttempts() - 1));
  };
  for (const std::unique_ptr<profserve::ProfileClient> &C : T->Producers)
    Out.ClientRetries += redials(*C) + C->duplicateAcks();
  Out.ClientRetries += redials(*T->Reader);
  const uint64_t PullRequestBytes =
      profserve::FrameHeaderSize + profserve::FrameTrailerSize;
  Out.RootDriveBytes = Out.Root.Bytes - RootBefore.Bytes -
                       PullRequestBytes * Out.Pulls.size();
  Out.RootDriveSyncs = Out.Root.JournalSyncs - RootBefore.JournalSyncs;

  // The reference fold over exactly the shards attempted (every one of
  // which is now acked or replayed).
  SentShards Sent;
  uint64_t SentBytes = 0;
  if (S.Kind == WorkloadKind::FleetSampled) {
    for (const RunRecord &R : Runs)
      Sent.push_back({&R.Shard, 1});
  } else {
    std::vector<uint64_t> PerPoolShard(In.Pool.size(), 0);
    for (size_t P = 0; P != SentPerBatch.size(); ++P)
      for (size_t B = 0; B != SentPerBatch[P].size(); ++B)
        for (uint32_t Idx : In.BatchPlan[P][B])
          PerPoolShard[Idx] += SentPerBatch[P][B];
    for (size_t I = 0; I != In.Pool.size(); ++I)
      Sent.push_back({&In.Pool[I], PerPoolShard[I]});
  }
  for (const auto &[Bytes, Count] : Sent) {
    Out.ShardsAttempted += Count;
    SentBytes += Bytes->size() * Count;
  }
  Out.ShardBytes = Out.ShardsAttempted
                       ? static_cast<double>(SentBytes) /
                             static_cast<double>(Out.ShardsAttempted)
                       : 0.0;
  profile::ProfileBundle Fold = referenceFold(Sent, In.Fingerprint, Out);

  // Oracles: merge counts hop by hop, then the root's bytes.
  if (T->Relay) {
    if (Out.Relay.Merges != Out.ShardsAttempted)
      Out.broke(support::formatString(
          "relay merged %llu shards, producers pushed %llu",
          static_cast<unsigned long long>(Out.Relay.Merges),
          static_cast<unsigned long long>(Out.ShardsAttempted)));
    if (Out.Root.Merges != Out.Relay.RelayFlushes)
      Out.broke(support::formatString(
          "root merged %llu shards, relay flushed %llu",
          static_cast<unsigned long long>(Out.Root.Merges),
          static_cast<unsigned long long>(Out.Relay.RelayFlushes)));
  } else if (Out.Root.Merges != Out.ShardsAttempted) {
    Out.broke(support::formatString(
        "root merged %llu shards, producers pushed %llu",
        static_cast<unsigned long long>(Out.Root.Merges),
        static_cast<unsigned long long>(Out.ShardsAttempted)));
  }
  profserve::ProfileClient::PullResult Final = T->Reader->pull();
  if (!Final.Ok)
    Out.broke("final PULL failed: " + Final.Error);
  else if (Final.RawBytes != profstore::encodeBundle(Fold, In.Fingerprint))
    Out.broke("root PULL differs from the serial fold of the pushed shards");

  if (S.Kind == WorkloadKind::FleetSampled) {
    if (!makeReferences(In, &Refs, Error))
      return Out;
    // A deployed run is a pure function of its scale and jitter seed: the
    // smallest one, run again alone, gives the same cycles and shard.
    size_t K = 0;
    for (size_t I = 1; I != Runs.size(); ++I)
      if (Runs[I].Scale < Runs[K].Scale)
        K = I;
    harness::RunConfig Again = fleetConfig();
    Again.Engine.RandomSeed = In.Plan[K].JitterSeed;
    harness::ExperimentResult R = runOnce(In.Program, Runs[K].Scale, Again);
    if (R.Stats.Cycles != Runs[K].Cycles ||
        profstore::encodeBundle(R.Profiles, In.Fingerprint) != Runs[K].Shard)
      Out.broke("a deployed run, repeated alone, gives another result");

    uint64_t Cycles = 0, BaseCycles = 0, Checks = 0, Samples = 0;
    uint64_t CodeBefore = 0, CodeAfter = 0;
    profile::ProfileBundle Perfect;
    for (const RunRecord &R : Runs) {
      const Reference &Ref = Refs.at(R.Scale);
      if (!R.Ok)
        Out.broke("a deployed run failed: " + R.Error);
      else if (R.MainResult != Ref.MainResult)
        Out.broke(support::formatString(
            "javac(%lld) returned %lld under sampling, %lld at baseline",
            static_cast<long long>(R.Scale),
            static_cast<long long>(R.MainResult),
            static_cast<long long>(Ref.MainResult)));
      Cycles += R.Cycles;
      BaseCycles += Ref.BaselineCycles;
      Checks += R.Checks;
      Samples += R.Samples;
      CodeBefore += static_cast<uint64_t>(R.CodeBefore);
      CodeAfter += static_cast<uint64_t>(R.CodeAfter);
      Out.Instructions += R.Instructions;
      profstore::mergeBundle(Perfect, Ref.Perfect);
    }
    const double NRuns = static_cast<double>(Runs.size());
    SimMetrics &M = Out.Sim;
    M.OverheadPct = support::percentOver(static_cast<double>(BaseCycles),
                                         static_cast<double>(Cycles));
    M.CallEdgeOverlapPct =
        profile::overlapPercent(Perfect.CallEdges, Fold.CallEdges);
    M.FieldAccessOverlapPct =
        profile::overlapPercent(Perfect.FieldAccesses, Fold.FieldAccesses);
    M.CyclesPerRun = static_cast<double>(Cycles) / NRuns;
    M.ChecksPerRun = static_cast<double>(Checks) / NRuns;
    M.SamplesPerCheck =
        Checks ? static_cast<double>(Samples) / static_cast<double>(Checks)
               : 0.0;
    M.CodeGrowthPct = support::percentOver(static_cast<double>(CodeBefore),
                                           static_cast<double>(CodeAfter));
    M.ShardBytes = Out.ShardBytes;
  }
  return Out;
}

//===----------------------------------------------------------------------===//
// Metrics
//===----------------------------------------------------------------------===//

struct Metric {
  std::string Name;
  double Value = 0.0;
  std::string Unit;
  std::string Note; ///< stderr only: percentile and sample count
};

std::string describe(const pipeline::Summary &S, const char *What) {
  return support::formatString(
      "p50 of %zu %s; p90 %.4g ms%s", S.N, What, S.P90,
      pipeline::supported(S.N, 90) ? "" : " (FEWER THAN 10 BEYOND IT)");
}

/// Latencies and operation counts of a pass's measured window.
struct WindowStats {
  std::vector<double> AckMs, VisibleMs;
  uint64_t Shards = 0;   ///< acked, from measured batches
  int64_t LastAckNs = 0; ///< the last of those acks
  uint64_t Attempted = 0;
  uint64_t Failed = 0;

  /// Throughput up to the last ack: even the open loop, whose offered
  /// rate is fixed, reads lower when acks fall behind.
  double shardsPerS(const Pass &P) const {
    return LastAckNs > P.WindowBeginNs
               ? static_cast<double>(Shards) * 1e9 /
                     static_cast<double>(LastAckNs - P.WindowBeginNs)
               : 0.0;
  }
};

WindowStats windowStats(const Pass &P, bool ViaRelay) {
  WindowStats W;
  auto inWindow = [&](int64_t T) {
    return T >= P.WindowBeginNs && T < P.WindowEndNs;
  };
  for (const BatchRecord &B : P.Batches) {
    if (!B.Measured)
      continue;
    ++W.Attempted;
    if (!B.Ok) {
      ++W.Failed;
      continue;
    }
    W.Shards += B.Shards;
    W.LastAckNs = std::max(W.LastAckNs, B.AckNs);
    const double Ack = msOf(B.AckNs - B.FromNs);
    W.AckMs.push_back(Ack);
    double Visible = Ack; // a direct push is merged before its ack
    if (ViaRelay) {
      // Visible at the end of the first flush that began after the ack.
      auto It = std::lower_bound(
          P.Flushes.begin(), P.Flushes.end(), B.AckNs,
          [](const FlushRecord &F, int64_t T) { return F.BeginNs < T; });
      while (It != P.Flushes.end() && !It->Ok)
        ++It;
      if (It == P.Flushes.end()) {
        ++W.Failed;
        continue;
      }
      Visible = msOf(It->EndNs - B.FromNs);
    }
    W.VisibleMs.push_back(Visible);
    if (Ack > AckLimitMs || Visible > VisibleLimitMs)
      ++W.Failed;
  }
  for (const PullRecord &Pl : P.Pulls) {
    if (!inWindow(Pl.DueNs))
      continue;
    ++W.Attempted;
    if (!Pl.Ok || msOf(Pl.EndNs - Pl.DueNs) > PullLimitMs)
      ++W.Failed;
  }
  for (const FlushRecord &F : P.Flushes) {
    if (!inWindow(F.BeginNs))
      continue;
    ++W.Attempted;
    W.Failed += F.Ok ? 0 : 1;
  }
  return W;
}

/// The p90s are shown but not reported: on fleet-sampled's ~0.2 ms
/// operations they are host wake-up latency, whose spread across runs
/// (up to 45%) exceeds any usable bound.
std::vector<Metric> endToEnd(const Pass &P, const WindowStats &W) {
  using pipeline::summarize;
  pipeline::Summary Ack = summarize(W.AckMs);
  pipeline::Summary Vis = summarize(W.VisibleMs);
  std::vector<Metric> M;
  M.push_back({"setup_s", pipeline::percentile(P.SetupS, 50), "s",
               support::formatString("median of %zu set-ups",
                                     P.SetupS.size())});
  M.push_back({"shards_per_s", W.shardsPerS(P), "shards/s",
               support::formatString(
                   "%llu shards in %.3f s",
                   static_cast<unsigned long long>(W.Shards),
                   msOf(W.LastAckNs - P.WindowBeginNs) / 1e3)});
  M.push_back({"ack_p50_ms", Ack.P50, "ms", describe(Ack, "batches")});
  M.push_back({"visible_p50_ms", Vis.P50, "ms", describe(Vis, "batches")});
  M.push_back({"wire_bytes_per_shard",
               P.ShardsAttempted ? static_cast<double>(P.RootDriveBytes) /
                                       static_cast<double>(P.ShardsAttempted)
                                 : 0.0,
               "B", "root-side bytes received per shard produced"});
  M.push_back({"peak_rss_mb", P.PeakRssMb, "MiB",
               support::formatString("process high-water mark; %.2f MiB "
                                     "when the workload started",
                                     P.SetupRssMb)});
  return M;
}

/// Per-layer metrics of the traced pass \p P; \p Untraced supplies the
/// throughput the tracing overhead is measured against.
std::vector<Metric> perLayer(const Pass &P, const WindowStats &W,
                             const Pass &Untraced,
                             const WindowStats &UntracedW, const Tracer &Tr,
                             double *CoveragePct) {
  std::vector<pipeline::Span> Spans = Tr.spans();
  std::vector<int64_t> Self = pipeline::selfTimesNs(Spans);
  std::vector<std::string> Threads = Tr.threadNames();
  std::map<std::string, std::vector<double>> DurMs;
  std::map<std::string, double> SelfMs;
  // A producer is busy from its first span to its last, except while the
  // open loop waits for a batch's due time.  Layer spans must cover that
  // busy time; the bench's own work between ops counts against it.
  struct Busy {
    int64_t BeginNs = INT64_MAX, EndNs = 0, WaitNs = 0, LayerNs = 0;
  };
  std::map<uint32_t, Busy> Producers;
  for (size_t I = 0; I != Spans.size(); ++I) {
    const pipeline::Span &Sp = Spans[I];
    const int64_t Ns = Sp.EndNs - Sp.BeginNs;
    DurMs[Sp.Name].push_back(msOf(Ns));
    SelfMs[Sp.Name] += msOf(Self[I]);
    if (Sp.Parent != 0 || Threads[Sp.Tid].rfind("producer-", 0) != 0)
      continue;
    Busy &B = Producers[Sp.Tid];
    B.BeginNs = std::min(B.BeginNs, Sp.BeginNs);
    B.EndNs = std::max(B.EndNs, Sp.EndNs);
    if (std::string_view(Sp.Name) == "load.wait")
      B.WaitNs += Ns;
    else
      B.LayerNs += Ns - Self[I];
  }
  double ProducerBusyMs = 0.0;
  *CoveragePct = Producers.empty() ? 0.0 : 100.0;
  for (const auto &[Tid, B] : Producers) {
    const int64_t BusyNs = B.EndNs - B.BeginNs - B.WaitNs;
    ProducerBusyMs += msOf(BusyNs);
    if (BusyNs > 0)
      *CoveragePct = std::min(*CoveragePct, 100.0 * msOf(B.LayerNs) /
                                                msOf(BusyNs));
  }
  auto pct = [&](const char *Name, unsigned Pct, double Scale) {
    return pipeline::percentile(DurMs[Name], Pct) * Scale;
  };
  auto ratio = [](double A, double B) { return B != 0 ? A / B : 0.0; };
  auto totalMs = [&](const char *Name) {
    double Sum = 0.0;
    for (double D : DurMs[Name])
      Sum += D;
    return Sum;
  };

  uint64_t PushedShards = 0;
  for (const BatchRecord &B : P.Batches)
    PushedShards += B.Shards;
  double PullBytes = 0.0;
  for (const PullRecord &Pl : P.Pulls)
    PullBytes += static_cast<double>(Pl.Bytes);
  // A relay-fed root receives one PUSH per flush; a direct root batches.
  const uint64_t RootPushFrames =
      P.Root.Batches ? P.Root.Batches : P.Root.Merges;
  const double Throughput = W.shardsPerS(P);
  const double UntracedThroughput = UntracedW.shardsPerS(Untraced);
  const SimMetrics &Sim = P.Sim;

  std::vector<Metric> M;
  auto add = [&](const char *Name, double V, const char *Unit) {
    M.push_back({Name, V, Unit, ""});
  };
  add("runtime.run_ms.p50", pct("runtime.run", 50, 1.0), "ms");
  add("runtime.run_ms.p90", pct("runtime.run", 90, 1.0), "ms");
  add("runtime.ir_instr_per_s",
      ratio(static_cast<double>(P.Instructions), totalMs("runtime.run") / 1e3),
      "instr/s");
  add("runtime.share_pct", 100.0 * ratio(SelfMs["runtime.run"], ProducerBusyMs),
      "%");
  add("runtime.sim_cycles_per_run", Sim.CyclesPerRun, "cycles");
  add("runtime.check_execs_per_run", Sim.ChecksPerRun, "count");
  add("runtime.samples_per_check", Sim.SamplesPerCheck, "ratio");
  add("runtime.instr_overhead_pct", Sim.OverheadPct, "%");
  add("profile.call_edge_overlap_pct", Sim.CallEdgeOverlapPct, "%");
  add("profile.field_access_overlap_pct", Sim.FieldAccessOverlapPct, "%");
  add("frontend.compile_ms.p50", pct("frontend.compile", 50, 1.0), "ms");
  add("sampling.transform_ms.p50", pct("sampling.transform", 50, 1.0), "ms");
  add("sampling.code_growth_pct", Sim.CodeGrowthPct, "%");
  add("profstore.encode_us.p50", pct("profstore.encode", 50, 1e3), "us");
  add("profstore.shard_bytes", P.ShardBytes, "B");
  add("profstore.ref_decode_us_per_shard", P.RefDecodeUs, "us");
  add("profstore.ref_merge_us_per_shard", P.RefMergeUs, "us");
  add("profserve.push_batch_us.p50", pct("profserve.push_batch", 50, 1e3),
      "us");
  add("profserve.push_batch_us.p90", pct("profserve.push_batch", 90, 1e3),
      "us");
  add("profserve.server_gap_us_per_shard",
      PushedShards ? 1e3 * totalMs("profserve.push_batch") /
                             static_cast<double>(PushedShards) -
                         P.RefDecodeUs - P.RefMergeUs
                   : 0.0,
      "us");
  add("profserve.relay_flush_ms.p50", pct("profserve.relay_flush", 50, 1.0),
      "ms");
  add("profserve.relay_flush_ms.p90", pct("profserve.relay_flush", 90, 1.0),
      "ms");
  add("profserve.shards_per_flush",
      ratio(static_cast<double>(P.Relay.Merges),
            static_cast<double>(P.Relay.RelayFlushes)),
      "count");
  add("profserve.flush_bytes",
      P.Relay.RelayFlushes ? ratio(static_cast<double>(P.RootDriveBytes),
                                   static_cast<double>(P.Relay.RelayFlushes))
                           : 0.0,
      "B");
  add("profserve.pull_ms.p50", pct("profserve.pull", 50, 1.0), "ms");
  add("profserve.pull_ms.p90", pct("profserve.pull", 90, 1.0), "ms");
  add("profserve.pull_bytes",
      ratio(PullBytes, static_cast<double>(P.Pulls.size())), "B");
  add("root.journal_syncs_per_batch",
      ratio(static_cast<double>(P.RootDriveSyncs),
            static_cast<double>(RootPushFrames)),
      "ratio");
  add("root.bytes_per_frame",
      ratio(static_cast<double>(P.Root.Bytes),
            static_cast<double>(P.Root.Frames)),
      "B");
  add("root.rejects", static_cast<double>(P.Root.Rejects), "count");
  add("root.shed", static_cast<double>(P.Root.Shed), "count");
  add("root.duplicates", static_cast<double>(P.Root.Duplicates), "count");
  add("relay.relay_failures", static_cast<double>(P.Relay.RelayFailures),
      "count");
  add("client.retries", static_cast<double>(P.ClientRetries), "count");
  add("load.lateness_ms.p99", pipeline::percentile(P.LatenessMs, 99), "ms");
  add("load.backlog_max", static_cast<double>(P.BacklogMax), "count");
  add("trace.coverage_pct", *CoveragePct, "%");
  add("trace.overhead_pct",
      100.0 * (ratio(UntracedThroughput, Throughput) - 1.0), "%");
  return M;
}

void printResult(bool Correct, const WindowStats &W,
                 const std::vector<Metric> &Metrics) {
  using telemetry::Json;
  Json Values = Json::object();
  for (const Metric &M : Metrics) {
    Json V = Json::object();
    V.set("value", Json::number(M.Value));
    V.set("unit", Json::str(M.Unit));
    Values.set(M.Name, std::move(V));
  }
  Json Out = Json::object();
  Out.set("correct", Json::boolean(Correct));
  Out.set("attempted", Json::number(static_cast<double>(W.Attempted)));
  Out.set("failed", Json::number(static_cast<double>(W.Failed)));
  Out.set("metrics", std::move(Values));
  std::printf("%s\n", Out.write(0).c_str());
  std::fflush(stdout);
}

void report(const char *Title, const std::vector<Metric> &Metrics) {
  std::fprintf(stderr, "%s\n", Title);
  for (const Metric &M : Metrics)
    std::fprintf(stderr, "  %-36s %14.6g %-9s %s\n", M.Name.c_str(), M.Value,
                 M.Unit.c_str(), M.Note.c_str());
}

//===----------------------------------------------------------------------===//
// Command line
//===----------------------------------------------------------------------===//

struct Options {
  std::string Workload;
  uint64_t Seed = 1;
  double Seconds = 15.0;
  std::string Workdir;
  std::string TracePath;
  bool Smoke = false;
};

bool parseArgs(int Argc, char **Argv, Options *O) {
  for (int I = 1; I != Argc; ++I) {
    std::string A = Argv[I];
    auto value = [&](const char *Key, std::string *Out) {
      std::string Prefix = std::string(Key) + "=";
      if (A.rfind(Prefix, 0) != 0)
        return false;
      *Out = A.substr(Prefix.size());
      return true;
    };
    std::string V;
    if (value("--workload", &O->Workload) || value("--workdir", &O->Workdir) ||
        value("--trace", &O->TracePath))
      continue;
    if (value("--seed", &V)) {
      O->Seed = std::strtoull(V.c_str(), nullptr, 10);
      continue;
    }
    if (value("--seconds", &V)) {
      O->Seconds = std::strtod(V.c_str(), nullptr);
      if (!(O->Seconds >= 1.0 && O->Seconds <= 120.0))
        return false;
      continue;
    }
    if (A == "--smoke") {
      O->Smoke = true;
      continue;
    }
    return false;
  }
  return !O->Workload.empty();
}

} // namespace

int main(int Argc, char **Argv) {
  Options Opt;
  Shape S;
  if (!parseArgs(Argc, Argv, &Opt) ||
      !shapeFor(Opt.Workload, Opt.Seconds, Opt.Smoke, &S)) {
    std::fprintf(stderr,
                 "usage: bench_pipeline --workload=<fleet-sampled|"
                 "ingest-small|ingest-wide> --seed=<n> [--seconds=<1..120>] "
                 "[--workdir=<dir>] [--trace=<file>] [--smoke]\n");
    return 2;
  }
  if (Opt.Workdir.empty())
    Opt.Workdir = "pipeline-work";
  const std::string Dir = Opt.Workdir + "/" + Opt.Workload + "-" +
                          std::to_string(static_cast<long>(::getpid()));
  std::error_code Ec;
  fs::create_directories(Dir, Ec);
  std::fprintf(stderr, "bench_pipeline: %s seed %llu, workdir %s (%s)\n",
               Opt.Workload.c_str(),
               static_cast<unsigned long long>(Opt.Seed), Dir.c_str(),
               filesystemType(Dir).c_str());

  std::string Error;
  auto setUpFailed = [&] {
    std::fprintf(stderr, "bench_pipeline: %s\n", Error.c_str());
    fs::remove_all(Dir, Ec);
    return 2;
  };
  References Refs;
  Pass Plain = runPass(S, Opt.Seed, Refs, Dir + "/untraced", nullptr, &Error);
  if (!Error.empty())
    return setUpFailed();
  fs::remove_all(Dir + "/untraced", Ec);
  WindowStats PlainW = windowStats(Plain, S.ViaRelay);
  std::vector<std::string> Broken = Plain.Broken;

  const char *Title = "end-to-end metrics (untraced run):";
  std::vector<Metric> Metrics;
  WindowStats Shown = PlainW;
  if (Opt.TracePath.empty()) {
    Metrics = endToEnd(Plain, PlainW);
  } else {
    Tracer Tr;
    Pass Traced = runPass(S, Opt.Seed, Refs, Dir + "/traced", &Tr, &Error);
    if (!Error.empty())
      return setUpFailed();
    Broken.insert(Broken.end(), Traced.Broken.begin(), Traced.Broken.end());
    if (!(Plain.Sim == Traced.Sim))
      Broken.push_back("fleet sim metrics differ between two runs of the "
                       "same seed");
    Shown = windowStats(Traced, S.ViaRelay);
    double Coverage = 0.0;
    Metrics = perLayer(Traced, Shown, Plain, PlainW, Tr, &Coverage);
    if (Coverage < 95.0)
      Broken.push_back(support::formatString(
          "layer spans cover only %.2f%% of a producer's busy time", Coverage));
    if (!Tr.writeChromeJson(Opt.TracePath, &Error))
      Broken.push_back(Error);
    Title = "per-layer metrics (traced run):";
  }
  fs::remove_all(Dir, Ec);
  report(Title, Metrics);
  for (const std::string &B : Broken)
    std::fprintf(stderr, "ORACLE BROKEN: %s\n", B.c_str());
  printResult(Broken.empty(), Shown, Metrics);
  return Broken.empty() ? 0 : 1;
}
