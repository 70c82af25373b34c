// Session-scoped runtime tests: tenancy isolation on the shared
// work-stealing pool (bit-identical outputs, per-session metrics,
// traces and regions), admission control, cancellation/teardown
// ordering, the compiled-spec cache, and the two multi-tenant server
// gates (concurrent tenants beat sequential runs; closing a session
// never stalls a neighbour). The churn test (concurrent Program build + submit + cancel
// on a live executor) is a designated ThreadSanitizer workload — label
// "tsan", same build recipe as test_thread_stress.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <deque>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "apps/apps.hpp"
#include "components/components.hpp"
#include "components/sinks.hpp"
#include "hinch/region_table.hpp"
#include "hinch/runtime.hpp"
#include "hinch/session.hpp"
#include "hinch/thread_executor.hpp"
#include "media/metrics.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "sim/cache.hpp"
#include "sp/pass.hpp"
#include "xspcl/loader.hpp"
#include "xspcl/spec_cache.hpp"

namespace {

using hinch::Program;
using hinch::SessionConfig;
using hinch::SessionExecutor;
using hinch::SessionPtr;
using hinch::SessionResult;
using hinch::SessionStatus;

std::string blur_spec(int iters, int slices = 2) {
  apps::BlurConfig c;
  c.width = 64;
  c.height = 48;
  c.frames = iters;
  c.kernel = 3;
  c.slices = slices;
  c.clip_frames = 4;
  return apps::blur_xspcl(c);
}

std::unique_ptr<Program> build(const std::string& spec) {
  components::register_standard_globally();
  auto prog = xspcl::build_program(spec, hinch::ComponentRegistry::global());
  SUP_CHECK_MSG(prog.is_ok(), prog.status().message().c_str());
  return std::move(prog).take();
}

// Every sink's checksum folded into one chain — equal iff all output video
// is equal (same reduction hinchd reports per batch).
uint64_t output_checksum(Program& prog) {
  uint64_t hash = media::kFnvBasis;
  for (int i = 0; i < prog.component_count(); ++i) {
    const auto* access =
        dynamic_cast<const components::SinkAccess*>(&prog.component(i));
    if (access == nullptr) continue;
    hash = media::hash_fold(hash, access->sink().checksum());
  }
  return hash;
}

SessionPtr open(SessionExecutor& exec, std::unique_ptr<Program> prog,
                int64_t iters, obs::TraceSession* trace = nullptr,
                bool record_frames = false) {
  SessionConfig cfg;
  cfg.run.iterations = iters;
  cfg.run.window = 2;
  cfg.trace = trace;
  cfg.record_frame_times = record_frames;
  return exec.submit(std::move(prog), cfg);
}

// --- bit-identity across tenancy -------------------------------------------

// Two concurrent same-spec sessions must each produce output
// bit-identical to a solo single-session run: component state, streams
// and regions are per-Program, so tenancy must not leak between graphs.
TEST(SessionIsolation, ConcurrentSameSpecSessionsMatchSoloRun) {
  const std::string spec = blur_spec(24);
  const int64_t iters = 24;

  uint64_t solo;
  {
    std::unique_ptr<Program> prog = build(spec);
    SessionExecutor::Config pool;
    pool.workers = 3;
    SessionExecutor exec(pool);
    SessionConfig cfg;
    cfg.run.iterations = iters;
    cfg.run.window = 2;
    SessionPtr s = exec.submit(*prog, cfg);
    EXPECT_EQ(s->wait().status, SessionStatus::kDone);
    solo = output_checksum(*prog);
    exec.shutdown();
  }

  std::unique_ptr<Program> a = build(spec);
  std::unique_ptr<Program> b = build(spec);
  Program* pa = a.get();
  Program* pb = b.get();
  SessionExecutor::Config pool;
  pool.workers = 3;
  SessionExecutor exec(pool);
  SessionConfig cfg;
  cfg.run.iterations = iters;
  cfg.run.window = 2;
  SessionPtr sa = exec.submit(*pa, cfg);
  SessionPtr sb = exec.submit(*pb, cfg);
  EXPECT_EQ(sa->wait().status, SessionStatus::kDone);
  EXPECT_EQ(sb->wait().status, SessionStatus::kDone);
  EXPECT_EQ(output_checksum(*pa), solo);
  EXPECT_EQ(output_checksum(*pb), solo);
  exec.shutdown();
  a.reset();
  b.reset();
}

// The owning submit overload keeps the Program alive through teardown:
// jobs carry the session shared_ptr, the session holds the Program.
TEST(SessionIsolation, OwnedProgramSurvivesUntilDrain) {
  SessionExecutor::Config pool;
  pool.workers = 2;
  SessionExecutor exec(pool);
  SessionPtr s = open(exec, build(blur_spec(16)), 16);
  SessionResult r = s->wait();
  EXPECT_EQ(r.status, SessionStatus::kDone);
  EXPECT_EQ(r.iterations_done, 16);
  EXPECT_GT(r.jobs, 0u);
  EXPECT_NE(output_checksum(s->program()), 0u);
}

// --- per-session metrics ---------------------------------------------------

// Each session owns its registry: two concurrent sessions of different
// lengths each read only their own live.iterations_done.
TEST(SessionMetrics, EachSessionOwnsItsLiveGauges) {
  SessionExecutor::Config pool;
  pool.workers = 2;
  SessionExecutor exec(pool);
  SessionPtr a = open(exec, build(blur_spec(12)), 12);
  SessionPtr b = open(exec, build(blur_spec(7)), 7);
  a->wait();
  b->wait();
  EXPECT_NE(a->metrics(), b->metrics());
  EXPECT_EQ(a->metrics()->snapshot().get_int("live.iterations_done"), 12);
  EXPECT_EQ(b->metrics()->snapshot().get_int("live.iterations_done"), 7);
  EXPECT_EQ(exec.sessions_completed(), 2u);
  exec.shutdown();
}

// --- per-session tracing ----------------------------------------------------

TEST(SessionTrace, EachSessionGetsItsOwnTrace) {
  obs::TraceSession ta;
  obs::TraceSession tb;
  SessionExecutor::Config pool;
  pool.workers = 2;
  SessionExecutor exec(pool);
  SessionPtr a = open(exec, build(blur_spec(12)), 12, &ta);
  SessionPtr b = open(exec, build(blur_spec(12)), 12, &tb);
  SessionResult ra = a->wait();
  SessionResult rb = b->wait();
  exec.shutdown();
  EXPECT_EQ(ra.status, SessionStatus::kDone);
  EXPECT_EQ(rb.status, SessionStatus::kDone);
  // Every executed job emits at least one span into its own session's
  // trace — and only there (lane counts are per-trace, so cross-talk
  // would overshoot one and undershoot the other). With the
  // instrumentation compiled out (HINCH_TRACING=OFF) the executor never
  // touches the trace at all — no lanes, no events.
  if (obs::kTraceCompiledIn) {
    EXPECT_GE(ta.emitted(), ra.jobs);
    EXPECT_GE(tb.emitted(), rb.jobs);
    EXPECT_EQ(ta.lanes(), 2);
    EXPECT_EQ(tb.lanes(), 2);
  }
}

// --- frame-completion probe -------------------------------------------------

TEST(SessionFrames, RecordFrameTimesStampsEveryIteration) {
  SessionExecutor::Config pool;
  pool.workers = 2;
  SessionExecutor exec(pool);
  SessionConfig cfg;
  cfg.run.iterations = 20;
  cfg.run.window = 2;
  cfg.record_frame_times = true;
  SessionPtr s = exec.submit(build(blur_spec(20)), cfg);
  SessionResult r = s->wait();
  exec.shutdown();
  ASSERT_EQ(r.status, SessionStatus::kDone);
  ASSERT_EQ(r.frame_done_ns.size(), 20u);
  for (size_t i = 1; i < r.frame_done_ns.size(); ++i)
    EXPECT_GE(r.frame_done_ns[i], r.frame_done_ns[i - 1]);
}

// --- admission control ------------------------------------------------------

TEST(SessionAdmission, CapQueuesFifoAndCompletesAll) {
  SessionExecutor::Config pool;
  pool.workers = 2;
  pool.max_active_sessions = 1;
  SessionExecutor exec(pool);
  std::vector<SessionPtr> sessions;
  for (int i = 0; i < 4; ++i)
    sessions.push_back(open(exec, build(blur_spec(8)), 8));
  for (SessionPtr& s : sessions)
    EXPECT_EQ(s->wait().status, SessionStatus::kDone);
  EXPECT_EQ(exec.peak_active_sessions(), 1);
  EXPECT_EQ(exec.sessions_completed(), 4u);
  exec.shutdown();
}

TEST(SessionAdmission, RaisingTheCapStartsQueuedSessions) {
  SessionExecutor::Config pool;
  pool.workers = 2;
  pool.max_active_sessions = 1;
  SessionExecutor exec(pool);
  // A long session holds the only slot; two short ones queue.
  SessionPtr slow = open(exec, build(blur_spec(400)), 400);
  SessionPtr q1 = open(exec, build(blur_spec(4)), 4);
  SessionPtr q2 = open(exec, build(blur_spec(4)), 4);
  EXPECT_GE(exec.queued_sessions(), 1);
  exec.set_active_cap(3);
  EXPECT_EQ(q1->wait().status, SessionStatus::kDone);
  EXPECT_EQ(q2->wait().status, SessionStatus::kDone);
  exec.cancel(slow);
  SessionResult r = slow->wait();
  EXPECT_TRUE(r.status == SessionStatus::kCancelled ||
              r.status == SessionStatus::kDone);
  EXPECT_GE(exec.peak_active_sessions(), 2);
  exec.shutdown();
}

// --- cancellation / teardown ------------------------------------------------

TEST(SessionCancel, CancelDrainsOneSessionWithoutStoppingThePool) {
  SessionExecutor::Config pool;
  pool.workers = 2;
  SessionExecutor exec(pool);
  SessionPtr victim = open(exec, build(blur_spec(4000)), 4000);
  exec.cancel(victim);
  SessionResult r = victim->wait();
  EXPECT_TRUE(r.status == SessionStatus::kCancelled ||
              r.status == SessionStatus::kDone);
  EXPECT_LE(r.iterations_done, 4000);

  // The pool is still live: a fresh session runs to completion.
  SessionPtr after = open(exec, build(blur_spec(8)), 8);
  EXPECT_EQ(after->wait().status, SessionStatus::kDone);
  exec.shutdown();
}

TEST(SessionCancel, CancellingAQueuedSessionFinalizesImmediately) {
  SessionExecutor::Config pool;
  pool.workers = 2;
  pool.max_active_sessions = 1;
  SessionExecutor exec(pool);
  SessionPtr slow = open(exec, build(blur_spec(400)), 400);
  SessionPtr queued = open(exec, build(blur_spec(8)), 8);
  exec.cancel(queued);
  SessionResult r = queued->wait();
  EXPECT_EQ(r.status, SessionStatus::kCancelled);
  EXPECT_EQ(r.iterations_done, 0);
  EXPECT_EQ(r.jobs, 0u);
  exec.cancel(slow);
  slow->wait();
  exec.shutdown();
}

TEST(SessionCancel, ShutdownCancelsEverything) {
  SessionExecutor::Config pool;
  pool.workers = 2;
  SessionExecutor exec(pool);
  SessionPtr a = open(exec, build(blur_spec(4000)), 4000);
  SessionPtr b = open(exec, build(blur_spec(4000)), 4000);
  exec.shutdown();
  EXPECT_TRUE(a->finished());
  EXPECT_TRUE(b->finished());
}

// --- RegionTable per-owner regions ------------------------------------------

TEST(SessionRegions, TwoTablesOverOneMemoryNeverAlias) {
  sim::MemorySystem mem(sim::CacheConfig{}, 1);
  hinch::RegionTable first(&mem, 4);
  hinch::RegionTable second(&mem, 4);
  // Same (stream, iter) in two tables must not alias: each table
  // registers its own region.
  sim::RegionId a = first.stream_region(0, 0, 64);
  sim::RegionId b = second.stream_region(0, 0, 64);
  EXPECT_NE(a, b);
}

TEST(SessionRegionsDeathTest, StreamIndexBeyond32BitsIsRejected) {
  sim::MemorySystem mem(sim::CacheConfig{}, 1);
  hinch::RegionTable table(&mem, 4);
  // 2^32 - 1 packs; 2^32 would shift into the slot half and alias
  // stream index mod 2^32 — the guard must trip, not wrap.
  EXPECT_EQ(table.stream_key((int64_t{1} << 32) - 1, 0) >> 32,
            (uint64_t{1} << 32) - 1);
  EXPECT_DEATH(table.stream_key(int64_t{1} << 32, 0),
               "stream index exceeds");
  EXPECT_DEATH(table.stream_key(-1, 0), "negative stream index");
}

// --- compiled-spec cache ----------------------------------------------------

TEST(SpecCacheTest, HitsShareTheCompiledGraph) {
  components::register_standard_globally();
  xspcl::SpecCache cache;
  const std::string spec = blur_spec(8);
  sp::PassOptions passes;
  auto a = cache.load(spec, passes);
  ASSERT_TRUE(a.is_ok());
  auto b = cache.load(spec, passes);
  ASSERT_TRUE(b.is_ok());
  EXPECT_EQ(a.value(), b.value());  // same cached node
  EXPECT_EQ(cache.stats().hits, 1u);
  EXPECT_EQ(cache.stats().misses, 1u);
  EXPECT_EQ(cache.size(), 1u);
}

TEST(SpecCacheTest, DistinctPassPipelinesAreDistinctEntries) {
  components::register_standard_globally();
  xspcl::SpecCache cache;
  const std::string spec = blur_spec(8);
  sp::PassOptions defaults;
  sp::PassOptions fused = defaults;
  fused.fuse_kernels = true;
  sp::PassOptions fused_for_four = fused;
  fused_for_four.kernel_cores = 4;
  ASSERT_TRUE(cache.load(spec, defaults).is_ok());
  ASSERT_TRUE(cache.load(spec, fused).is_ok());
  ASSERT_TRUE(cache.load(spec, fused_for_four).is_ok());
  EXPECT_EQ(cache.size(), 3u);
  EXPECT_EQ(cache.stats().misses, 3u);
}

TEST(SpecCacheTest, BuildProgramInstantiatesFreshState) {
  components::register_standard_globally();
  xspcl::SpecCache cache;
  const std::string spec = blur_spec(12);
  auto a = cache.build_program(spec, hinch::ComponentRegistry::global());
  ASSERT_TRUE(a.is_ok());
  auto b = cache.build_program(spec, hinch::ComponentRegistry::global());
  ASSERT_TRUE(b.is_ok());
  EXPECT_EQ(cache.stats().hits, 1u);

  // Both cache-built programs run independently and agree with a
  // cold-built one bit for bit.
  std::unique_ptr<Program> cold = build(spec);
  SessionExecutor::Config pool;
  pool.workers = 2;
  SessionExecutor exec(pool);
  std::unique_ptr<Program> pa = std::move(a).take();
  std::unique_ptr<Program> pb = std::move(b).take();
  Program* rawa = pa.get();
  Program* rawb = pb.get();
  SessionConfig cfg;
  cfg.run.iterations = 12;
  SessionPtr sa = exec.submit(std::move(pa), cfg);
  SessionPtr sb = exec.submit(std::move(pb), cfg);
  SessionPtr sc = exec.submit(*cold, cfg);
  sa->wait();
  sb->wait();
  sc->wait();
  EXPECT_EQ(output_checksum(*rawa), output_checksum(*cold));
  EXPECT_EQ(output_checksum(*rawb), output_checksum(*cold));
  exec.shutdown();
}

TEST(SpecCacheTest, BadSpecReportsTheLoaderError) {
  xspcl::SpecCache cache;
  auto r = cache.load("<not a spec", sp::PassOptions());
  EXPECT_FALSE(r.is_ok());
  EXPECT_EQ(cache.size(), 0u);
}

// A spec that fails Program::build is not kept: nothing can run it, and
// a server fed many such specs must not accumulate them.
TEST(SpecCacheTest, SpecThatFailsToBuildIsNotKept) {
  components::register_standard_globally();
  xspcl::SpecCache cache;
  std::string spec = blur_spec(8);
  const size_t at = spec.find("name=\"seed\"");
  ASSERT_NE(at, std::string::npos);
  spec.replace(at, 11, "name=\"seed_typo\"");
  for (uint64_t attempt = 1; attempt <= 2; ++attempt) {
    auto prog = cache.build_program(spec, hinch::ComponentRegistry::global());
    ASSERT_FALSE(prog.is_ok());
    EXPECT_NE(prog.status().message().find("unknown param 'seed_typo'"),
              std::string::npos)
        << prog.status().to_string();
    EXPECT_EQ(cache.size(), 0u);
    EXPECT_EQ(cache.stats().misses, attempt);  // building again is a miss
    EXPECT_EQ(cache.stats().hits, 0u);
  }
}

// The cache is bounded: one spec beyond the budget drops the least
// recently used one, and a spec touched in between survives.
TEST(SpecCacheTest, EvictsLeastRecentlyUsedBeyondBudget) {
  components::register_standard_globally();
  xspcl::SpecCache cache;
  const sp::PassOptions passes;
  // Each source seed gives a distinct spec text.
  auto spec = [](size_t seed) {
    apps::BlurConfig c;
    c.width = 64;
    c.height = 48;
    c.seed = seed;
    return apps::blur_xspcl(c);
  };
  const size_t budget = xspcl::SpecCache::kMaxEntries;
  for (size_t n = 1; n <= budget; ++n)
    ASSERT_TRUE(cache.load(spec(n), passes).is_ok());
  EXPECT_EQ(cache.size(), budget);
  ASSERT_TRUE(cache.load(spec(1), passes).is_ok());  // touch the first
  EXPECT_EQ(cache.stats().hits, 1u);
  ASSERT_TRUE(cache.load(spec(budget + 1), passes).is_ok());
  EXPECT_EQ(cache.size(), budget);
  EXPECT_EQ(cache.stats().misses, budget + 1);
  ASSERT_TRUE(cache.load(spec(1), passes).is_ok());
  EXPECT_EQ(cache.stats().hits, 2u);  // the first spec is still cached
  ASSERT_TRUE(cache.load(spec(2), passes).is_ok());
  EXPECT_EQ(cache.stats().misses, budget + 2);  // the second was dropped
}

// --- pass fingerprint -------------------------------------------------------

TEST(PassFingerprint, DistinguishesPipelinesAndIgnoresVerify) {
  sp::PassOptions none = sp::PassOptions::none();
  EXPECT_EQ(sp::pass_fingerprint(none), "none");

  sp::PassOptions defaults;
  sp::PassOptions fused = defaults;
  fused.fuse_kernels = true;
  EXPECT_NE(sp::pass_fingerprint(defaults), sp::pass_fingerprint(fused));
  // The core count changes what fuse-kernels takes, so it is keyed too.
  sp::PassOptions fused_for_four = fused;
  fused_for_four.kernel_cores = 4;
  EXPECT_NE(sp::pass_fingerprint(fused),
            sp::pass_fingerprint(fused_for_four));

  sp::PassOptions verifying = defaults;
  verifying.verify = !verifying.verify;
  EXPECT_EQ(sp::pass_fingerprint(defaults),
            sp::pass_fingerprint(verifying));
}

// --- multi-tenant server gates ---------------------------------------------

constexpr int kServerWorkers = 4;

// The server gates' tenant: a 96x64 blur (kernel 5) over 8 slices.
std::string server_spec(int64_t iters) {
  apps::BlurConfig c;
  c.width = 96;
  c.height = 64;
  c.frames = static_cast<int>(iters);
  c.kernel = 5;
  c.slices = 8;
  c.clip_frames = 4;
  return apps::blur_xspcl(c);
}

std::unique_ptr<Program> build_cached(xspcl::SpecCache& cache,
                                      const std::string& spec) {
  auto prog = cache.build_program(spec, hinch::ComponentRegistry::global());
  SUP_CHECK_MSG(prog.is_ok(), prog.status().message().c_str());
  return std::move(prog).take();
}

double ms_since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - t0)
      .count();
}

// Inter-frame gaps (ms) from a session's completion stamps. Iterations
// retired in one scheduler batch share a stamp, so zero gaps are normal.
std::vector<double> frame_gaps_ms(const SessionResult& r) {
  std::vector<double> gaps;
  gaps.reserve(r.frame_done_ns.size());
  uint64_t prev = 0;
  for (uint64_t t : r.frame_done_ns) {
    gaps.push_back(static_cast<double>(t - prev) / 1e6);
    prev = t;
  }
  return gaps;
}

double percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  return v[static_cast<size_t>(p * static_cast<double>(v.size() - 1))];
}

// N tenants on one server (one SessionExecutor and one SpecCache, both
// built inside the timed region) finish before N one-at-a-time runs that
// each compile the spec and start and join their own pool through
// run_on_threads: the server amortises the compile and the pool start,
// with parallel overlap on top where cores exist. Best of two interleaved
// reps after an untimed sequential warmup.
TEST(SessionServer, ConcurrentBeatsSequential) {
  constexpr int kTenants = 6;
  constexpr int64_t kIters = 12;
  const std::string spec = server_spec(kIters);
  components::register_standard_globally();

  auto sequential = [&] {
    auto t0 = std::chrono::steady_clock::now();
    for (int i = 0; i < kTenants; ++i) {
      std::unique_ptr<Program> prog = build(spec);
      hinch::RunConfig run;
      run.iterations = kIters;
      run.window = 2;
      hinch::run_on_threads(*prog, run, kServerWorkers);
    }
    return ms_since(t0);
  };
  auto concurrent = [&] {
    auto t0 = std::chrono::steady_clock::now();
    SessionExecutor::Config pool;
    pool.workers = kServerWorkers;
    SessionExecutor exec(pool);
    xspcl::SpecCache cache;
    std::vector<SessionPtr> sessions;
    for (int i = 0; i < kTenants; ++i)
      sessions.push_back(open(exec, build_cached(cache, spec), kIters));
    for (const SessionPtr& s : sessions)
      EXPECT_EQ(s->wait().status, SessionStatus::kDone);
    exec.shutdown();
    return ms_since(t0);
  };

  sequential();  // warmup: page cache, lazy initialisation
  double seq_ms = 1e300;
  double conc_ms = 1e300;
  for (int rep = 0; rep < 2; ++rep) {
    seq_ms = std::min(seq_ms, sequential());
    conc_ms = std::min(conc_ms, concurrent());
  }
  std::printf("%d tenants x %lld iters: sequential %.2f ms, concurrent "
              "%.2f ms, concurrent/sequential %.3f\n",
              kTenants, static_cast<long long>(kIters), seq_ms, conc_ms,
              conc_ms / seq_ms);
  EXPECT_LT(conc_ms, seq_ms);
}

// A long-lived victim streams while short tenants are opened two at a
// time, every second one cancelled mid-run and all of them drained, so
// both teardown flavours overlap the victim. The victim must retire every
// iteration, and its worst inter-frame gap must stay under
// max(250 ms, 50 x its solo p99 gap). The bound is generous: contention
// on a loaded host is fine, while a teardown that blocks the pool shows
// up as a multi-second gap or a victim that never finishes.
TEST(SessionServer, CloseNeverStallsANeighbour) {
  constexpr int64_t kVictimIters = 200;
  constexpr int64_t kChurnIters = 12;
  constexpr size_t kChurnInflight = 2;
  const std::string victim_spec = server_spec(kVictimIters);
  const std::string churn_spec = server_spec(kChurnIters);
  components::register_standard_globally();
  SessionExecutor::Config pool;
  pool.workers = kServerWorkers;

  std::vector<double> solo_gaps;
  {
    SessionExecutor exec(pool);
    xspcl::SpecCache cache;
    SessionResult solo = open(exec, build_cached(cache, victim_spec),
                              kVictimIters, nullptr, true)
                             ->wait();
    ASSERT_EQ(solo.status, SessionStatus::kDone);
    solo_gaps = frame_gaps_ms(solo);
    exec.shutdown();
  }

  SessionExecutor exec(pool);
  xspcl::SpecCache cache;
  SessionPtr victim = open(exec, build_cached(cache, victim_spec),
                           kVictimIters, nullptr, true);
  std::deque<SessionPtr> inflight;
  int opened = 0;
  while (!victim->finished() || !inflight.empty()) {
    while (!victim->finished() && inflight.size() < kChurnInflight) {
      SessionPtr c = open(exec, build_cached(cache, churn_spec), kChurnIters);
      if (++opened % 2 == 0) exec.cancel(c);
      inflight.push_back(std::move(c));
    }
    if (inflight.empty()) break;  // the victim finished meanwhile
    SessionStatus status = inflight.front()->wait().status;
    inflight.pop_front();
    EXPECT_TRUE(status == SessionStatus::kDone ||
                status == SessionStatus::kCancelled);
  }
  SessionResult v = victim->wait();
  exec.shutdown();

  EXPECT_EQ(v.status, SessionStatus::kDone);
  EXPECT_EQ(v.iterations_done, kVictimIters);
  const double bound_ms = std::max(250.0, 50.0 * percentile(solo_gaps, 0.99));
  const double max_gap_ms = percentile(frame_gaps_ms(v), 1.0);
  std::printf("victim max frame gap %.3f ms under churn (%d tenants "
              "opened), bound %.3f ms\n",
              max_gap_ms, opened, bound_ms);
  EXPECT_LT(max_gap_ms, bound_ms);
}

// --- churn stress (the tsan workload) ---------------------------------------

// Concurrent Program build + submit + cancel + wait against one live
// executor: the cross-thread seams (admission, cancellation flags,
// pending accounting, finalize) all run under contention. Iteration
// counts are small so the test stays fast; the point is overlap, not
// volume.
TEST(SessionChurnStress, ConcurrentBuildSubmitCancelTeardown) {
  const std::string spec = blur_spec(16);
  components::register_standard_globally();
  SessionExecutor::Config pool;
  pool.workers = 3;
  pool.max_active_sessions = 3;
  SessionExecutor exec(pool);
  xspcl::SpecCache cache;

  constexpr int kThreads = 4;
  constexpr int kPerThread = 6;
  std::atomic<int> done{0};
  std::atomic<int> cancelled{0};
  std::vector<std::thread> churners;
  churners.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    churners.emplace_back([&, t] {
      for (int i = 0; i < kPerThread; ++i) {
        auto prog =
            cache.build_program(spec, hinch::ComponentRegistry::global());
        ASSERT_TRUE(prog.is_ok());
        SessionConfig cfg;
        cfg.run.iterations = 16;
        cfg.name = "churn-" + std::to_string(t);
        SessionPtr s = exec.submit(std::move(prog).take(), cfg);
        if ((t + i) % 2 == 0) exec.cancel(s);
        SessionResult r = s->wait();
        if (r.status == SessionStatus::kDone) {
          EXPECT_EQ(r.iterations_done, 16);
          done.fetch_add(1);
        } else {
          ASSERT_EQ(r.status, SessionStatus::kCancelled);
          cancelled.fetch_add(1);
        }
      }
    });
  }
  for (std::thread& t : churners) t.join();
  EXPECT_EQ(done.load() + cancelled.load(), kThreads * kPerThread);
  EXPECT_EQ(exec.sessions_completed(),
            static_cast<uint64_t>(kThreads * kPerThread));
  EXPECT_GE(cache.stats().hits, 1u);
  exec.shutdown();
  EXPECT_EQ(exec.active_sessions(), 0);
  EXPECT_EQ(exec.queued_sessions(), 0);
}

}  // namespace
