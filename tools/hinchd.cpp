// hinchd — long-lived multi-tenant Hinch streaming server.
//
// One process, one SessionExecutor (one pool, one central job queue), many
// tenants: each `open` names a built-in application (apps::catalog) and
// compiles its spec through the SpecCache (once per distinct spec; a
// spec that does not build is an error at open), and each `feed` runs a
// batch of iterations as a hinch::Session on the shared pool. Closing a
// tenant cancels and drains only its jobs; everyone else keeps
// streaming. This is the server the session-scoped runtime refactor
// exists for (docs/RUNTIME.md, "Session lifecycle").
//
// Serve mode (default) reads a line protocol from stdin:
//
//   open <app> [key=value ...]  admit a tenant (apps: pip|jpip|blur|mjpeg)
//                               extra keys: trace=1 attaches a per-session
//                               trace (timestamps relative to each batch;
//                               a feed waits out the tenant's running
//                               batches), depth=<1..64> sets the stream
//                               depth (5)
//                               -> ok open <tid> <app>
//   feed <tid> <iterations>     run one batch of 1..2^31-1 iterations
//                               -> ok feed <tid> <iterations>
//   wait <tid>                  block until the tenant's batches finish
//                               -> done <tid> batch=<n> status=<s>
//                                  iters=<n> jobs=<n> checksum=<hex> ...
//   close <tid>                 cancel in-flight batches, drain, forget
//                               -> ok close <tid>
//   cap <n>                     set the active-session cap (0 = uncapped)
//   stats                       session counts + pool + spec-cache counters
//   trace <tid> <path>          write the tenant's last batch as Chrome
//                               JSON, one session (hinchtrace <path>)
//   quit                        close every tenant, shut the pool down
//                               -> bye
//
// Responses go to stdout (one "ok"/"done"/"error" line per command,
// `stats` multi-line); diagnostics to stderr. A malformed command —
// a bad number included — gets an "error" line and the server keeps
// serving every other tenant. tests/hinchd_churn.txt is a client script
// that closes tenants while later ones are still feeding.
//
//   hinchd [--workers=N] [--max-sessions=N]
//
// --workers takes 1..hinch::SessionExecutor::kMaxWorkers (1024); a
// larger count or a bad number is a usage error (exit 2).
#include <cstdio>
#include <limits>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "apps/apps.hpp"
#include "components/components.hpp"
#include "components/sinks.hpp"
#include "hinch/session.hpp"
#include "media/metrics.hpp"
#include "obs/chrome_export.hpp"
#include "obs/trace.hpp"
#include "support/strings.hpp"
#include "xspcl/spec_cache.hpp"

namespace {

constexpr int64_t kMaxDepth = 64;
constexpr int64_t kMaxIterations = std::numeric_limits<int32_t>::max();

struct Batch {
  hinch::SessionPtr session;
  int64_t iterations = 0;
};

struct Tenant {
  int id = -1;
  std::string app;
  std::string spec;
  int stream_depth = 5;
  std::unique_ptr<obs::TraceSession> trace;  // when opened with trace=1
  std::vector<Batch> batches;                // in feed order
  int64_t iterations_fed = 0;
};

// Every sink component's checksum folded into one chain: one number that is
// equal iff all output video of the batch is equal.
uint64_t output_checksum(hinch::Program& prog) {
  uint64_t hash = media::kFnvBasis;
  bool any = false;
  for (int i = 0; i < prog.component_count(); ++i) {
    const auto* access =
        dynamic_cast<const components::SinkAccess*>(&prog.component(i));
    if (access == nullptr) continue;
    any = true;
    hash = media::hash_fold(hash, access->sink().checksum());
  }
  return any ? hash : 0;
}

struct ServeOptions {
  int workers = 4;
  int max_sessions = 0;
};

int serve(const ServeOptions& opts) {
  components::register_standard_globally();
  hinch::SessionExecutor::Config pool;
  pool.workers = opts.workers;
  pool.max_active_sessions = opts.max_sessions;
  hinch::SessionExecutor exec(pool);
  xspcl::SpecCache cache;

  std::map<int, Tenant> tenants;
  int next_tenant = 0;
  bool running = true;

  auto err = [](const std::string& msg) {
    std::printf("error %s\n", msg.c_str());
  };
  // Parses `text` as an integer in [lo, hi]; on failure replies
  // "error <what>: <why>" and returns false.
  auto int_arg = [&err](const std::string& text, const char* what,
                        int64_t lo, int64_t hi, int64_t* out) {
    auto v = support::parse_int_in(text, lo, hi);
    if (!v.is_ok()) {
      err(std::string(what) + ": " + v.status().message());
      return false;
    }
    *out = v.value();
    return true;
  };
  // Resolves a tenant-id token; on failure replies "error" and returns
  // tenants.end().
  auto find_tenant = [&](const std::string& text) {
    int64_t tid = 0;
    if (!int_arg(text, "tenant id", 0, std::numeric_limits<int>::max(), &tid))
      return tenants.end();
    auto it = tenants.find(static_cast<int>(tid));
    if (it == tenants.end()) err("no such tenant");
    return it;
  };

  auto wait_tenant = [&](Tenant& t) {
    for (size_t i = 0; i < t.batches.size(); ++i) {
      Batch& b = t.batches[i];
      hinch::SessionResult r = b.session->wait();
      std::printf("done %d batch=%zu status=%s iters=%lld jobs=%llu "
                  "checksum=%016llx wall=%.3fs\n",
                  t.id, i, hinch::session_status_name(r.status),
                  static_cast<long long>(r.iterations_done),
                  static_cast<unsigned long long>(r.jobs),
                  static_cast<unsigned long long>(
                      output_checksum(b.session->program())),
                  r.wall_seconds);
    }
  };

  auto close_tenant = [&](Tenant& t) {
    for (Batch& b : t.batches) exec.cancel(b.session);
    for (Batch& b : t.batches) b.session->wait();
  };

  std::string line;
  char buf[4096];
  while (running && std::fgets(buf, sizeof(buf), stdin) != nullptr) {
    line.assign(buf);
    std::vector<std::string> raw = support::split(line, ' ');
    std::vector<std::string> tokens;
    for (const std::string& t : raw) {
      std::string trimmed(support::trim(t));
      if (!trimmed.empty()) tokens.push_back(std::move(trimmed));
    }
    if (tokens.empty()) continue;
    const std::string& cmd = tokens[0];

    if (cmd == "open") {
      if (tokens.size() < 2) {
        err("open needs an app name");
        continue;
      }
      bool with_trace = false;
      bool args_ok = true;
      int64_t depth = 5;
      std::vector<std::string> param_tokens;
      for (size_t i = 2; i < tokens.size() && args_ok; ++i) {
        if (tokens[i] == "trace=1") {
          with_trace = true;
        } else if (tokens[i].rfind("depth=", 0) == 0) {
          args_ok = int_arg(tokens[i].substr(6), "depth", 1, kMaxDepth, &depth);
        } else {
          param_tokens.push_back(tokens[i]);
        }
      }
      if (!args_ok) continue;
      auto params = apps::parse_catalog_params(param_tokens);
      if (!params.is_ok()) {
        err(params.status().message());
        continue;
      }
      auto spec = apps::builtin_xspcl(tokens[1], params.value());
      if (!spec.is_ok()) {
        err(spec.status().message());
        continue;
      }
      // Build once now, as feed will, so a spec the front end or
      // Program::build rejects fails here rather than at the first feed;
      // the Program is dropped and feed's build is a cache hit.
      hinch::Program::BuildConfig build;
      build.stream_depth = static_cast<int>(depth);
      auto built = cache.build_program(
          spec.value(), hinch::ComponentRegistry::global(), build);
      if (!built.is_ok()) {
        err(built.status().message());
        continue;
      }
      Tenant t;
      t.id = next_tenant++;
      t.app = tokens[1];
      t.spec = std::move(spec).take();
      t.stream_depth = static_cast<int>(depth);
      if (with_trace && obs::kTraceCompiledIn)
        t.trace = std::make_unique<obs::TraceSession>();
      int id = t.id;
      tenants.emplace(id, std::move(t));
      std::printf("ok open %d %s\n", id, tokens[1].c_str());
    } else if (cmd == "feed") {
      if (tokens.size() != 3) {
        err("usage: feed <tid> <iterations>");
        continue;
      }
      auto it = find_tenant(tokens[1]);
      if (it == tenants.end()) continue;
      int64_t iters = 0;
      if (!int_arg(tokens[2], "iterations", 1, kMaxIterations, &iters))
        continue;
      Tenant& t = it->second;
      hinch::Program::BuildConfig build;
      build.stream_depth = t.stream_depth;
      auto prog = cache.build_program(
          t.spec, hinch::ComponentRegistry::global(), build);
      if (!prog.is_ok()) {
        err(prog.status().message());
        continue;
      }
      hinch::SessionConfig cfg;
      cfg.run.iterations = iters;
      cfg.run.window = t.stream_depth;
      cfg.name = t.app;
      cfg.trace = t.trace.get();
      cfg.record_frame_times = true;
      // A batch's start resets the tenant's one trace, so no earlier
      // batch may still be recording into it.
      if (t.trace != nullptr)
        for (Batch& b : t.batches) b.session->wait();
      Batch b;
      b.iterations = iters;
      b.session = exec.submit(std::move(prog).take(), cfg);
      t.batches.push_back(std::move(b));
      t.iterations_fed += iters;
      std::printf("ok feed %d %lld\n", t.id, static_cast<long long>(iters));
    } else if (cmd == "wait") {
      if (tokens.size() != 2) {
        err("usage: wait <tid>");
        continue;
      }
      auto it = find_tenant(tokens[1]);
      if (it == tenants.end()) continue;
      wait_tenant(it->second);
    } else if (cmd == "close") {
      if (tokens.size() != 2) {
        err("usage: close <tid>");
        continue;
      }
      auto it = find_tenant(tokens[1]);
      if (it == tenants.end()) continue;
      close_tenant(it->second);
      tenants.erase(it);
      std::printf("ok close %s\n", tokens[1].c_str());
    } else if (cmd == "cap") {
      if (tokens.size() != 2) {
        err("usage: cap <n>");
        continue;
      }
      int64_t cap = 0;
      if (!int_arg(tokens[1], "cap", 0, std::numeric_limits<int>::max(), &cap))
        continue;
      exec.set_active_cap(static_cast<int>(cap));
      std::printf("ok cap %d\n", exec.active_cap());
    } else if (cmd == "stats") {
      hinch::SessionExecutor::PoolStats pool_stats = exec.pool_stats();
      xspcl::SpecCache::Stats cache_stats = cache.stats();
      std::printf("stats tenants=%zu active=%d queued=%d completed=%llu "
                  "cap=%d\n",
                  tenants.size(), exec.active_sessions(),
                  exec.queued_sessions(),
                  static_cast<unsigned long long>(exec.sessions_completed()),
                  exec.active_cap());
      std::printf("stats pool workers=%d jobs=%llu steals=%llu parks=%llu\n",
                  exec.workers(),
                  static_cast<unsigned long long>(pool_stats.jobs),
                  static_cast<unsigned long long>(pool_stats.steals),
                  static_cast<unsigned long long>(pool_stats.idle_parks));
      std::printf("stats cache entries=%zu hits=%llu misses=%llu\n",
                  cache.size(),
                  static_cast<unsigned long long>(cache_stats.hits),
                  static_cast<unsigned long long>(cache_stats.misses));
    } else if (cmd == "trace") {
      if (tokens.size() != 3) {
        err("usage: trace <tid> <path>");
        continue;
      }
      auto it = find_tenant(tokens[1]);
      if (it == tenants.end()) continue;
      if (it->second.trace == nullptr) {
        err("tenant was not opened with trace=1 (or tracing is "
            "compiled out)");
        continue;
      }
      // Producers must be quiescent: wait out the batches first.
      for (Batch& b : it->second.batches) b.session->wait();
      if (!obs::write_chrome_trace(*it->second.trace, tokens[2])) {
        err("cannot write trace");
        continue;
      }
      std::printf("ok trace %d %s\n", it->second.id, tokens[2].c_str());
    } else if (cmd == "quit") {
      for (auto& [id, t] : tenants) close_tenant(t);
      tenants.clear();
      running = false;
      std::printf("bye\n");
    } else {
      err("unknown command '" + cmd + "'");
    }
    std::fflush(stdout);
  }

  for (auto& [id, t] : tenants) close_tenant(t);
  tenants.clear();
  exec.shutdown();
  return 0;
}

int usage() {
  std::fprintf(stderr,
               "usage: hinchd [--workers=N] [--max-sessions=N]\n"
               "(see the header of tools/hinchd.cpp)\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  ServeOptions serve_opts;
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    bool bad_number = false;
    auto int_flag = [&](const char* name, int hi, int* out) {
      std::string prefix = std::string(name) + "=";
      if (arg.rfind(prefix, 0) != 0) return false;
      auto v = support::parse_int_in(arg.substr(prefix.size()), 0, hi);
      if (v.is_ok())
        *out = static_cast<int>(v.value());
      else
        bad_number = true;
      return true;
    };
    if (int_flag("--workers", hinch::SessionExecutor::kMaxWorkers,
                 &serve_opts.workers) ||
        int_flag("--max-sessions", std::numeric_limits<int>::max(),
                 &serve_opts.max_sessions)) {
      if (bad_number) return usage();
    } else {
      return usage();
    }
  }
  if (serve_opts.workers < 1) return usage();
  return serve(serve_opts);
}
