// Compiled-spec cache: XSPCL text + pass pipeline -> ready-to-instantiate
// SP graph, computed once.
//
// A multi-tenant server (tools/hinchd.cpp) opens many sessions on a small
// set of application specs. Parsing, elaborating, validating and running
// the SP-IR pipeline are pure functions of (spec bytes, pass options), so
// repeating them per session is pure waste — under churn the front-end
// dominates session-open latency. The cache keys on exactly that pair
// (the full spec text plus sp::pass_fingerprint, so there is no hash
// collision to reason about) and stores the *post-pipeline* graph;
// build_program() then instantiates a fresh Program from the cached
// graph with sp::PassOptions::none(), which Program::build compiles
// without cloning. Programs stay per-session (they hold live components
// and streams); only the immutable front-end product is shared.
//
// Thread-safety: all methods lock; concurrent load() of the same key may
// both compile, last insert wins (the graphs are equal). Cached graphs
// are only read after insertion, so handed-out pointers stay valid —
// and Program::build from one cached graph is concurrency-safe — until
// clear() or destruction, which must not race live users.
#pragma once

#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <unordered_map>

#include "hinch/program.hpp"
#include "sp/graph.hpp"
#include "sp/pass.hpp"
#include "support/status.hpp"

namespace xspcl {

class SpecCache {
 public:
  struct Stats {
    uint64_t hits = 0;
    uint64_t misses = 0;
  };

  SpecCache() = default;
  SpecCache(const SpecCache&) = delete;
  SpecCache& operator=(const SpecCache&) = delete;

  // The cached post-pipeline graph for (text, passes); compiled on first
  // use. The pointer is owned by the cache (valid until clear()).
  support::Result<const sp::Node*> load(std::string_view text,
                                        const sp::PassOptions& passes);

  // Instantiate a fresh Program from the cached graph: front-end and
  // pipeline amortized, components/streams newly created. config.passes
  // selects the cache entry; the returned Program is built with
  // PassOptions::none() (the pipeline already ran).
  support::Result<std::unique_ptr<hinch::Program>> build_program(
      std::string_view text, const hinch::ComponentRegistry& registry,
      const hinch::Program::BuildConfig& config = {});

  Stats stats() const;
  size_t size() const;
  // Drops every entry. Invalidates pointers returned by load(); callers
  // must ensure no session is still building from them.
  void clear();

 private:
  mutable std::mutex mu_;
  std::unordered_map<std::string, sp::NodePtr> entries_;
  Stats stats_;
};

}  // namespace xspcl
