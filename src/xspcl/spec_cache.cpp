#include "xspcl/spec_cache.hpp"

#include <utility>

#include "xspcl/loader.hpp"

namespace xspcl {
namespace {

// Composite key: fingerprint first (short, discriminates fast), then
// the full spec text. The '\0' separator cannot appear in a fingerprint,
// so the key is injective over (text, fingerprint).
std::string make_key(std::string_view text, const sp::PassOptions& passes) {
  std::string key = sp::pass_fingerprint(passes);
  key += '\0';
  key.append(text.data(), text.size());
  return key;
}

}  // namespace

support::Result<const sp::Node*> SpecCache::load(std::string_view text,
                                                 const sp::PassOptions& passes) {
  std::string key = make_key(text, passes);
  {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = entries_.find(key);
    if (it != entries_.end()) {
      ++stats_.hits;
      return it->second.get();
    }
    ++stats_.misses;
  }
  // Compile outside the lock: a slow front-end must not serialize hits
  // on other specs. Two racing misses both compile; the FIRST insert
  // wins and the loser drops its own graph (both are equal by
  // construction). First-wins is load-bearing: pointers already handed
  // out must stay valid until clear(), so an entry is never replaced.
  SUP_ASSIGN_OR_RETURN(sp::NodePtr graph, load_string(text));
  sp::PassManager pipeline = sp::make_pipeline(passes);
  if (!pipeline.empty()) {
    SUP_ASSIGN_OR_RETURN(graph, pipeline.run(std::move(graph)));
  }
  std::lock_guard<std::mutex> lock(mu_);
  auto [it, inserted] = entries_.try_emplace(std::move(key),
                                             std::move(graph));
  (void)inserted;
  return it->second.get();
}

support::Result<std::unique_ptr<hinch::Program>> SpecCache::build_program(
    std::string_view text, const hinch::ComponentRegistry& registry,
    const hinch::Program::BuildConfig& config) {
  SUP_ASSIGN_OR_RETURN(const sp::Node* graph, load(text, config.passes));
  hinch::Program::BuildConfig compiled = config;
  compiled.passes = sp::PassOptions::none();
  return hinch::Program::build(*graph, registry, compiled);
}

SpecCache::Stats SpecCache::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  return stats_;
}

size_t SpecCache::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return entries_.size();
}

void SpecCache::clear() {
  std::lock_guard<std::mutex> lock(mu_);
  entries_.clear();
}

}  // namespace xspcl
