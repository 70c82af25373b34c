#include <algorithm>
#include <cmath>
#include <cstdio>

#include "bench.hpp"

namespace perfbench {

double ms_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

double median(std::vector<double> v) {
  if (v.empty()) return 0;
  size_t mid = v.size() / 2;
  std::nth_element(v.begin(), v.begin() + static_cast<ptrdiff_t>(mid),
                   v.end());
  double hi = v[mid];
  if (v.size() % 2 == 1) return hi;
  double lo = *std::max_element(v.begin(),
                                v.begin() + static_cast<ptrdiff_t>(mid));
  return (lo + hi) / 2;
}

double mean(const std::vector<double>& v) {
  if (v.empty()) return 0;
  double sum = 0;
  for (double x : v) sum += x;
  return sum / static_cast<double>(v.size());
}

Tail tail(std::vector<double> v, double p) {
  Tail t;
  t.n = v.size();
  if (v.empty()) return t;
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  constexpr size_t kBeyond = 10;
  // Nearest rank: the smallest value with at least p*n samples at or
  // below it. Samples strictly beyond rank k (1-based) number n - k.
  size_t k = static_cast<size_t>(std::ceil(p * static_cast<double>(n)));
  k = std::clamp<size_t>(k, 1, n);
  size_t median_rank = (n + 1) / 2;
  if (n >= kBeyond && n - k < kBeyond) k = n - kBeyond;
  if (n < kBeyond + 1 || k <= median_rank) {
    t.value = v.back();
    t.pct = 100;
    return t;
  }
  t.value = v[k - 1];
  t.pct = 100.0 * static_cast<double>(k) / static_cast<double>(n);
  return t;
}

std::string describe(const Tail& t) {
  char buf[64];
  if (t.pct >= 100)
    std::snprintf(buf, sizeof(buf), "max of %zu", t.n);
  else
    std::snprintf(buf, sizeof(buf), "p%.1f of %zu", t.pct, t.n);
  return buf;
}

void Report::check(bool ok, const std::string& what) {
  ++attempted;
  if (!ok) {
    ++failed;
    failures.push_back(what);
  }
}

namespace {

void set_metric(std::vector<Metric>* list, Metric m) {
  for (Metric& existing : *list) {
    if (existing.name == m.name) {
      existing = std::move(m);
      return;
    }
  }
  list->push_back(std::move(m));
}

}  // namespace

void Report::add_e2e(std::string name, double value, std::string unit,
                     std::string base) {
  set_metric(&e2e, {std::move(name), value, std::move(unit), std::move(base)});
}

void Report::add_layer(std::string name, double value, std::string unit,
                       std::string base) {
  set_metric(&layer,
             {std::move(name), value, std::move(unit), std::move(base)});
}

}  // namespace perfbench
