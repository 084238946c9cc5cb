// Span tracer and sample statistics for the benchmark.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <functional>
#include <thread>

#include "bench.hpp"

namespace perfbench {

Tracer::Tracer() : epoch_(std::chrono::steady_clock::now()) {}

double Tracer::now() const {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       epoch_)
      .count();
}

void Tracer::record(Span span) {
  const std::lock_guard<std::mutex> lock(mu_);
  spans_.push_back(std::move(span));
}

std::vector<Span> Tracer::spans() const {
  const std::lock_guard<std::mutex> lock(mu_);
  return spans_;
}

bool Tracer::write_chrome_json(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fprintf(f, "{\"traceEvents\":[");
  bool first = true;
  for (const Span& s : spans()) {
    std::fprintf(f,
                 "%s\n{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":%llu,"
                 "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%llu,"
                 "\"parent\":%llu}}",
                 first ? "" : ",", s.name.c_str(),
                 static_cast<unsigned long long>(s.thread), s.start * 1e6,
                 (s.end - s.start) * 1e6, static_cast<unsigned long long>(s.id),
                 static_cast<unsigned long long>(s.parent));
    first = false;
  }
  std::fprintf(f, "\n]}\n");
  return std::fclose(f) == 0;
}

Timed::Timed(Tracer& tracer, const char* name, std::uint64_t parent)
    : tracer_(tracer),
      name_(name),
      id_(tracer.enabled() ? tracer.next_id() : 0),
      parent_(parent),
      start_(tracer.now()) {}

double Timed::stop() {
  if (seconds_ >= 0) return seconds_;
  const double end = tracer_.now();
  seconds_ = end - start_;
  if (id_ != 0) {
    tracer_.record(Span{name_, id_, parent_, start_, end,
                        std::hash<std::thread::id>{}(std::this_thread::get_id())});
  }
  return seconds_;
}

std::map<std::string, SpanTotals> span_totals(const std::vector<Span>& spans) {
  std::map<std::uint64_t, std::vector<const Span*>> children;
  for (const Span& s : spans) {
    if (s.parent != 0) children[s.parent].push_back(&s);
  }
  std::map<std::string, SpanTotals> totals;
  for (const Span& s : spans) {
    // Children may overlap (parallel sweep cells), so subtract the union of
    // their intervals, clipped to the parent's.
    std::vector<std::pair<double, double>> covered;
    if (const auto it = children.find(s.id); it != children.end()) {
      for (const Span* c : it->second) {
        covered.emplace_back(std::max(c->start, s.start),
                             std::min(c->end, s.end));
      }
    }
    std::sort(covered.begin(), covered.end());
    double busy = 0;
    double reach = s.start;
    for (const auto& [from, to] : covered) {
      const double lo = std::max(from, reach);
      if (to > lo) {
        busy += to - lo;
        reach = to;
      }
    }
    SpanTotals& t = totals[s.name];
    ++t.count;
    t.total_s += s.end - s.start;
    t.self_s += (s.end - s.start) - busy;
  }
  return totals;
}

double median(std::vector<double> values) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  const std::size_t h = values.size() / 2;
  return values.size() % 2 != 0 ? values[h] : (values[h - 1] + values[h]) / 2;
}

double percentile(std::vector<double> values, double p) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  const double rank = std::ceil(p / 100.0 * static_cast<double>(values.size()));
  const std::size_t index =
      std::min(values.size() - 1,
               static_cast<std::size_t>(std::max(1.0, rank)) - 1);
  return values[index];
}

double tail_percentile(std::size_t samples) {
  // p leaves floor(n * (100 - p) / 100) samples above it; keep that >= 10.
  for (int p = 99; p >= 50; --p) {
    if (static_cast<double>(samples) * (100 - p) / 100.0 >= 10.0) return p;
  }
  return 100;
}

}  // namespace perfbench
