// The repository benchmark program.
//
//   esg_perfbench --workload scale|campaign|faulty-io --seed N --seconds S
//                 --trace 0|1 [--trace-out FILE]
//
// Repeats full passes of one workload for S host seconds and prints every
// metric by name and unit, then one JSON result line. --trace 0 reports the
// end-to-end metrics; --trace 1 alternates untraced and traced passes,
// records spans around every call the benchmark makes into the program,
// runs the layer replays, and reports the per-layer metrics and the tracing
// overhead. Exit status 1 when any correctness check failed.
//
// Host-time figures are host time on this machine. Simulated-time figures
// (model.*) are simulated. The model is not validated against real Condor,
// and the repository holds no reference measurements, so no accuracy figure
// is given.
#include <sys/resource.h>

#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <numeric>
#include <set>
#include <string>

#include "bench.hpp"
#include "probes.hpp"

namespace perfbench {
namespace {

struct PassRecord {
  PassTimes times;
  Outcome outcome;
  bool traced = false;
};

int usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s --workload scale|campaign|faulty-io --seed N "
               "--seconds S --trace 0|1 [--trace-out FILE]\n",
               argv0);
  return 2;
}

bool parse_u64(const char* text, std::uint64_t& out) {
  char* end = nullptr;
  errno = 0;
  const unsigned long long v = std::strtoull(text, &end, 10);
  if (errno != 0 || end == text || *end != '\0' || text[0] == '-') return false;
  out = v;
  return true;
}

double peak_rss_mb() {
  rusage usage{};
  if (getrusage(RUSAGE_SELF, &usage) != 0) return 0;
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KB on Linux
}

/// One PassTimes sample list, concatenated over passes.
std::vector<double> gather(const std::vector<PassRecord>& passes,
                           std::vector<double> PassTimes::*samples) {
  std::vector<double> out;
  for (const PassRecord& p : passes) {
    const std::vector<double>& v = p.times.*samples;
    out.insert(out.end(), v.begin(), v.end());
  }
  return out;
}

double ratio(double num, double den) { return den == 0 ? 0 : num / den; }

void per_layer_metrics(const std::vector<PassRecord>& passes,
                       const std::vector<PassRecord>& untraced,
                       const Tracer& tracer, Sheet& sheet) {
  std::vector<PassRecord> traced;
  for (const PassRecord& p : passes) {
    if (p.traced) traced.push_back(p);
  }
  const Outcome& o = traced.back().outcome;

  // pool: one sample per Pool built in a traced pass.
  sheet.layer("pool.build_s", median(gather(traced, &PassTimes::build)), "s");
  sheet.layer("pool.submit_s", median(gather(traced, &PassTimes::submit)), "s");
  const std::vector<double> runs = gather(traced, &PassTimes::run);
  sheet.layer("pool.run_s", median(runs), "s");
  sheet.layer("pool.report_s", median(gather(traced, &PassTimes::report)), "s");
  sheet.layer("pool.teardown_s", median(gather(traced, &PassTimes::teardown)), "s");

  // sweep: the batch of pools one pass runs (one pool on scale/faulty-io).
  std::vector<double> walls, efficiency, judge;
  for (const PassRecord& p : traced) {
    walls.push_back(p.times.batch_wall);
    judge.push_back(p.times.judge);
    const double busy = std::accumulate(p.times.cell.begin(), p.times.cell.end(), 0.0);
    efficiency.push_back(ratio(busy, p.times.width * p.times.batch_wall));
  }
  std::vector<double> cells_ms = gather(traced, &PassTimes::cell);
  for (double& c : cells_ms) c *= 1e3;
  const double tail_p = tail_percentile(cells_ms.size());
  sheet.layer("sweep.wall_s", median(walls), "s");
  sheet.layer("sweep.cell_ms.p50", median(cells_ms), "ms");
  sheet.layer("sweep.cell_ms.tail", percentile(cells_ms, tail_p), "ms");
  sheet.layer("sweep.efficiency", median(efficiency), "ratio");
  sheet.layer("sweep.judge_s", median(judge), "s");
  sheet.notes.push_back(
      "sweep.cell_ms.tail is p" + std::to_string(static_cast<int>(tail_p)) +
      " of " + std::to_string(cells_ms.size()) + " pool(s)" +
      (tail_p >= 100 ? " (the maximum: fewer than 11 samples)" : ""));

  // sim / net: deterministic counts from the last traced pass; per-event
  // cost over every traced pass.
  double events = 0;
  for (const PassRecord& p : traced) events += static_cast<double>(p.outcome.events);
  sheet.layer("sim.events", static_cast<double>(o.events), "count");
  sheet.layer("sim.ns_per_event",
              ratio(std::accumulate(runs.begin(), runs.end(), 0.0) * 1e9, events), "ns");
  sheet.layer("net.messages", static_cast<double>(o.messages), "count");
  sheet.layer("net.bytes", static_cast<double>(o.bytes), "B");
  sheet.layer("net.bytes_per_msg",
              ratio(static_cast<double>(o.bytes), static_cast<double>(o.messages)), "B");

  // daemons
  sheet.layer("match.matches", static_cast<double>(o.matches), "count");
  sheet.layer("match.evals", static_cast<double>(o.evals), "count");
  sheet.layer("match.evals_per_match",
              ratio(static_cast<double>(o.evals), static_cast<double>(o.matches)), "ratio");
  sheet.layer("match.useful_ratio",
              ratio(static_cast<double>(o.attempts), static_cast<double>(o.matches)), "ratio");
  sheet.layer("schedd.attempts", static_cast<double>(o.attempts), "count");
  sheet.layer("schedd.claims_denied", static_cast<double>(o.claims_denied), "count");
  sheet.layer("schedd.incidental_attempts", static_cast<double>(o.schedd_incidental), "count");

  // obs: rendering happens per pool in the pass itself.
  sheet.layer("obs.spans", static_cast<double>(o.spans), "count");
  sheet.layer("obs.journal_bytes", static_cast<double>(o.journal_bytes), "B");
  sheet.layer("obs.journal_str_ms",
              1e3 * median(gather(traced, &PassTimes::journal_str)), "ms");
  sheet.layer("obs.render_dump_ms",
              1e3 * median(gather(traced, &PassTimes::render_dump)), "ms");

  // model: simulated time, identical between any two runs at one seed.
  sheet.layer("model.makespan_s", o.makespan_s, "sim_s");
  sheet.layer("model.wasted_cpu_s", o.wasted_cpu_s, "sim_s");
  sheet.layer("model.incidental_attempts", static_cast<double>(o.model_incidental), "count");

  // trace: what the spans themselves cost, and the time no span explains.
  // The first pass pays the process's cold start, so it is left out of the
  // comparison whenever another untraced pass exists.
  std::vector<double> traced_windows, untraced_windows;
  for (const PassRecord& p : traced) traced_windows.push_back(p.times.window);
  for (std::size_t i = untraced.size() > 1 ? 1 : 0; i < untraced.size(); ++i) {
    untraced_windows.push_back(untraced[i].times.window);
  }
  sheet.layer("trace.overhead_frac",
              ratio(median(traced_windows), median(untraced_windows)) - 1, "ratio");
  const std::vector<Span> spans = tracer.spans();
  const std::map<std::string, SpanTotals> totals = span_totals(spans);
  sheet.layer("trace.spans", static_cast<double>(spans.size()), "count");
  if (const auto it = totals.find("pass"); it != totals.end()) {
    sheet.layer("trace.pass_self_s", it->second.self_s / it->second.count, "s");
  }
}

void print_metrics(const char* title, const std::vector<Metric>& metrics) {
  std::printf("%s\n", title);
  for (const Metric& m : metrics) {
    std::printf("  %-34s %18.10g %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }
}

void print_json(bool correct, const Sheet& sheet, const std::vector<Metric>& metrics) {
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, \"metrics\": {",
              correct ? "true" : "false",
              static_cast<unsigned long long>(sheet.attempted),
              static_cast<unsigned long long>(sheet.failed));
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    // A non-finite value already failed its check; keep the line valid JSON.
    const double v = std::isfinite(metrics[i].value) ? metrics[i].value : 0;
    std::printf("%s\"%s\": {\"value\": %.10g, \"unit\": \"%s\"}", i == 0 ? "" : ", ",
                metrics[i].name.c_str(), v, metrics[i].unit.c_str());
  }
  std::printf("}}\n");
}

int run(const RunOptions& opt) {
  std::unique_ptr<Workload> workload = make_workload(opt.workload, opt.seed);
  if (!workload) return 2;
  std::printf("perfbench %s seed=%llu seconds=%g trace=%d\n", opt.workload.c_str(),
              static_cast<unsigned long long>(opt.seed), opt.seconds, opt.trace ? 1 : 0);
  std::printf("  %s\n", workload->describe().c_str());
  std::printf("  closed batch from one process; host time is host time, "
              "model.* is simulated time; the model is unvalidated\n");

  Tracer tracer;
  Sheet sheet;
  ProbeInputs probe;
  std::vector<PassRecord> passes;
  std::vector<double> setups;
  double first_pass_rss_mb = 0;
  const double start = tracer.now();
  for (int k = 0;; ++k) {
    PassRecord p;
    p.traced = opt.trace && k % 2 == 1;
    tracer.set_enabled(p.traced);
    const bool first_traced = p.traced && k == 1;
    const double pass_start = tracer.now();
    p.outcome = workload->pass(tracer, p.traced, p.times,
                               first_traced ? &probe : nullptr, sheet);
    setups.push_back(p.times.setup);
    if (!opt.trace) {
      // Extra set-ups keep the setup_s median steady: at least one per
      // pass, and more while they cost under 0.1 s (cheap set-ups are the
      // noisiest to time).
      const double extra_start = tracer.now();
      do {
        setups.push_back(workload->setup_only());
      } while (tracer.now() - extra_start < 0.1);
    }
    std::printf("  pass %2d %-8s setup %8.4f s  window %8.4f s  jobs %llu  "
                "digest %016llx\n",
                k + 1, p.traced ? "traced" : "untraced", p.times.setup,
                p.times.window, static_cast<unsigned long long>(p.outcome.jobs),
                static_cast<unsigned long long>(p.outcome.digest()));
    passes.push_back(std::move(p));
    // A user runs the workload once; later passes only repeat it, and the
    // heap they leave behind would make the peak depend on the pass count.
    if (k == 0) first_pass_rss_mb = peak_rss_mb();
    // Stop before a pass that would end past the deadline, once the run has
    // what it reports on: one pass, or one untraced and one traced.
    const double now = tracer.now();
    const bool enough = passes.size() >= (opt.trace ? 2u : 1u);
    if (enough && now + (now - pass_start) - start > opt.seconds) break;
  }
  std::fflush(stdout);

  // The digest covers public outputs only, so every pass, traced or not,
  // must reproduce the first one exactly.
  for (const PassRecord& p : passes) {
    sheet.check(p.outcome.digest_text == passes.front().outcome.digest_text,
                "outcome digest is identical on every pass at one seed");
  }

  std::vector<PassRecord> untraced;
  for (const PassRecord& p : passes) {
    if (!p.traced) untraced.push_back(p);
  }
  if (opt.trace) {
    tracer.set_enabled(true);
    run_probes(probe, opt.seed, tracer, sheet);
    per_layer_metrics(passes, untraced, tracer, sheet);
  } else {
    std::vector<double> rates;
    for (const PassRecord& p : passes) {
      rates.push_back(ratio(static_cast<double>(p.outcome.jobs), p.times.window));
    }
    std::printf("setup: first (cold) %.6g s, median of %zu %.6g s\n",
                setups.front(), setups.size(), median(setups));
    sheet.e2e("jobs_per_s", median(rates), "jobs/s");
    sheet.e2e("setup_s", median(setups), "s");
    sheet.e2e("peak_rss_mb", first_pass_rss_mb, "MB");
  }

  const Outcome& o = passes.back().outcome;
  std::printf("outcome digest %016llx (sim.events=%llu net.messages=%llu "
              "net.bytes=%llu match.matches=%llu match.evals=%llu "
              "model.makespan_s=%.1f)\n",
              static_cast<unsigned long long>(o.digest()),
              static_cast<unsigned long long>(o.events),
              static_cast<unsigned long long>(o.messages),
              static_cast<unsigned long long>(o.bytes),
              static_cast<unsigned long long>(o.matches),
              static_cast<unsigned long long>(o.evals), o.makespan_s);
  std::printf("failed_frac %.6g (%llu failed of %llu attempted)\n",
              ratio(static_cast<double>(sheet.failed), static_cast<double>(sheet.attempted)),
              static_cast<unsigned long long>(sheet.failed),
              static_cast<unsigned long long>(sheet.attempted));
  const std::vector<Metric>& metrics = opt.trace ? sheet.per_layer : sheet.end_to_end;
  for (const Metric& m : metrics) {
    sheet.check(std::isfinite(m.value), m.name + " is a finite number");
  }
  if (opt.trace) {
    std::printf("spans (host time, summed over the run)\n");
    for (const auto& [name, t] : span_totals(tracer.spans())) {
      std::printf("  %-28s %7zu  total %10.4f s  self %10.4f s\n", name.c_str(),
                  t.count, t.total_s, t.self_s);
    }
    if (!opt.trace_out.empty() && !tracer.write_chrome_json(opt.trace_out)) {
      std::fprintf(stderr, "perfbench: cannot write %s\n", opt.trace_out.c_str());
    }
  }
  print_metrics(opt.trace ? "per-layer metrics" : "end-to-end metrics", metrics);
  for (const std::string& note : sheet.notes) std::printf("note: %s\n", note.c_str());

  const std::set<std::string> failures(sheet.check_failures.begin(),
                                       sheet.check_failures.end());
  for (const std::string& f : failures) std::printf("CHECK FAILED: %s\n", f.c_str());
  const bool correct = failures.empty();
  print_json(correct, sheet, metrics);
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  perfbench::RunOptions opt;
  bool have[4] = {};
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const char* value = argv[i + 1];
    std::uint64_t n = 0;
    if (flag == "--workload") {
      opt.workload = value;
      have[0] = true;
    } else if (flag == "--seed" && perfbench::parse_u64(value, n)) {
      opt.seed = n;
      have[1] = true;
    } else if (flag == "--seconds" && perfbench::parse_u64(value, n) && n >= 1 &&
               n <= 600) {
      opt.seconds = static_cast<double>(n);
      have[2] = true;
    } else if (flag == "--trace" && (std::strcmp(value, "0") == 0 ||
                                     std::strcmp(value, "1") == 0)) {
      opt.trace = value[0] == '1';
      have[3] = true;
    } else if (flag == "--trace-out") {
      opt.trace_out = value;
    } else {
      return perfbench::usage(argv[0]);
    }
  }
  if (argc % 2 == 0 || !have[0] || !have[1] || !have[2] || !have[3]) {
    return perfbench::usage(argv[0]);
  }
  const int status = perfbench::run(opt);
  if (status == 2) return perfbench::usage(argv[0]);
  return status;
}
