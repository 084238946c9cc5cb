// The three workloads. Each is a closed batch: every job (or every plan)
// is generated from the workload seed and submitted before the first
// simulated event, and all load comes from this one process.
#include <sched.h>

#include <algorithm>
#include <chrono>
#include <optional>
#include <sstream>

#include "chaos/campaign.hpp"
#include "common/rng.hpp"
#include "common/strings.hpp"
#include "obs/export.hpp"
#include "pool/pool.hpp"
#include "pool/sweep.hpp"
#include "pool/workload.hpp"
#include "probes.hpp"

namespace perfbench {
namespace {

namespace pool = esg::pool;
namespace daemons = esg::daemons;
namespace chaos = esg::chaos;
using esg::SimTime;
using esg::strfmt;

std::uint64_t fnv1a(const std::string& text) {
  std::uint64_t h = 1469598103934665603ULL;
  for (const unsigned char c : text) {
    h ^= c;
    h *= 1099511628211ULL;
  }
  return h;
}

/// Environment-failed attempts as the schedd recorded them (the model's
/// ground-truth count is PoolReport::incidental_attempts).
std::uint64_t schedd_incidental(const daemons::Schedd& schedd) {
  std::uint64_t n = 0;
  for (const auto& [id, record] : schedd.jobs()) {
    for (const daemons::AttemptRecord& attempt : record.attempts) {
      if (attempt.summary.environment_error.has_value()) ++n;
    }
  }
  return n;
}

/// The report checks every pass runs on every pool. Returns the number of
/// failed jobs: unfinished at the limit, or an incidental error exposed to
/// the user as a program result.
std::uint64_t check_report(const pool::PoolReport& r, bool finished,
                           std::uint64_t submitted, const std::string& where,
                           Sheet& sheet) {
  sheet.check(finished && r.unfinished == 0,
              where + ": every job is terminal");
  sheet.check(r.completed_genuine + r.completed_program_error +
                      r.user_incidental_exposures + r.unexecutable +
                      r.unfinished ==
                  r.jobs_total,
              where + ": PoolReport categories partition jobs_total");
  sheet.check(static_cast<std::uint64_t>(r.jobs_total) == submitted,
              where + ": every submitted job is reported");
  sheet.check(r.user_incidental_exposures == 0,
              where + ": zero incidental exposures under the scoped discipline");
  const std::uint64_t reported = static_cast<std::uint64_t>(r.jobs_total);
  return static_cast<std::uint64_t>(r.unfinished + r.user_incidental_exposures) +
         (submitted > reported ? submitted - reported : 0);
}

/// One Pool on one engine: `scale` and `faulty-io`.
class PoolWorkload final : public Workload {
 public:
  struct Shape {
    std::string summary;
    pool::PoolConfig config;
    pool::WorkloadOptions jobs;
    bool scale_tiers = false;  ///< pin jobs to scale_tiers() (make_scale_workload)
    bool stage_inputs = false;
    SimTime limit = SimTime::hours(48);
  };

  PoolWorkload(Shape shape, std::uint64_t seed)
      : shape_(std::move(shape)), seed_(seed) {}

  [[nodiscard]] std::string describe() const override { return shape_.summary; }

  Outcome pass(Tracer& tracer, bool /*traced*/, PassTimes& times,
               ProbeInputs* probe, Sheet& sheet) override {
    Timed pass_span(tracer, "pass");
    const std::uint64_t parent = pass_span.id();
    const double pass_start = tracer.now();
    std::optional<pool::Pool> pool;

    Timed build(tracer, "pool.build", parent);
    pool.emplace(shape_.config);
    const double build_s = build.stop();

    Timed generate(tracer, "workload.generate", parent);
    std::vector<daemons::JobDescription> jobs = generate_jobs();
    const double generate_s = generate.stop();
    const std::uint64_t submitted = jobs.size();

    Timed submit(tracer, "pool.submit", parent);
    submit_jobs(*pool, std::move(jobs));
    const double submit_s = submit.stop();

    Timed run(tracer, "pool.run", parent);
    const bool finished = pool->run_until_done(shape_.limit);
    const double run_s = run.stop();

    Timed report_span(tracer, "pool.report", parent);
    const pool::PoolReport report = pool->report();
    const double report_s = report_span.stop();

    Timed check(tracer, "bench.check", parent);
    Outcome out = outcome(*pool, report);
    sheet.attempted += submitted;
    sheet.failed += check_report(report, finished, submitted, "pool", sheet);
    const double check_s = check.stop();

    double probe_s = 0;
    if (probe != nullptr) {
      const double probe_start = tracer.now();
      Timed journal(tracer, "obs.journal_str", parent);
      std::string text = esg::obs::journal_str(pool->recorder());
      times.journal_str.push_back(journal.stop());
      Timed dump(tracer, "obs.render_dump", parent);
      const std::string rendered =
          esg::obs::render_dump(pool->recorder().events(), "perfbench");
      times.render_dump.push_back(dump.stop());
      out.journal_bytes = text.size();
      collect_pool_inputs(*pool, *probe);
      probe->journals.push_back({std::move(text), report, finished});
      probe_s = tracer.now() - probe_start;
    }

    Timed teardown(tracer, "pool.teardown", parent);
    pool.reset();
    const double teardown_s = teardown.stop();

    times.setup = build_s + generate_s + submit_s;
    times.window = run_s + report_s + check_s + teardown_s;
    times.build.push_back(build_s);
    times.submit.push_back(submit_s);
    times.run.push_back(run_s);
    times.report.push_back(report_s);
    times.teardown.push_back(teardown_s);
    times.cell.push_back(build_s + submit_s + run_s + report_s + teardown_s);
    times.batch_wall = tracer.now() - pass_start - probe_s;
    times.judge = check_s;
    times.width = 1;
    return out;
  }

  double setup_only() override {
    const auto start = std::chrono::steady_clock::now();
    std::optional<pool::Pool> pool(std::in_place, shape_.config);
    submit_jobs(*pool, generate_jobs());
    return std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
        .count();
  }

 private:
  [[nodiscard]] std::vector<daemons::JobDescription> generate_jobs() const {
    esg::Rng rng = esg::Rng(seed_).fork("perfbench.workload");
    return shape_.scale_tiers ? pool::make_scale_workload(shape_.jobs, rng)
                              : pool::make_workload(shape_.jobs, rng);
  }

  void submit_jobs(pool::Pool& pool,
                   std::vector<daemons::JobDescription> jobs) const {
    if (shape_.stage_inputs) pool::stage_workload_inputs(pool);
    for (daemons::JobDescription& job : jobs) pool.submit(std::move(job));
  }

  static Outcome outcome(pool::Pool& pool, const pool::PoolReport& report) {
    Outcome out;
    out.jobs = static_cast<std::uint64_t>(report.jobs_total);
    out.events = pool.engine().executed();
    out.messages = pool.fabric().total_messages();
    out.bytes = pool.fabric().total_bytes();
    out.matches = pool.matchmaker().matches_made();
    out.evals = pool.matchmaker().match_evals();
    out.attempts = pool.schedd().total_attempts();
    out.claims_denied = pool.schedd().claims_denied();
    out.schedd_incidental = schedd_incidental(pool.schedd());
    out.spans = pool.recorder().total_recorded();
    out.makespan_s = report.makespan_seconds;
    out.wasted_cpu_s = report.wasted_cpu_seconds;
    out.model_incidental = report.incidental_attempts;
    out.digest_text =
        report.str() +
        strfmt("events=%llu messages=%llu bytes=%llu matches=%llu evals=%llu "
               "attempts=%llu denied=%llu spans=%llu\n",
               static_cast<unsigned long long>(out.events),
               static_cast<unsigned long long>(out.messages),
               static_cast<unsigned long long>(out.bytes),
               static_cast<unsigned long long>(out.matches),
               static_cast<unsigned long long>(out.evals),
               static_cast<unsigned long long>(out.attempts),
               static_cast<unsigned long long>(out.claims_denied),
               static_cast<unsigned long long>(out.spans));
    return out;
  }

  Shape shape_;
  std::uint64_t seed_;
};

/// What the traced campaign path records about one cell from inside it.
struct CellRecord {
  double start = 0, end = 0;
  double build = 0, submit = 0, run = 0, report = 0, teardown = 0;
  double journal_str = 0, render_dump = 0;
  std::uint64_t matches = 0, evals = 0, attempts = 0, denied = 0;
  std::uint64_t schedd_incidental = 0, spans = 0, journal_bytes = 0;
  std::optional<ProbeInputs::Journal> journal;  ///< kept for the replays
};

/// The chaos campaign as CI runs it, through chaos::CampaignRunner.
class CampaignWorkload final : public Workload {
 public:
  CampaignWorkload(chaos::CampaignOptions options, std::string summary)
      : options_(std::move(options)), summary_(std::move(summary)) {}

  [[nodiscard]] std::string describe() const override { return summary_; }

  Outcome pass(Tracer& tracer, bool traced, PassTimes& times,
               ProbeInputs* probe, Sheet& sheet) override {
    Timed pass_span(tracer, "pass");
    const std::uint64_t parent = pass_span.id();

    // Set-up is what the runner does before its first simulated event:
    // draw every plan from the campaign seed and build its sweep cell.
    Timed draw(tracer, "campaign.draw", parent);
    const std::size_t drawn = draw_cells().size();
    times.setup = draw.stop();

    std::vector<CellRecord> records(static_cast<std::size_t>(options_.plans));
    const chaos::CampaignRunner runner(options_);
    Timed run(tracer, "campaign.run", parent);
    const chaos::CampaignResult result =
        traced ? runner.run(traced_hooks(tracer, run.id(), records, probe))
               : runner.run();
    const double run_s = run.stop();
    const double run_end = tracer.now();

    Timed check(tracer, "bench.check", parent);
    Outcome out;
    sheet.check(drawn == result.cells.size() &&
                    result.cells.size() == static_cast<std::size_t>(options_.plans),
                "campaign: one verdict per drawn plan");
    sheet.check(result.all_ok(), "campaign: every cell is oracle-green");
    sheet.check(result.flaky == 0, "campaign: no cell is flaky");
    sheet.attempted += static_cast<std::uint64_t>(options_.plans);
    std::ostringstream digest;
    digest << result.json();
    for (const chaos::CellVerdict& cell : result.cells) {
      const pool::PoolReport& r = cell.report;
      check_report(r, cell.finished, static_cast<std::uint64_t>(options_.shape.jobs),
                   strfmt("campaign plan%zu", cell.index), sheet);
      if (!cell.oracles.ok() || cell.flaky) ++sheet.failed;
      out.jobs += static_cast<std::uint64_t>(r.jobs_total);
      out.events += cell.engine_events;
      out.messages += r.network_messages;
      out.bytes += r.network_bytes;
      out.makespan_s += r.makespan_seconds / static_cast<double>(result.cells.size());
      out.wasted_cpu_s += r.wasted_cpu_seconds;
      out.model_incidental += r.incidental_attempts;
      digest << r.str();
    }
    out.digest_text = digest.str();
    const double check_s = check.stop();
    times.window = run_s + check_s;
    times.width = width();

    if (traced) {
      double first_start = run_end, last_end = 0;
      for (const CellRecord& c : records) {
        out.matches += c.matches;
        out.evals += c.evals;
        out.attempts += c.attempts;
        out.claims_denied += c.denied;
        out.schedd_incidental += c.schedd_incidental;
        out.spans += c.spans;
        out.journal_bytes += c.journal_bytes;
        if (probe != nullptr && c.journal) probe->journals.push_back(*c.journal);
        times.build.push_back(c.build);
        times.submit.push_back(c.submit);
        times.run.push_back(c.run);
        times.report.push_back(c.report);
        times.teardown.push_back(c.teardown);
        times.journal_str.push_back(c.journal_str);
        times.render_dump.push_back(c.render_dump);
        times.cell.push_back(c.end - c.start);
        first_start = std::min(first_start, c.start);
        last_end = std::max(last_end, c.end);
      }
      times.batch_wall = last_end - first_start;
      times.judge = run_end - last_end;  // the runner's serial judging pass
    }
    return out;
  }

  double setup_only() override {
    const auto start = std::chrono::steady_clock::now();
    const std::size_t cells = draw_cells().size();
    return cells == 0 ? 0
                      : std::chrono::duration<double>(
                            std::chrono::steady_clock::now() - start)
                            .count();
  }

 private:
  [[nodiscard]] unsigned width() const {
    return std::min<unsigned>(options_.threads,
                              static_cast<unsigned>(options_.plans));
  }

  /// The runner's default draw, made through the same public functions.
  [[nodiscard]] std::vector<pool::SweepCell> draw_cells() const {
    chaos::PlanShape bounds = options_.bounds;
    bounds.hosts.clear();
    for (int i = 0; i < options_.shape.machines; ++i) {
      bounds.hosts.push_back(strfmt("exec%d", i));
    }
    esg::Rng seeds(options_.seed);
    std::vector<pool::SweepCell> cells;
    for (int i = 0; i < options_.plans; ++i) {
      chaos::FaultPlan plan = chaos::make_random_plan(seeds.next_u64(), bounds);
      plan.shape = options_.shape;
      cells.push_back(chaos::CampaignRunner::make_cell(plan, strfmt("plan%d", i)));
    }
    return cells;
  }

  /// Campaign hooks whose cells do exactly what SweepRunner does with a
  /// Pool-based cell, with a span around each call into the pool. The
  /// outcome, and so the campaign's verdict bytes, must not change.
  static chaos::CampaignHooks traced_hooks(Tracer& tracer, std::uint64_t parent,
                                           std::vector<CellRecord>& records,
                                           ProbeInputs* probe) {
    chaos::CampaignHooks hooks;
    auto next = std::make_shared<std::size_t>(0);
    hooks.cell = [&tracer, parent, &records, probe, next](
                     const chaos::FaultPlan& plan, std::string label) {
      pool::SweepCell cell = chaos::CampaignRunner::make_cell(plan, label);
      const std::size_t index = (*next)++;
      CellRecord* rec = &records.at(index);
      // Cell 0's pool also feeds the ad and engine replays (every cell has
      // the same shape); every cell's journal feeds the obs/chaos replays.
      ProbeInputs* inputs = index == 0 ? probe : nullptr;
      const bool keep_journal = probe != nullptr;
      cell.run = [&tracer, parent, rec, inputs, keep_journal, config = cell.config,
                  setup = cell.setup, limit = cell.limit, label] {
        pool::CellOutcome out;
        out.seed = config.seed;
        out.label = label;
        rec->start = tracer.now();
        Timed span(tracer, "sweep.cell", parent);
        std::optional<pool::Pool> p;
        {
          Timed t(tracer, "pool.build", span.id());
          p.emplace(config);
          rec->build = t.stop();
        }
        {
          Timed t(tracer, "pool.submit", span.id());
          if (setup) setup(*p);
          rec->submit = t.stop();
        }
        {
          Timed t(tracer, "pool.run", span.id());
          out.finished = p->run_until_done(limit);
          rec->run = t.stop();
        }
        {
          Timed t(tracer, "pool.report", span.id());
          out.report = p->report();
          rec->report = t.stop();
        }
        out.engine_events = p->engine().executed();
        if (config.trace) {
          out.trace_events = p->recorder().total_recorded();
          {
            Timed t(tracer, "obs.render_dump", span.id());
            out.trace_dump = esg::obs::render_dump(p->recorder().events(), out.label);
            rec->render_dump = t.stop();
          }
          {
            Timed t(tracer, "obs.journal_str", span.id());
            out.journal = esg::obs::journal_str(p->recorder());
            rec->journal_str = t.stop();
          }
        }
        rec->matches = p->matchmaker().matches_made();
        rec->evals = p->matchmaker().match_evals();
        rec->attempts = p->schedd().total_attempts();
        rec->denied = p->schedd().claims_denied();
        rec->schedd_incidental = schedd_incidental(p->schedd());
        rec->spans = p->recorder().total_recorded();
        rec->journal_bytes = out.journal.size();
        if (inputs != nullptr) collect_pool_inputs(*p, *inputs);
        {
          Timed t(tracer, "pool.teardown", span.id());
          p.reset();
          rec->teardown = t.stop();
        }
        span.stop();
        rec->end = tracer.now();
        if (keep_journal) {
          rec->journal = ProbeInputs::Journal{out.journal, out.report, out.finished};
        }
        return out;
      };
      return cell;
    };
    return hooks;
  }

  chaos::CampaignOptions options_;
  std::string summary_;
};

/// Sweep width: every core the process may use, but at most four, so the
/// figure compares across hosts.
unsigned campaign_width() {
  cpu_set_t set;
  CPU_ZERO(&set);
  int cores = 1;
  if (sched_getaffinity(0, sizeof(set), &set) == 0) cores = CPU_COUNT(&set);
  return static_cast<unsigned>(std::clamp(cores, 1, 4));
}

}  // namespace

std::uint64_t Outcome::digest() const { return fnv1a(digest_text); }

std::unique_ptr<Workload> make_workload(const std::string& name,
                                        std::uint64_t seed) {
  if (name == "scale") {
    // pool_bench --scale shrunk ~10x: same heterogeneous tiers and ad
    // timeouts, scoped discipline, no faults, recorder off.
    PoolWorkload::Shape s;
    s.config.seed = seed;
    s.config.discipline = daemons::DisciplineConfig::scoped();
    s.config.timeouts.matchmaker_interval = SimTime::sec(10);
    s.config.timeouts.advertise_interval = SimTime::sec(300);
    s.config.timeouts.ad_lifetime = SimTime::sec(900);
    s.config.timeouts.advertise_max_jobs = 1000;
    s.config.timeouts.advertise_coalesce = SimTime::sec(2);
    s.config.machines = pool::make_scale_machines(1000);
    s.jobs.count = 10000;
    s.jobs.mean_compute = SimTime::minutes(5);
    s.scale_tiers = true;
    s.summary = "scale: 1000 machines x 10000 jobs in 12 platform tiers, "
                "advertise_max_jobs 1000, 2 s coalesce, scoped, no faults, "
                "recorder off, one engine";
    return std::make_unique<PoolWorkload>(std::move(s), seed);
  }
  if (name == "faulty-io") {
    PoolWorkload::Shape s;
    s.config.seed = seed;
    s.config.discipline = daemons::DisciplineConfig::scoped();
    s.config.discipline.schedd_avoidance = true;
    s.config.trace = true;
    for (int i = 0; i < 64; ++i) {
      pool::MachineSpec m = i % 16 == 0
                                ? pool::MachineSpec::misconfigured_java()
                                : pool::MachineSpec::good();
      m.name = strfmt("exec%d", i);
      if (i % 4 == 1) m.fs_fault_rate = 0.3;
      if (i % 8 == 2) m.net_faults.drop_msg_prob = 0.002;
      s.config.machines.push_back(std::move(m));
    }
    s.jobs.count = 4096;
    s.jobs.remote_io_fraction = 0.6;
    s.jobs.remote_write_fraction = 0.4;
    s.jobs.program_error_fraction = 0.1;
    s.stage_inputs = true;
    s.summary = "faulty-io: 64 machines (4 black holes, 16 with fs_fault_rate "
                "0.3, 8 dropping 0.2% of messages) x 4096 jobs, remote read "
                "0.6 / write 0.4, program errors 0.1, scoped + avoidance, "
                "recorder on";
    return std::make_unique<PoolWorkload>(std::move(s), seed);
  }
  if (name == "campaign") {
    chaos::CampaignOptions options;
    options.seed = seed;
    options.plans = 512;
    options.threads = campaign_width();
    options.shrink = false;
    const chaos::PoolShape shape;
    std::string summary = strfmt(
        "campaign: %d plans x (%d machines x %d jobs, remote I/O), scoped, "
        "recorder on, no shrinking, SweepRunner width %u",
        options.plans, shape.machines, shape.jobs, options.threads);
    return std::make_unique<CampaignWorkload>(std::move(options),
                                              std::move(summary));
  }
  return nullptr;
}

}  // namespace perfbench
