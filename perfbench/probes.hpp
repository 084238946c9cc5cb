// Layer replays: each times one layer's public functions on inputs taken
// from the workload's own finished run, never on synthetic ones.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "bench.hpp"
#include "classad/classad.hpp"
#include "common/simtime.hpp"
#include "pool/pool.hpp"
#include "pool/report.hpp"

namespace perfbench {

struct ProbeInputs {
  /// JobDescription::to_summary_ad() of the submitted jobs.
  std::vector<esg::classad::ClassAd> job_ads;
  /// Built the way Schedd::advertise_push builds one, carrying up to the
  /// workload's advertise_max_jobs job ads.
  esg::classad::ClassAd submitter_ad;
  /// Startd::machine_ad() taken after the run: before boot the ads lack
  /// HasJava and the index would return no candidates.
  std::vector<esg::classad::ClassAd> machine_ads;
  esg::SimTime now{};
  std::uint64_t queue_depth = 0;
  double mean_message_bytes = 0;

  /// Each pool's (each campaign cell's) real journal and verdict inputs.
  struct Journal {
    std::string text;
    esg::pool::PoolReport report;
    bool finished = false;
  };
  std::vector<Journal> journals;
};

/// Take the ads, queue depth and message size from a live, finished pool.
void collect_pool_inputs(esg::pool::Pool& pool, ProbeInputs& in);

/// Run every layer replay and add its metrics to the sheet.
void run_probes(const ProbeInputs& in, std::uint64_t seed, Tracer& tracer,
                Sheet& sheet);

}  // namespace perfbench
