// Layer replays. Every probe times a layer's public functions on inputs the
// workload itself produced (its job ads, its submitter ad, its machines'
// ads after the run, its journals, its queue depth and message size), and
// reports the median over repeated samples.
#include "probes.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <optional>

#include "chaos/oracle.hpp"
#include "classad/index.hpp"
#include "classad/match.hpp"
#include "daemons/config.hpp"
#include "daemons/wire.hpp"
#include "net/fabric.hpp"
#include "obs/export.hpp"
#include "sim/engine.hpp"

namespace perfbench {
namespace {

using esg::SimTime;
namespace classad = esg::classad;
namespace daemons = esg::daemons;

/// Job ads per probe are capped so one sample stays short even at scale;
/// every machine ad is used, so the index is as large as the workload's.
constexpr std::size_t kMaxAds = 256;
constexpr std::size_t kMaxMatchSide = 64;
constexpr double kSampleBudgetS = 0.15;
constexpr std::size_t kMinSamples = 5;
constexpr std::size_t kMaxSamples = 2000;

double host_now() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Repeat `sample` (which times its own work) and return the median.
template <typename Fn>
double repeat_median(Tracer& tracer, const char* name, std::uint64_t parent,
                     Fn&& sample) {
  const Timed span(tracer, name, parent);
  std::vector<double> samples;
  const double start = host_now();
  while (samples.size() < kMinSamples ||
         (host_now() - start < kSampleBudgetS && samples.size() < kMaxSamples)) {
    samples.push_back(sample());
  }
  return median(std::move(samples));
}

/// Keeps the optimizer from discarding probe results.
volatile std::size_t g_sink = 0;

double dispatch_ns(Tracer& tracer, std::uint64_t parent, std::uint64_t depth,
                   std::uint64_t seed) {
  esg::sim::Engine engine(seed);
  // Park `depth` events beyond every probe event, so each schedule and pop
  // works against a heap as deep as the workload's.
  const SimTime parked = SimTime::hours(24 * 365);
  for (std::uint64_t i = 0; i < depth; ++i) {
    engine.schedule(parked + SimTime::usec(static_cast<std::int64_t>(i)), [] {});
  }
  esg::Rng rng(seed);
  std::vector<SimTime> delays(1000);
  for (SimTime& d : delays) d = SimTime::usec(rng.uniform_int(1, 1000));
  return repeat_median(tracer, "probe.sim.dispatch", parent, [&] {
    const double t0 = host_now();
    for (const SimTime d : delays) engine.schedule(d, [] {});
    g_sink = g_sink + engine.run(engine.now() + SimTime::msec(2));
    return (host_now() - t0) * 1e9 / static_cast<double>(delays.size());
  });
}

double send_ns(Tracer& tracer, std::uint64_t parent, double mean_bytes,
               std::uint64_t seed, Sheet& sheet) {
  esg::sim::Engine engine(seed);
  esg::net::NetworkFabric fabric(engine);
  const esg::net::Address addr{"central", daemons::Ports{}.matchmaker};
  std::vector<esg::net::Endpoint> accepted;
  std::uint64_t delivered = 0;
  (void)fabric.listen(addr, [&](esg::net::Endpoint endpoint) {
    endpoint.set_on_message(
        [&delivered](const std::string& m) { delivered += m.size(); });
    accepted.push_back(std::move(endpoint));
  });
  const std::string payload(
      static_cast<std::size_t>(std::max(1.0, std::round(mean_bytes))), 'x');
  constexpr int kOps = 64;
  std::uint64_t sent = 0;
  // One operation is what an advertise or an RPC costs the fabric:
  // connect, send one message, run to delivery, close.
  const double ns = repeat_median(tracer, "probe.net.send", parent, [&] {
    const double t0 = host_now();
    for (int k = 0; k < kOps; ++k) {
      esg::net::Endpoint client;
      fabric.connect("submit0", addr,
                     [&](esg::Result<esg::net::Endpoint> connected) {
                       if (!connected.ok()) return;
                       client = connected.value();
                       if (client.send(payload).ok()) sent += payload.size();
                     });
      engine.run();
      client.close();
      engine.run();
      accepted.clear();
    }
    return (host_now() - t0) * 1e9 / kOps;
  });
  sheet.check(sent > 0 && delivered == sent,
              "net.send replay: every sent byte is delivered");
  return ns;
}

}  // namespace

void collect_pool_inputs(esg::pool::Pool& pool, ProbeInputs& in) {
  in.now = pool.engine().now();
  in.queue_depth = pool.engine().pending();
  const std::uint64_t messages = pool.fabric().total_messages();
  in.mean_message_bytes =
      messages == 0 ? 0
                    : static_cast<double>(pool.fabric().total_bytes()) /
                          static_cast<double>(messages);

  const std::size_t max_jobs = pool.config().timeouts.advertise_max_jobs;
  std::vector<classad::Value> advertised;
  for (const auto& [id, record] : pool.schedd().jobs()) {
    if (in.job_ads.size() >= std::max(kMaxAds, max_jobs)) break;
    esg::Result<classad::ClassAd> ad = record.description.to_summary_ad();
    if (!ad.ok()) continue;
    if (advertised.size() < max_jobs) {
      advertised.push_back(classad::Value::ad(
          std::make_shared<const classad::ClassAd>(ad.value())));
    }
    in.job_ads.push_back(std::move(ad).value());
  }
  // The same attributes, in the same order, as Schedd::advertise_push.
  const std::string host = pool.config().submit.name;
  classad::ClassAd submitter;
  submitter.set("MyType", "Submitter");
  submitter.set("Name", "schedd@" + host);
  submitter.set("ScheddHost", host);
  submitter.set("ScheddPort", daemons::Ports{}.schedd);
  submitter.set("IdleJobs", static_cast<std::int64_t>(advertised.size()));
  submitter.insert("Jobs", std::make_unique<classad::Literal>(
                               classad::Value::list(std::move(advertised))));
  in.submitter_ad = std::move(submitter);

  for (const esg::pool::MachineSpec& spec : pool.config().machines) {
    if (const daemons::Startd* startd = pool.startd(spec.name)) {
      in.machine_ads.push_back(startd->machine_ad());
    }
  }
}

void run_probes(const ProbeInputs& in, std::uint64_t seed, Tracer& tracer,
                Sheet& sheet) {
  const Timed probes(tracer, "probes");
  const std::uint64_t parent = probes.id();

  // ---- sim ----
  sheet.layer("sim.dispatch_ns", dispatch_ns(tracer, parent, in.queue_depth, seed),
              "ns");
  sheet.layer("sim.queue_depth", static_cast<double>(in.queue_depth), "count");

  // ---- net ----
  sheet.layer("net.send_ns",
              send_ns(tracer, parent, in.mean_message_bytes, seed, sheet), "ns");

  // ---- classad: wire codec ----
  std::vector<daemons::WireMessage> messages;
  messages.push_back({daemons::kCmdUpdateSubmitterAd, in.submitter_ad});
  for (const classad::ClassAd& ad : in.machine_ads) {
    messages.push_back({daemons::kCmdUpdateStartdAd, ad});
  }
  std::vector<std::string> wires;
  double wire_bytes = 0;
  for (const daemons::WireMessage& m : messages) {
    wires.push_back(m.encode());
    wire_bytes += static_cast<double>(wires.back().size());
  }
  sheet.layer("classad.submitter_ad_bytes",
              static_cast<double>(wires.front().size()), "B");
  sheet.layer("classad.wire_encode_ns_per_byte",
              repeat_median(tracer, "probe.classad.encode", parent, [&] {
                const double t0 = host_now();
                for (const daemons::WireMessage& m : messages) {
                  g_sink = g_sink + m.encode().size();
                }
                return (host_now() - t0) * 1e9 / wire_bytes;
              }),
              "ns/B");
  bool parsed_all = true;
  sheet.layer("classad.wire_parse_ns_per_byte",
              repeat_median(tracer, "probe.classad.parse", parent, [&] {
                const double t0 = host_now();
                for (const std::string& wire : wires) {
                  parsed_all = daemons::WireMessage::parse(wire).ok() && parsed_all;
                }
                return (host_now() - t0) * 1e9 / wire_bytes;
              }),
              "ns/B");
  sheet.check(parsed_all, "classad replay: every encoded ad parses back");

  // ---- classad: copies and two-way matching ----
  sheet.layer("classad.copy_ns",
              repeat_median(tracer, "probe.classad.copy", parent, [&] {
                const double t0 = host_now();
                const classad::ClassAd copy(in.submitter_ad);
                g_sink = g_sink + copy.size();
                return (host_now() - t0) * 1e9;
              }),
              "ns");
  const std::size_t jobs_side = std::min(in.job_ads.size(), kMaxMatchSide);
  const std::size_t machines_side = std::min(in.machine_ads.size(), kMaxMatchSide);
  sheet.layer("classad.match_ns",
              repeat_median(tracer, "probe.classad.match", parent, [&] {
                const double t0 = host_now();
                for (std::size_t j = 0; j < jobs_side; ++j) {
                  for (std::size_t m = 0; m < machines_side; ++m) {
                    g_sink = g_sink + classad::symmetric_match(
                                          in.job_ads[j], in.machine_ads[m], in.now)
                                          .matched;
                  }
                }
                return (host_now() - t0) * 1e9 /
                       static_cast<double>(std::max<std::size_t>(
                           1, jobs_side * machines_side));
              }),
              "ns");

  // ---- classad: the matchmaker's attribute index ----
  const double machines = static_cast<double>(std::max<std::size_t>(1, in.machine_ads.size()));
  sheet.layer("classad.index_insert_ns",
              repeat_median(tracer, "probe.classad.index_insert", parent, [&] {
                std::optional<classad::AdIndex> index(std::in_place);
                const double t0 = host_now();
                for (std::size_t i = 0; i < in.machine_ads.size(); ++i) {
                  index->insert(static_cast<std::uint32_t>(i), in.machine_ads[i]);
                }
                const double ns = (host_now() - t0) * 1e9 / machines;
                g_sink = g_sink + index->size();
                return ns;
              }),
              "ns");
  classad::AdIndex index;
  for (std::size_t i = 0; i < in.machine_ads.size(); ++i) {
    index.insert(static_cast<std::uint32_t>(i), in.machine_ads[i]);
  }
  const std::size_t lookups = std::min(in.job_ads.size(), kMaxAds);
  std::vector<std::uint32_t> candidates;
  double candidates_total = 0;
  for (std::size_t j = 0; j < lookups; ++j) {
    if (!index.candidates(classad::profile_requirements(in.job_ads[j], in.now),
                          candidates)) {
      candidates.resize(in.machine_ads.size());  // unindexable: full scan
    }
    candidates_total += static_cast<double>(candidates.size());
  }
  sheet.layer("classad.index_lookup_ns",
              repeat_median(tracer, "probe.classad.index_lookup", parent, [&] {
                const double t0 = host_now();
                for (std::size_t j = 0; j < lookups; ++j) {
                  g_sink = g_sink + index.candidates(classad::profile_requirements(
                                                         in.job_ads[j], in.now),
                                                     candidates);
                }
                return (host_now() - t0) * 1e9 /
                       static_cast<double>(std::max<std::size_t>(1, lookups));
              }),
              "ns");
  sheet.layer("classad.candidates_per_job",
              candidates_total / static_cast<double>(std::max<std::size_t>(1, lookups)),
              "count");

  // ---- obs and chaos: each pool's real journal ----
  std::vector<std::vector<esg::obs::TraceEvent>> events(in.journals.size());
  bool journals_parse = true;
  const double journals = static_cast<double>(std::max<std::size_t>(1, in.journals.size()));
  sheet.layer("obs.parse_journal_ms",
              repeat_median(tracer, "probe.obs.parse_journal", parent, [&] {
                const double t0 = host_now();
                for (std::size_t i = 0; i < in.journals.size(); ++i) {
                  std::optional<esg::obs::Journal> j =
                      esg::obs::parse_journal(in.journals[i].text);
                  journals_parse = journals_parse && j.has_value();
                  if (j) events[i] = std::move(j->events);
                }
                return (host_now() - t0) * 1e3 / journals;
              }),
              "ms");
  sheet.check(journals_parse, "obs replay: every journal parses back");
  sheet.layer("chaos.oracle_ms",
              repeat_median(tracer, "probe.chaos.oracles", parent, [&] {
                const double t0 = host_now();
                for (std::size_t i = 0; i < in.journals.size(); ++i) {
                  g_sink = g_sink + esg::chaos::evaluate_oracles(
                                        in.journals[i].report,
                                        in.journals[i].finished, events[i])
                                        .events_checked;
                }
                return (host_now() - t0) * 1e3 / journals;
              }),
              "ms");
}

}  // namespace perfbench
