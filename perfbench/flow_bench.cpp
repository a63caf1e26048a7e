// Flow benchmark harness.  Drives one workload of the FMEA flow through the
// library's public API, in this one process, and prints one JSON document
// with the raw measurements: set-up times, and for every job its wall/CPU
// time, the telemetry-registry deltas taken around it, the artifact-store
// growth and its check verdict.  run.py turns that document into metrics.
//
//   flow_bench --workload paper_flow|edit_loop|search|warm_replay
//              --seed N --seconds S --trace 0|1 --work DIR
//
// Every program knob stays at its default: no CampaignOptions field, thread
// count, worker count, tier, lane width or evaluation mode is set here.
// Design edits are built from memsys::GateLevelOptions fields.
//
// With --trace 1 the harness records a span around each public call it makes
// (the job is the root span), keeps them in memory and writes them to
// DIR/trace.json as Chrome trace events when the run ends.
#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <ctime>
#include <exception>
#include <filesystem>
#include <fstream>
#include <functional>
#include <iostream>
#include <map>
#include <memory>
#include <random>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "core/artifact_store.hpp"
#include "core/flow.hpp"
#include "core/flow_report.hpp"
#include "core/frmem_config.hpp"
#include "core/incremental.hpp"
#include "core/srs.hpp"
#include "core/validation.hpp"
#include "faultsim/lanes.hpp"
#include "fmea/iec61508.hpp"
#include "memsys/gatelevel.hpp"
#include "memsys/workloads.hpp"
#include "netlist/hash.hpp"
#include "obs/json.hpp"
#include "obs/telemetry.hpp"
#include "search/search.hpp"

namespace fs = std::filesystem;
using socfmea::obs::Json;
using namespace socfmea;

namespace {

using Clock = std::chrono::steady_clock;

double secondsBetween(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

double cpuSeconds() {
  return static_cast<double>(std::clock()) / CLOCKS_PER_SEC;
}

/// Peak resident set of this process image (VmHWM, which exec resets;
/// getrusage's ru_maxrss would also count the launcher before exec).
double peakRssMb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    }
  }
  throw std::runtime_error("VmHWM missing from /proc/self/status");
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

// ---- seeds -----------------------------------------------------------------

/// The benchmark seed drives the stimulus and the fault sampling.  Seed 42 is
/// the golden's seed: it maps to the stimulus seed 42 and the fault-sampling
/// seed 7 that reports/memsys_sil3.golden.json was recorded with.
constexpr std::uint64_t kGoldenSeed = 42;

struct Seeds {
  std::uint64_t stimulus;
  std::uint64_t faults;
};

Seeds deriveSeeds(std::uint64_t n) { return {n, n ^ (kGoldenSeed ^ 7)}; }

// ---- tracing ---------------------------------------------------------------

struct Span {
  std::string name;
  int parent = -1;  ///< index into the span list; -1 for a root
  double start = 0.0;
  double end = 0.0;
};

/// In-memory span recorder.  Disabled, every call is a no-op.
class Tracer {
 public:
  explicit Tracer(bool enabled) : enabled_(enabled), epoch_(Clock::now()) {}

  [[nodiscard]] bool enabled() const { return enabled_; }
  [[nodiscard]] double now() const {
    return secondsBetween(epoch_, Clock::now());
  }

  int open(std::string name) {
    if (!enabled_) return -1;
    const int id = static_cast<int>(spans_.size());
    spans_.push_back({std::move(name), top(), now(), 0.0});
    stack_.push_back(id);
    return id;
  }
  void close(int id) {
    if (id < 0) return;
    spans_[id].end = now();
    stack_.pop_back();
  }
  /// Records an already finished span under the innermost open one.
  void record(std::string name, double start, double end) {
    if (!enabled_) return;
    spans_.push_back({std::move(name), top(), start, end});
  }

  [[nodiscard]] const std::vector<Span>& spans() const { return spans_; }

  /// Duration minus the time covered by direct children (children of one
  /// span never overlap: the harness is single-threaded).
  [[nodiscard]] std::vector<double> selfTimes() const {
    std::vector<double> self(spans_.size());
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      self[i] = spans_[i].end - spans_[i].start;
    }
    for (const Span& s : spans_) {
      if (s.parent >= 0) self[s.parent] -= s.end - s.start;
    }
    return self;
  }

  /// Index of the root span that contains span `i`.
  [[nodiscard]] int rootOf(int i) const {
    while (spans_[i].parent >= 0) i = spans_[i].parent;
    return i;
  }

 private:
  [[nodiscard]] int top() const { return stack_.empty() ? -1 : stack_.back(); }

  bool enabled_;
  Clock::time_point epoch_;
  std::vector<Span> spans_;
  std::vector<int> stack_;
};

class SpanScope {
 public:
  SpanScope(Tracer& t, std::string name) : t_(t), id_(t.open(std::move(name))) {}
  ~SpanScope() { t_.close(id_); }
  SpanScope(const SpanScope&) = delete;
  SpanScope& operator=(const SpanScope&) = delete;

 private:
  Tracer& t_;
  int id_;
};

/// Runs `fn` inside a span named `name` and returns its result.
template <typename Fn>
auto traced(Tracer& t, const char* name, Fn&& fn) {
  const SpanScope s(t, name);
  return fn();
}

// ---- telemetry deltas ------------------------------------------------------

struct Telemetry {
  std::map<std::string, double> counters;
  std::map<std::string, double> timers;  ///< wall seconds
};

Telemetry snapshot() {
  const Json j = obs::Registry::global().toJson();
  Telemetry t;
  if (const Json* c = j.find("counters")) {
    for (const auto& [k, v] : c->items()) t.counters[k] = v.asDouble();
  }
  if (const Json* tm = j.find("timers")) {
    for (const auto& [k, v] : tm->items()) {
      t.timers[k] = v.at("wall_s").asDouble();
    }
  }
  return t;
}

Json deltaJson(const std::map<std::string, double>& before,
               const std::map<std::string, double>& after) {
  Json out = Json::object();
  for (const auto& [k, v] : after) {
    const auto it = before.find(k);
    const double d = v - (it == before.end() ? 0.0 : it->second);
    if (d != 0.0) out[k] = Json(d);
  }
  return out;
}

// ---- artifact store --------------------------------------------------------

struct DirUsage {
  std::uintmax_t bytes = 0;
  std::size_t files = 0;
};

DirUsage scanDir(const fs::path& dir) {
  DirUsage u;
  if (!fs::exists(dir)) return u;
  for (const auto& e : fs::recursive_directory_iterator(dir)) {
    if (!e.is_regular_file()) continue;
    u.bytes += e.file_size();
    ++u.files;
  }
  return u;
}

void freshDir(const fs::path& dir) {
  fs::remove_all(dir);
  fs::create_directories(dir);
}

// ---- designs ---------------------------------------------------------------

struct Architecture {
  const char* name;
  memsys::GateLevelOptions options;
};

/// v1 and the five v2 measures of the paper, each applied to v1 alone
/// (the last one is the full v2 set).
std::vector<Architecture> architectures() {
  const memsys::GateLevelOptions v1 = memsys::GateLevelOptions::v1();
  std::vector<Architecture> a;
  a.push_back({"v1", v1});
  a.push_back({"wbuf_parity", v1});
  a.back().options.wbufParity = true;
  a.push_back({"post_coder", v1});
  a.back().options.postCoderChecker = true;
  a.push_back({"redundant_checker", v1});
  a.back().options.redundantChecker = true;
  a.push_back({"addr_in_code", v1});
  a.back().options.addressInCode = true;
  a.push_back({"v2", memsys::GateLevelOptions::v2()});
  return a;
}

memsys::GateLevelDesign build(Tracer& t, const memsys::GateLevelOptions& o) {
  return traced(t, "memsys.build", [&] { return memsys::buildProtectionIp(o); });
}

/// Stimulus length of the iteration workloads (edit_loop, search,
/// warm_replay).
/// Shorter than the paper flow's 2000 cycles so that priming and the cold
/// reference runs fit the run budget on the serial default engine.
constexpr std::uint64_t kIterationCycles = 250;

memsys::ProtectionIpWorkload::Options iterationStimulus(const Seeds& s) {
  memsys::ProtectionIpWorkload::Options w;
  w.cycles = kIterationCycles;
  w.seed = s.stimulus;
  return w;
}

/// The verdict a design iteration produces: analytic SFF/DC/SIL plus the
/// campaign's outcome tally.  Compared with operator== (exact).
Json verdictJson(const core::FmeaFlow& flow,
                 const inject::CampaignResult& campaign) {
  Json v = Json::object();
  v["sff"] = Json(flow.sff());
  v["dc"] = Json(flow.dc());
  v["sil"] = Json(static_cast<int>(flow.sil()));
  v["tally"] = campaign.tally().toJson();
  return v;
}

struct IterationResult {
  core::IncrementalCampaign campaign;
  Json verdict;
};

/// One design through IncrementalFlow + runZoneFailureCampaign, the shape of
/// memsys_sil3_flow's incremental mode.  `store` null runs cold.
IterationResult runIteration(Tracer& t, const memsys::GateLevelDesign& dut,
                             core::ArtifactStore* store, const Seeds& seeds) {
  const memsys::ProtectionIpWorkload::Options wopt = iterationStimulus(seeds);
  core::IncrementalOptions iopt;
  iopt.store = store;
  iopt.workloadTag = netlist::hashMix(
      netlist::hashString("protection-ip-workload"),
      netlist::hashMix(wopt.cycles, wopt.seed));
  iopt.memFaultsPerKind = 48;
  auto inc = traced(t, "core.incremental", [&] {
    return std::make_unique<core::IncrementalFlow>(
        dut.nl, core::makeFrmemFlowConfig(dut), iopt);
  });
  memsys::ProtectionIpWorkload wl = traced(t, "memsys.workload", [&] {
    return memsys::ProtectionIpWorkload(dut, wopt);
  });
  IterationResult r;
  r.campaign = traced(t, "core.delta_campaign", [&] {
    return inc->runZoneFailureCampaign(wl, /*perBit=*/1, seeds.faults,
                                       /*detectionWindow=*/24);
  });
  r.verdict = verdictJson(inc->flow(), r.campaign.result);
  return r;
}

// ---- the run ---------------------------------------------------------------

struct Args {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 1.0;
  bool trace = false;
  fs::path work;
};

/// What one job reports back to the job loop.
struct JobOutcome {
  std::string kind;
  std::vector<std::string> problems;  ///< failed checks; empty = correct
  Json extra = Json::object();
};

class Bench {
 public:
  explicit Bench(Args a)
      : args_(std::move(a)),
        tracer_(args_.trace),
        seeds_(deriveSeeds(args_.seed)) {}

  Json run();

 private:
  // Each workload has a set-up and a job; edit_loop also checks after the
  // timed jobs.
  void setupPaperFlow();
  JobOutcome jobPaperFlow(std::size_t i);
  void setupEditLoop();
  JobOutcome jobEditLoop(std::size_t i);
  void checkEditLoop();
  void setupSearch();
  JobOutcome jobSearch(std::size_t i);
  void setupWarmReplay();
  JobOutcome jobWarmReplay(std::size_t i);

  /// Times `setup` inside "setup" spans: at least kMinSetups times, and
  /// until kSetupSeconds have passed, so cheap set-ups get a steady median.
  void timeSetups(const std::function<void()>& setup);
  /// Runs jobs until `seconds` have passed and the job count is a multiple
  /// of `round` (so every run sees the same mix of job kinds).  `prepare`
  /// runs before each job, untimed; `store` is scanned around each job.
  void runJobs(const std::function<JobOutcome(std::size_t)>& job,
               std::size_t round, const fs::path& store,
               const std::function<void()>& prepare = {});
  core::ArtifactStore openStore(const fs::path& dir) {
    return traced(tracer_, "store.open",
                  [&] { return core::ArtifactStore(dir); });
  }
  Json traceSummary() const;
  void writeChromeTrace(const fs::path& file) const;

  static constexpr std::size_t kMinSetups = 5;
  static constexpr std::size_t kMaxSetups = 1000;
  static constexpr double kSetupSeconds = 2.0;

  Args args_;
  Tracer tracer_;
  Seeds seeds_;
  std::vector<double> setupSeconds_;
  Json jobs_ = Json::array();
  /// Failed checks made outside the jobs, by the job kind they concern.
  std::map<std::string, std::vector<std::string>> kindProblems_;
  std::vector<Architecture> archs_ = architectures();
  std::vector<std::size_t> order_;  ///< seed-shuffled job rotation
  std::vector<memsys::GateLevelDesign> designs_;
  std::vector<Json> storedVerdicts_;
  std::map<std::size_t, Json> editVerdicts_;  ///< edit index -> delta verdict
  Json report_;  ///< paper-flow report at the golden seed
  std::size_t round_ = 1;  ///< jobs per rotation of job kinds
};

void Bench::timeSetups(const std::function<void()>& setup) {
  const Clock::time_point start = Clock::now();
  while (setupSeconds_.size() < kMinSetups ||
         (setupSeconds_.size() < kMaxSetups &&
          secondsBetween(start, Clock::now()) < kSetupSeconds)) {
    const Clock::time_point t0 = Clock::now();
    {
      const SpanScope s(tracer_, "setup");
      setup();
    }
    setupSeconds_.push_back(secondsBetween(t0, Clock::now()));
  }
}

void Bench::runJobs(const std::function<JobOutcome(std::size_t)>& job,
                    std::size_t round, const fs::path& store,
                    const std::function<void()>& prepare) {
  round_ = round;
  const Clock::time_point start = Clock::now();
  for (std::size_t i = 0;; ++i) {
    if (i % round == 0 && i > 0 &&
        secondsBetween(start, Clock::now()) >= args_.seconds) {
      break;
    }
    if (prepare) prepare();
    const DirUsage before = scanDir(store);
    const Telemetry t0 = snapshot();
    const double cpu0 = cpuSeconds();
    const Clock::time_point w0 = Clock::now();
    JobOutcome out;
    {
      const SpanScope s(tracer_, "job");
      try {
        out = job(i);
      } catch (const std::exception& e) {
        out.problems.push_back(std::string("threw: ") + e.what());
      }
    }
    const double wall = secondsBetween(w0, Clock::now());
    const double cpu = cpuSeconds() - cpu0;
    const Telemetry t1 = snapshot();
    const DirUsage after = scanDir(store);

    Json j = Json::object();
    j["kind"] = Json(out.kind);
    j["wall_s"] = Json(wall);
    j["cpu_s"] = Json(cpu);
    j["counters"] = deltaJson(t0.counters, t1.counters);
    j["timers"] = deltaJson(t0.timers, t1.timers);
    j["store_bytes"] =
        Json(static_cast<double>(after.bytes) - static_cast<double>(before.bytes));
    j["store_files"] =
        Json(static_cast<double>(after.files) - static_cast<double>(before.files));
    j["extra"] = std::move(out.extra);
    Json problems = Json::array();
    for (std::string& p : out.problems) problems.push_back(Json(std::move(p)));
    j["problems"] = std::move(problems);
    jobs_.push_back(std::move(j));
  }
}

// ---- paper_flow ------------------------------------------------------------

void Bench::setupPaperFlow() {
  timeSetups([&] {
    designs_.clear();
    designs_.push_back(build(tracer_, memsys::GateLevelOptions::v1()));
    designs_.push_back(build(tracer_, memsys::GateLevelOptions::v2()));
  });
}

/// The bare memsys_sil3_flow sequence, with no artifact store.
JobOutcome Bench::jobPaperFlow(std::size_t i) {
  JobOutcome out;
  out.kind = "paper_flow";
  const std::uint64_t faults0 =
      obs::Registry::global().counter("inject.faults_simulated");

  const memsys::GateLevelDesign v1 =
      build(tracer_, memsys::GateLevelOptions::v1());
  const core::FmeaFlow flowV1 = traced(tracer_, "core.fmea_flow", [&] {
    return core::FmeaFlow(v1.nl, core::makeFrmemFlowConfig(v1));
  });
  const memsys::GateLevelDesign v2 =
      build(tracer_, memsys::GateLevelOptions::v2());
  const core::FmeaFlow flowV2 = traced(tracer_, "core.fmea_flow", [&] {
    return core::FmeaFlow(v2.nl, core::makeFrmemFlowConfig(v2));
  });
  const fmea::SensitivityResult sens = traced(
      tracer_, "fmea.sensitivity", [&] { return flowV2.sensitivity(); });

  memsys::ProtectionIpWorkload::Options wopt;
  wopt.cycles = 2000;
  wopt.seed = seeds_.stimulus;
  memsys::ProtectionIpWorkload workload = traced(
      tracer_, "memsys.workload",
      [&] { return memsys::ProtectionIpWorkload(v2, wopt); });
  core::ValidationOptions vopt;
  vopt.seed = seeds_.faults;
  vopt.zoneFailuresPerBit = 1;
  const core::ValidationFlowReport rep = traced(
      tracer_, "core.validation",
      [&] { return core::runValidationFlow(flowV2, workload, vopt); });
  core::SrsOptions sopt;
  sopt.author = "memsys_sil3_flow example";
  const std::string srs = traced(tracer_, "core.srs", [&] {
    return core::srsToString(flowV2, sopt, &rep);
  });

  // Checks (cheap, on results already in hand).
  if (flowV2.sil() < fmea::Sil::Sil3) {
    out.problems.push_back("v2 does not reach SIL3");
  }
  const std::uint64_t faults =
      obs::Registry::global().counter("inject.faults_simulated") - faults0;
  const std::size_t records = rep.zoneCampaign.records.size() +
                              rep.localCampaign.records.size() +
                              rep.wideCampaign.records.size();
  if (records != faults || records == 0) {
    out.problems.push_back("campaign records (" + std::to_string(records) +
                           ") != faults injected (" + std::to_string(faults) +
                           ")");
  }
  if (sens.scenarios.empty()) out.problems.push_back("no sensitivity scenario");
  if (srs.empty()) out.problems.push_back("empty SRS document");

  // The report metrics_gate diffs, kept from the first job at the golden's
  // seed (built after the flow, from its results).
  if (i == 0 && args_.seed == kGoldenSeed) {
    report_ = Json::object();
    report_["schema"] = Json("socfmea.flow_report/1");
    Json v1v = Json::object();
    v1v["sff"] = Json(flowV1.sff());
    v1v["dc"] = Json(flowV1.dc());
    v1v["sil"] = Json(static_cast<int>(flowV1.sil()));
    v1v["sil_name"] = Json(fmea::silName(flowV1.sil()));
    v1v["line"] = Json(core::verdictLine(flowV1));
    report_["v1_verdict"] = std::move(v1v);
    report_["flow"] = core::flowReportJson(flowV2);
    report_["validation"] = rep.toJson();
    report_["sil3_pass"] = Json(flowV2.sil() >= fmea::Sil::Sil3);
  }
  return out;
}

// ---- edit_loop -------------------------------------------------------------

void Bench::setupEditLoop() {
  timeSetups([&] {
    const memsys::GateLevelDesign v1 = build(tracer_, archs_[0].options);
    freshDir(args_.work / "primed");
    core::ArtifactStore store(args_.work / "primed");
    (void)runIteration(tracer_, v1, &store, seeds_);
  });
  order_ = {1, 2, 3, 4, 5};
  std::mt19937_64 rng(args_.seed);
  std::shuffle(order_.begin(), order_.end(), rng);
}

/// One v2 measure applied to v1, run on a fresh copy of the primed store.
JobOutcome Bench::jobEditLoop(std::size_t i) {
  const std::size_t a = order_[i % order_.size()];
  JobOutcome out;
  out.kind = archs_[a].name;
  core::ArtifactStore store = openStore(args_.work / "job-store");
  const memsys::GateLevelDesign dut = build(tracer_, archs_[a].options);
  const IterationResult r = runIteration(tracer_, dut, &store, seeds_);
  if (!r.campaign.deltaRun) out.problems.push_back("no delta run");
  const auto [it, fresh] = editVerdicts_.emplace(a, r.verdict);
  if (!fresh && !(it->second == r.verdict)) {
    out.problems.push_back("verdict differs from this edit's earlier job");
  }
  return out;
}

/// The incremental_gate property, outside the timed jobs: every edit's
/// delta verdict equals a cold run of the same edit.
void Bench::checkEditLoop() {
  Tracer off(false);
  for (const auto& [a, verdict] : editVerdicts_) {
    const memsys::GateLevelDesign dut = build(off, archs_[a].options);
    const IterationResult cold = runIteration(off, dut, nullptr, seeds_);
    if (!(cold.verdict == verdict)) {
      kindProblems_[archs_[a].name].push_back(
          "delta verdict " + verdict.dump() + " != cold " +
          cold.verdict.dump());
    }
  }
}

// ---- search ----------------------------------------------------------------

void Bench::setupSearch() {
  timeSetups([&] {
    designs_.clear();
    designs_.push_back(build(tracer_, archs_[0].options));
  });
}

/// A bounded closed-loop search from v1 on an empty store (search_smoke's
/// shape), with the cold bit-identity verify of the winner.
JobOutcome Bench::jobSearch(std::size_t /*i*/) {
  JobOutcome out;
  out.kind = "search";
  core::ArtifactStore store = openStore(args_.work / "job-store");

  // Candidate and verify spans come from the timestamps of the search's
  // progress lines: an "eval" line closes a candidate evaluation, the
  // "verifying" line opens the verify that run() returns after.
  std::vector<std::pair<double, std::string>> events;
  search::SearchOptions sopt;
  sopt.store = &store;
  sopt.targetSff = 0.96;
  sopt.beamWidth = 1;
  sopt.maxRounds = 1;
  sopt.candidatesPerRound = 2;
  sopt.campaignSeed = seeds_.faults;
  sopt.workloadCycles = kIterationCycles;
  sopt.verifyFinal = true;
  sopt.log = [&](const std::string& line) {
    events.emplace_back(tracer_.now(), line);
  };
  search::SearchResult res;
  {
    const SpanScope s(tracer_, "search.run");
    const double start = tracer_.now();
    search::ArchitectureSearch searcher(sopt);
    res = searcher.run();
    const double end = tracer_.now();
    double last = start;
    for (const auto& [t, line] : events) {
      if (line.rfind("eval ", 0) == 0) {
        tracer_.record("search.candidate", last, t);
        last = t;
      } else if (line.rfind("verifying ", 0) == 0) {
        tracer_.record("search.verify", t, end);
      } else {
        last = t;
      }
    }
  }

  if (!res.targetReached) out.problems.push_back("search target not reached");
  if (!res.verifiedIdentical) {
    out.problems.push_back("winner's cold verify not bit-identical");
  }
  out.extra["candidates"] =
      Json(static_cast<unsigned long>(res.evaluated.size()));
  out.extra["reuse_ratio"] = Json(res.reuseRatio);
  return out;
}

// ---- warm_replay -----------------------------------------------------------

void Bench::setupWarmReplay() {
  timeSetups([&] {
    designs_.clear();
    storedVerdicts_.clear();
    for (const Architecture& a : archs_) {
      designs_.push_back(build(tracer_, a.options));
    }
    freshDir(args_.work / "primed");
    core::ArtifactStore store(args_.work / "primed");
    for (const memsys::GateLevelDesign& d : designs_) {
      storedVerdicts_.push_back(
          runIteration(tracer_, d, &store, seeds_).verdict);
    }
  });
  order_.resize(archs_.size());
  for (std::size_t a = 0; a < order_.size(); ++a) order_[a] = a;
  std::mt19937_64 rng(args_.seed);
  std::shuffle(order_.begin(), order_.end(), rng);
}

/// Re-opens one primed architecture: a full store hit, nothing simulated.
JobOutcome Bench::jobWarmReplay(std::size_t i) {
  const std::size_t a = order_[i % order_.size()];
  JobOutcome out;
  out.kind = archs_[a].name;
  core::ArtifactStore store = openStore(args_.work / "primed");
  const IterationResult r = runIteration(tracer_, designs_[a], &store, seeds_);
  if (!r.campaign.fullHit || r.campaign.delta.simulated != 0) {
    out.problems.push_back("not a full store hit");
  }
  if (!(r.verdict == storedVerdicts_[a])) {
    out.problems.push_back("verdict differs from the one stored at priming");
  }
  return out;
}

// ---- output ----------------------------------------------------------------

/// Per span name: total and self seconds summed over the job spans, and the
/// number of spans, plus the traced job wall time.
Json Bench::traceSummary() const {
  const std::vector<Span>& spans = tracer_.spans();
  const std::vector<double> self = tracer_.selfTimes();
  std::map<std::string, std::pair<double, double>> byName;
  std::map<std::string, std::size_t> counts;
  double jobSeconds = 0.0;
  std::size_t jobCount = 0;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    if (spans[tracer_.rootOf(static_cast<int>(i))].name != "job") continue;
    auto& [total, selfSum] = byName[s.name];
    total += s.end - s.start;
    selfSum += self[i];
    ++counts[s.name];
    if (s.parent < 0) {
      jobSeconds += s.end - s.start;
      ++jobCount;
    }
  }
  Json layers = Json::object();
  for (const auto& [name, ts] : byName) {
    Json l = Json::object();
    l["total_s"] = Json(ts.first);
    l["self_s"] = Json(ts.second);
    l["spans"] = Json(static_cast<unsigned long>(counts[name]));
    layers[name] = std::move(l);
  }
  // memsys.build inside set-up, per set-up (it is what moves setup_s).  A
  // root span precedes its children in the list.
  std::vector<double> setupBuild;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    if (s.parent < 0 && s.name == "setup") {
      setupBuild.push_back(0.0);
    } else if (s.name == "memsys.build" && !setupBuild.empty() &&
               spans[tracer_.rootOf(static_cast<int>(i))].name == "setup") {
      setupBuild.back() += s.end - s.start;
    }
  }
  Json out = Json::object();
  out["layers"] = std::move(layers);
  out["job_s_total"] = Json(jobSeconds);
  out["jobs"] = Json(static_cast<unsigned long>(jobCount));
  out["setup_build_s"] = Json(median(setupBuild));
  return out;
}

void Bench::writeChromeTrace(const fs::path& file) const {
  const std::vector<Span>& spans = tracer_.spans();
  Json events = Json::array();
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    Json e = Json::object();
    e["name"] = Json(s.name);
    e["cat"] = Json(args_.workload);
    e["ph"] = Json("X");
    e["ts"] = Json(s.start * 1e6);
    e["dur"] = Json((s.end - s.start) * 1e6);
    e["pid"] = Json(1);
    e["tid"] = Json(1);
    Json a = Json::object();
    a["span"] = Json(static_cast<int>(i));
    a["parent"] = Json(s.parent);
    a["root"] = Json(tracer_.rootOf(static_cast<int>(i)));
    e["args"] = std::move(a);
    events.push_back(std::move(e));
  }
  Json doc = Json::object();
  doc["traceEvents"] = std::move(events);
  doc["displayTimeUnit"] = Json("ms");
  std::ofstream out(file);
  out << doc.dump() << "\n";
  if (!out) throw std::runtime_error("cannot write " + file.string());
}

Json Bench::run() {
  fs::create_directories(args_.work);
  const fs::path jobStore = args_.work / "job-store";
  const fs::path primed = args_.work / "primed";
  const std::string& w = args_.workload;
  if (w == "paper_flow") {
    setupPaperFlow();
    runJobs([&](std::size_t i) { return jobPaperFlow(i); }, 1, jobStore);
  } else if (w == "edit_loop") {
    setupEditLoop();
    runJobs([&](std::size_t i) { return jobEditLoop(i); }, order_.size(),
            jobStore, [&] {
              fs::remove_all(jobStore);
              fs::copy(primed, jobStore, fs::copy_options::recursive);
            });
    checkEditLoop();
  } else if (w == "search") {
    setupSearch();
    runJobs([&](std::size_t i) { return jobSearch(i); }, 1, jobStore,
            [&] { freshDir(jobStore); });
  } else if (w == "warm_replay") {
    setupWarmReplay();
    runJobs([&](std::size_t i) { return jobWarmReplay(i); }, order_.size(),
            primed);
  } else {
    throw std::invalid_argument("unknown workload: " + w);
  }


  Json prov = Json::object();
  prov["build_type"] = Json(FLOW_BENCH_BUILD_TYPE);
  prov["compiler"] = Json(FLOW_BENCH_COMPILER);
  prov["cores"] = Json(std::thread::hardware_concurrency());
  prov["simd_width"] = Json(faultsim::resolveLaneWords(0) * 64u);
  prov["simd_target"] = Json(faultsim::simdTargetName());

  Json doc = Json::object();
  doc["workload"] = Json(args_.workload);
  doc["seed"] = Json(static_cast<unsigned long long>(args_.seed));
  doc["provenance"] = std::move(prov);
  Json setups = Json::array();
  for (double s : setupSeconds_) setups.push_back(Json(s));
  doc["setup_s"] = std::move(setups);
  doc["round"] = Json(static_cast<unsigned long>(round_));
  doc["jobs"] = std::move(jobs_);
  Json kindProblems = Json::object();
  for (const auto& [kind, msgs] : kindProblems_) {
    Json list = Json::array();
    for (const std::string& m : msgs) list.push_back(Json(m));
    kindProblems[kind] = std::move(list);
  }
  doc["kind_problems"] = std::move(kindProblems);
  doc["peak_rss_mb"] = Json(peakRssMb());
  if (!report_.isNull()) {
    std::ofstream rep(args_.work / "flow_report.json");
    rep << report_.dump(2) << "\n";
    doc["flow_report"] = Json((args_.work / "flow_report.json").string());
  }
  if (tracer_.enabled()) {
    doc["trace"] = traceSummary();
    writeChromeTrace(args_.work / "trace.json");
  }
  return doc;
}

bool parseArgs(int argc, char** argv, Args& a) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string k = argv[i];
    const char* v = argv[i + 1];
    if (k == "--workload") {
      a.workload = v;
    } else if (k == "--seed") {
      a.seed = std::strtoull(v, nullptr, 10);
    } else if (k == "--seconds") {
      a.seconds = std::strtod(v, nullptr);
    } else if (k == "--trace") {
      a.trace = std::strcmp(v, "1") == 0;
    } else if (k == "--work") {
      a.work = v;
    } else {
      return false;
    }
  }
  return argc % 2 == 1 && !a.workload.empty() && !a.work.empty();
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  if (!parseArgs(argc, argv, args)) {
    std::cerr << "usage: flow_bench --workload W --seed N --seconds S"
                 " --trace 0|1 --work DIR\n";
    return 2;
  }
  try {
    Bench bench(std::move(args));
    std::cout << bench.run().dump() << "\n";
  } catch (const std::exception& e) {
    std::cerr << "flow_bench: " << e.what() << "\n";
    return 1;
  }
  return 0;
}
