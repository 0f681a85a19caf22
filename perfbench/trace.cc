// fjb_trace — traced per-layer harness for the benchmark.
//
// Links the libraries and records a span (name, start, end, parent) around
// each call into a layer's public functions, then reads the counters those
// functions already return (mr::JobMetrics, ExecutorStats, ServingIndex
// and QueryService stats). The spans live in memory and are written, with
// the derived metrics, as one Chrome trace-event JSON file (--trace_out);
// the metrics also go to stdout as one JSON line.
//
//   fjb_trace selfjoin --input=F --out=F --threads=N --tau=0.8 --trace_out=F
//   fjb_trace rsjoin --r=F --s=F --out=F --threads=N --tau=0.8 --trace_out=F
//       One pipeline run, BTO-PK-BRJ with the CLI's defaults, called stage
//       by stage exactly as fuzzyjoin/driver.cc does. --out receives the
//       joined pairs (byte-identical to `fuzzyjoin selfjoin|rsjoin`).
//   fjb_trace serve --corpus=F --script=F --read=N --mixed=M --threads=T
//             --trace_out=F
//       Builds the serving index from the corpus, replays the request script
//       twice directly on the ServingIndex, then twice through a
//       QueryService over the same index. The first N requests of the script
//       are its read phase and the next M its mixed phase.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "common/executor.h"
#include "common/flags.h"
#include "data/record.h"
#include "fuzzyjoin/fuzzyjoin.h"
#include "fuzzyjoin/manifest.h"
#include "fuzzyjoin/stage1.h"
#include "fuzzyjoin/stage2.h"
#include "fuzzyjoin/stage3.h"
#include "serve/query_service.h"
#include "serve/serving_index.h"
#include "text/tokenizer.h"

namespace {

using Clock = std::chrono::steady_clock;

// Replays of the serve script per layer: the first pass starts from a cold
// cache, the second from the state the first pass restored.
constexpr int kServePasses = 2;

// ------------------------------------------------------------ the tracer

class Tracer {
 public:
  struct Span {
    std::string name;
    int64_t start_ns = 0;
    int64_t end_ns = 0;
    int parent = -1;  // index into spans_, -1 for a root
  };

  /// RAII span; nests under whichever span is open on the tracer.
  class Scope {
   public:
    Scope(Tracer* tracer, std::string name) : tracer_(tracer) {
      index_ = static_cast<int>(tracer_->spans_.size());
      tracer_->spans_.push_back(
          Span{std::move(name), tracer_->Now(), 0, tracer_->open_});
      tracer_->open_ = index_;
    }
    ~Scope() { End(); }
    /// Closes the span now; returns its duration in seconds.
    double End() {
      Span& span = tracer_->spans_[static_cast<size_t>(index_)];
      if (span.end_ns == 0) {
        span.end_ns = tracer_->Now();
        tracer_->open_ = span.parent;
      }
      return static_cast<double>(span.end_ns - span.start_ns) * 1e-9;
    }

   private:
    Tracer* tracer_;
    int index_;
  };

  int64_t Now() const {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                                origin_)
        .count();
  }

  void Set(const std::string& name, double value) { metrics_[name] = value; }

  /// Chrome trace-event JSON ("X" events, microseconds) plus the metrics.
  bool Write(const std::string& path) const {
    std::ofstream out(path);
    if (!out) return false;
    out << "{\"traceEvents\":[";
    for (size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      char buf[160];
      std::snprintf(buf, sizeof(buf),
                    "%s{\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":%.3f,"
                    "\"dur\":%.3f,\"args\":{\"id\":%zu,\"parent\":%d},",
                    i == 0 ? "" : ",\n", s.start_ns * 1e-3,
                    (s.end_ns - s.start_ns) * 1e-3, i, s.parent);
      out << buf << "\"name\":\"" << s.name << "\"}";
    }
    out << "],\n\"metrics\":" << MetricsJson() << "}\n";
    return static_cast<bool>(out);
  }

  std::string MetricsJson() const {
    std::string json = "{";
    for (const auto& [name, value] : metrics_) {
      char buf[64];
      std::snprintf(buf, sizeof(buf), "%.9g", value);
      if (json.size() > 1) json += ",";
      json += "\"" + name + "\":" + buf;
    }
    return json + "}";
  }

 private:
  Clock::time_point origin_ = Clock::now();
  std::vector<Span> spans_;
  int open_ = -1;
  std::map<std::string, double> metrics_;
};

double Median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double Ratio(double num, double den) { return den > 0 ? num / den : 0; }

bool ReadLines(const std::string& path, std::vector<std::string>* lines) {
  std::ifstream in(path);
  if (!in) return false;
  std::string line;
  while (std::getline(in, line)) lines->push_back(std::move(line));
  return true;
}

bool WriteLines(const std::string& path,
                const std::vector<std::string>& lines) {
  std::ofstream out(path);
  for (const auto& line : lines) out << line << '\n';
  return static_cast<bool>(out);
}

int Fail(const fj::Status& status) {
  std::fprintf(stderr, "fjb_trace: %s\n", status.ToString().c_str());
  return 1;
}

// ----------------------------------------------------------- batch joins

/// Records the per-stage MapReduce and executor numbers of one stage.
void StageMetrics(Tracer* t, const std::string& stage, double stage_wall,
                  const std::vector<fj::mr::JobMetrics>& jobs) {
  double map_s = 0, reduce_s = 0;
  double map_out = 0, shuffle_rec = 0, shuffle_bytes = 0, spilled = 0;
  double merges = 0;
  fj::ExecutorStats rt;
  double skew = 0, heaviest = -1;
  for (const auto& job : jobs) {
    map_s += job.map_phase_wall_seconds;
    reduce_s += job.reduce_phase_wall_seconds;
    map_out += static_cast<double>(job.map_output_records);
    shuffle_rec += static_cast<double>(job.shuffle_records);
    shuffle_bytes += static_cast<double>(job.shuffle_bytes);
    spilled += static_cast<double>(job.spilled_bytes);
    merges += static_cast<double>(job.merge_passes);
    rt.busy_seconds += job.runtime.busy_seconds;
    rt.queue_delay_seconds += job.runtime.queue_delay_seconds;
    rt.tasks_stolen += job.runtime.tasks_stolen;
    rt.workers = std::max(rt.workers, job.runtime.workers);
    // Skew of the job with the most reduce work: slowest task / median.
    std::vector<double> tasks;
    for (const auto& task : job.reduce_tasks) tasks.push_back(task.seconds);
    const double total = job.TotalReduceSeconds();
    if (!tasks.empty() && total > heaviest) {
      heaviest = total;
      skew = Ratio(*std::max_element(tasks.begin(), tasks.end()),
                   Median(tasks));
    }
  }
  const std::string mr = "mapreduce." + stage + ".";
  t->Set(mr + "map_phase_s", map_s);
  t->Set(mr + "reduce_phase_s", reduce_s);
  t->Set(mr + "map_output_records", map_out);
  t->Set(mr + "shuffle_records", shuffle_rec);
  t->Set(mr + "shuffle_bytes", shuffle_bytes);
  t->Set(mr + "spilled_bytes", spilled);
  t->Set(mr + "merge_passes", merges);
  t->Set(mr + "reduce_skew", skew);
  const std::string ex = "executor." + stage + ".";
  t->Set(ex + "busy_s", rt.busy_seconds);
  t->Set(ex + "queue_delay_s", rt.queue_delay_seconds);
  t->Set(ex + "utilization",
         Ratio(rt.busy_seconds, stage_wall * static_cast<double>(rt.workers)));
  t->Set(ex + "tasks_stolen", static_cast<double>(rt.tasks_stolen));
}

int RunBatch(const fj::Flags& flags, bool self) {
  Tracer t;
  const std::vector<std::string> inputs =
      self ? std::vector<std::string>{flags.GetString("input", "")}
           : std::vector<std::string>{flags.GetString("r", ""),
                                      flags.GetString("s", "")};
  const std::vector<std::string> names =
      self ? std::vector<std::string>{"input"}
           : std::vector<std::string>{"r", "s"};
  fj::join::JoinConfig cfg;
  cfg.tau = flags.GetDouble("tau", 0.8);
  cfg.stage1 = fj::join::Stage1Algorithm::kBTO;
  cfg.stage2 = fj::join::Stage2Algorithm::kPK;
  cfg.stage3 = fj::join::Stage3Algorithm::kBRJ;
  cfg.local_threads = static_cast<size_t>(flags.GetInt("threads", 1));
  if (auto status = cfg.Validate(); !status.ok()) return Fail(status);

  Tracer::Scope whole(&t, "benchmark.batch");
  std::vector<std::vector<std::string>> lines(inputs.size());
  {
    Tracer::Scope span(&t, "io.read_input");
    for (size_t i = 0; i < inputs.size(); ++i) {
      if (!ReadLines(inputs[i], &lines[i])) {
        return Fail(fj::Status::IOError("cannot read " + inputs[i]));
      }
    }
  }
  // Standalone layer costs over the same input: parse every record line,
  // then tokenize every join attribute.
  std::vector<fj::data::Record> records;
  {
    Tracer::Scope span(&t, "data.RecordsFromLines");
    for (const auto& file : lines) {
      auto parsed = fj::data::RecordsFromLines(file);
      if (!parsed.ok()) return Fail(parsed.status());
      for (auto& r : *parsed) records.push_back(std::move(r));
    }
    t.Set("data.parse_s", span.End());
  }
  {
    Tracer::Scope span(&t, "text.WordTokenizer::Tokenize");
    const fj::text::WordTokenizer tokenizer;
    size_t tokens = 0;
    for (const auto& r : records) {
      tokens += tokenizer.Tokenize(r.JoinAttribute()).size();
    }
    t.Set("text.tokenize_s", span.End());
    t.Set("text.tokens", static_cast<double>(tokens));
  }
  records.clear();
  records.shrink_to_fit();

  fj::mr::Dfs dfs;
  {
    Tracer::Scope span(&t, "mapreduce.Dfs::WriteFile");
    for (size_t i = 0; i < names.size(); ++i) {
      if (auto s = dfs.WriteFile(names[i], std::move(lines[i])); !s.ok()) {
        return Fail(s);
      }
    }
    t.Set("mapreduce.dfs_load_s", span.End());
  }
  cfg.executor = std::make_shared<fj::Executor>(cfg.local_threads);
  const std::string ordering = "join.ordering", ridpairs = "join.ridpairs",
                    joined = "join.joined";
  Tracer::Scope pipeline(&t, "fuzzyjoin.pipeline");
  // The checkpoint bookkeeping of fuzzyjoin/driver.cc: the resume
  // fingerprint over the inputs before stage 1, then after every stage the
  // checksum of its output and a rewrite of the manifest.
  fj::join::Manifest manifest;
  double checkpoint_s = 0;
  {
    Tracer::Scope span(&t, "fuzzyjoin.PipelineFingerprint");
    auto fingerprint = fj::join::PipelineFingerprint(cfg, dfs, names);
    if (!fingerprint.ok()) return Fail(fingerprint.status());
    manifest.fingerprint = *fingerprint;
    checkpoint_s += span.End();
  }
  auto commit = [&](std::string stage, const std::string& output) {
    Tracer::Scope span(&t, "fuzzyjoin.SaveManifest");
    auto checksum = dfs.FileChecksum(output);
    if (!checksum.ok()) return checksum.status();
    manifest.stages.push_back({std::move(stage), {{output, *checksum}}});
    fj::Status status = fj::join::SaveManifest(&dfs, "join.manifest", manifest);
    checkpoint_s += span.End();
    return status;
  };
  {
    Tracer::Scope span(&t, "fuzzyjoin.RunStage1");
    auto r = fj::join::RunStage1(&dfs, names[0], ordering, cfg);
    if (!r.ok()) return Fail(r.status());
    const double s = span.End();
    t.Set("fuzzyjoin.stage1_s", s);
    StageMetrics(&t, "stage1", s, r->jobs);
  }
  if (auto s = commit(std::string("1-") + fj::join::Stage1Name(cfg.stage1),
                      ordering);
      !s.ok()) {
    return Fail(s);
  }
  {
    Tracer::Scope span(&t, self ? "fuzzyjoin.RunStage2SelfJoin"
                                : "fuzzyjoin.RunStage2RSJoin");
    auto r = self ? fj::join::RunStage2SelfJoin(&dfs, names[0], ordering,
                                                ridpairs, cfg)
                  : fj::join::RunStage2RSJoin(&dfs, names[0], names[1],
                                              ordering, ridpairs, cfg);
    if (!r.ok()) return Fail(r.status());
    const double s = span.End();
    t.Set("fuzzyjoin.stage2_s", s);
    StageMetrics(&t, "stage2", s, r->jobs);
    double candidates = 0, verified = 0, results = 0;
    for (const auto& job : r->jobs) {
      candidates += static_cast<double>(job.counters.Get("stage2.pk.candidates"));
      verified += static_cast<double>(job.counters.Get("stage2.pk.verified"));
      results += static_cast<double>(job.counters.Get("stage2.pk.results"));
    }
    t.Set("ppjoin.candidates", candidates);
    t.Set("ppjoin.verified", verified);
    t.Set("ppjoin.results", results);
    t.Set("ppjoin.filter_yield", Ratio(verified, candidates));
    t.Set("ppjoin.verify_yield", Ratio(results, verified));
  }
  if (auto s = commit(std::string("2-") + fj::join::Stage2Name(cfg.stage2),
                      ridpairs);
      !s.ok()) {
    return Fail(s);
  }
  {
    Tracer::Scope span(&t, self ? "fuzzyjoin.RunStage3SelfJoin"
                                : "fuzzyjoin.RunStage3RSJoin");
    auto r = self ? fj::join::RunStage3SelfJoin(&dfs, names[0], ridpairs,
                                                joined, cfg)
                  : fj::join::RunStage3RSJoin(&dfs, names[0], names[1],
                                              ridpairs, joined, cfg);
    if (!r.ok()) return Fail(r.status());
    const double s = span.End();
    t.Set("fuzzyjoin.stage3_s", s);
    StageMetrics(&t, "stage3", s, r->jobs);
  }
  if (auto s = commit(std::string("3-") + fj::join::Stage3Name(cfg.stage3),
                      joined);
      !s.ok()) {
    return Fail(s);
  }
  t.Set("fuzzyjoin.checkpoint_s", checkpoint_s);
  t.Set("fuzzyjoin.pipeline_s", pipeline.End());

  auto rid_pairs = dfs.FileLines(ridpairs);
  auto output = dfs.ReadFile(joined);
  if (!rid_pairs.ok()) return Fail(rid_pairs.status());
  if (!output.ok()) return Fail(output.status());
  t.Set("fuzzyjoin.pairs", static_cast<double>(output.value()->size()));
  t.Set("fuzzyjoin.duplicate_ratio",
        Ratio(static_cast<double>(*rid_pairs),
              static_cast<double>(output.value()->size())));
  {
    Tracer::Scope span(&t, "io.write_output");
    if (!WriteLines(flags.GetString("out", ""), *output.value())) {
      return Fail(fj::Status::IOError("cannot write output"));
    }
  }
  whole.End();
  if (!t.Write(flags.GetString("trace_out", "trace.json"))) {
    return Fail(fj::Status::IOError("cannot write trace"));
  }
  std::printf("%s\n", t.MetricsJson().c_str());
  return 0;
}

// ---------------------------------------------------------------- serving

// Probes carry a rid no record uses, as in fuzzyjoin_serve.
constexpr uint64_t kQueryRid = ~uint64_t{0};

struct ParsedRequest {
  std::string verb;
  fj::serve::Request request;
};

/// Parses one script line the way tools/serve_driver.cc does.
bool ParseRequest(const std::string& line, const fj::text::Tokenizer& tok,
                  const fj::text::TokenOrdering& ordering, ParsedRequest* out) {
  std::istringstream in(line);
  in >> out->verb;
  fj::serve::Request& r = out->request;
  r = fj::serve::Request{};
  if (out->verb == "compact") return true;
  bool ok = false;
  if (out->verb == "insert") {
    r.kind = fj::serve::RequestKind::kInsert;
    ok = static_cast<bool>(in >> r.record.rid);
  } else if (out->verb == "remove") {
    r.kind = fj::serve::RequestKind::kRemove;
    return static_cast<bool>(in >> r.rid);
  } else if (out->verb == "probe") {
    r.kind = fj::serve::RequestKind::kProbeThreshold;
    r.record.rid = kQueryRid;
    ok = static_cast<bool>(in >> r.threshold);
  } else if (out->verb == "topk") {
    r.kind = fj::serve::RequestKind::kProbeTopK;
    r.record.rid = kQueryRid;
    ok = static_cast<bool>(in >> r.top_k);
  }
  if (!ok) return false;
  std::string text;
  std::getline(in, text);
  r.record.tokens = ordering.ToSortedIds(tok.Tokenize(text));
  return !r.record.tokens.empty();
}

int RunServe(const fj::Flags& flags) {
  Tracer t;
  const fj::text::WordTokenizer tokenizer;
  std::vector<std::string> corpus, script;
  if (!ReadLines(flags.GetString("corpus", ""), &corpus) ||
      !ReadLines(flags.GetString("script", ""), &script)) {
    return Fail(fj::Status::IOError("cannot read corpus or script"));
  }
  const size_t read_n = static_cast<size_t>(flags.GetInt("read", 0));
  const size_t mixed_n = static_cast<size_t>(flags.GetInt("mixed", 0));
  fj::serve::ServingIndexOptions options;  // the driver's defaults
  options.tau_floor = 0.5;

  Tracer::Scope whole(&t, "benchmark.serve");
  fj::serve::SeededIndex seeded;
  {
    Tracer::Scope span(&t, "serve.BuildFromJoinOutput");
    auto built =
        fj::serve::BuildFromJoinOutput({}, corpus, tokenizer, options);
    if (!built.ok()) return Fail(built.status());
    seeded = std::move(built).value();
    t.Set("serve.build_s", span.End());
  }
  corpus.clear();
  corpus.shrink_to_fit();
  std::vector<ParsedRequest> requests(script.size());
  for (size_t i = 0; i < script.size(); ++i) {
    if (!ParseRequest(script[i], tokenizer, seeded.ordering, &requests[i])) {
      return Fail(fj::Status::InvalidArgument("bad script line: " + script[i]));
    }
  }
  fj::serve::ServingIndex& index = *seeded.index;

  // Direct index calls.
  std::vector<double> probe_us, topk_us, insert_us, remove_us, compact_s;
  std::vector<double> probe_index_us(requests.size(), 0);
  fj::serve::ServingIndexStats probe_stats;  // summed over threshold probes
  uint64_t failures = 0;
  std::vector<fj::serve::ProbeResult> results;
  for (int pass = 0; pass < kServePasses; ++pass) {
    Tracer::Scope span(&t, "serve.index.replay");
    for (size_t i = 0; i < requests.size(); ++i) {
      const auto& r = requests[i].request;
      const std::string& verb = requests[i].verb;
      results.clear();
      fj::Status status;
      const auto before = index.stats();
      Tracer::Scope call(&t, "serve.ServingIndex." + verb);
      if (verb == "probe") {
        status = index.ProbeThreshold(r.record, r.threshold, &results);
      } else if (verb == "topk") {
        status = index.ProbeTopK(r.record, r.top_k, &results);
      } else if (verb == "insert") {
        status = index.Insert(r.record);
      } else if (verb == "remove") {
        status = index.Remove(r.rid);
      } else {
        index.CompactNow();
      }
      const double us = call.End() * 1e6;
      if (!status.ok()) ++failures;
      if (verb == "probe") {
        probe_us.push_back(us);
        probe_index_us[i] = us;
        const auto& after = index.stats();
        probe_stats.probes += after.probes - before.probes;
        probe_stats.candidates += after.candidates - before.candidates;
        probe_stats.verified += after.verified - before.verified;
        probe_stats.results += after.results - before.results;
      } else if (verb == "topk") {
        topk_us.push_back(us);
      } else if (verb == "insert") {
        insert_us.push_back(us);
      } else if (verb == "remove") {
        remove_us.push_back(us);
      } else {
        compact_s.push_back(us * 1e-6);
      }
    }
  }
  t.Set("serve.index.probe_us", Median(probe_us));
  t.Set("serve.index.topk_us", Median(topk_us));
  t.Set("serve.index.insert_us", Median(insert_us));
  t.Set("serve.index.remove_us", Median(remove_us));
  t.Set("serve.index.compact_s", Median(compact_s));
  const double probes = static_cast<double>(probe_us.size());
  t.Set("serve.index.candidates",
        Ratio(static_cast<double>(probe_stats.candidates), probes));
  t.Set("serve.index.verified",
        Ratio(static_cast<double>(probe_stats.verified), probes));
  t.Set("serve.index.results",
        Ratio(static_cast<double>(probe_stats.results), probes));

  // The same script through the query service (queue hand-off + cache).
  fj::Executor executor(static_cast<size_t>(flags.GetInt("threads", 2)));
  std::vector<double> execute_us, overhead_us;
  double hits[2] = {0, 0}, lookups[2] = {0, 0};
  {
    fj::serve::QueryService service(&index, &executor);
    for (int pass = 0; pass < kServePasses; ++pass) {
      Tracer::Scope span(&t, "serve.service.replay");
      for (size_t i = 0; i < requests.size(); ++i) {
        const std::string& verb = requests[i].verb;
        if (verb == "compact") {
          service.Flush();
          index.CompactNow();
          continue;
        }
        Tracer::Scope call(&t, "serve.QueryService.ExecuteSync." + verb);
        fj::serve::ServeResponse response =
            service.ExecuteSync(requests[i].request);
        const double us = call.End() * 1e6;
        if (!response.status.ok()) ++failures;
        const int phase = i < read_n ? 0 : (i < read_n + mixed_n ? 1 : -1);
        if ((verb == "probe" || verb == "topk") && phase >= 0) {
          lookups[phase] += 1;
          hits[phase] += response.cache_hit ? 1 : 0;
        }
        if (verb != "probe") continue;
        execute_us.push_back(us);
        if (!response.cache_hit) {
          overhead_us.push_back(us - probe_index_us[i]);
        }
      }
    }
  }
  t.Set("serve.service.execute_us", Median(execute_us));
  t.Set("serve.service.overhead_us", Median(overhead_us));
  t.Set("serve.cache.hit_ratio.read", Ratio(hits[0], lookups[0]));
  t.Set("serve.cache.hit_ratio.mixed", Ratio(hits[1], lookups[1]));
  t.Set("serve.failed_requests", static_cast<double>(failures));
  whole.End();
  if (!t.Write(flags.GetString("trace_out", "trace.json"))) {
    return Fail(fj::Status::IOError("cannot write trace"));
  }
  std::printf("%s\n", t.MetricsJson().c_str());
  return failures == 0 ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  fj::Flags flags(argc, argv);
  const std::string mode =
      flags.positional().empty() ? "" : flags.positional()[0];
  if (mode == "selfjoin") return RunBatch(flags, /*self=*/true);
  if (mode == "rsjoin") return RunBatch(flags, /*self=*/false);
  if (mode == "serve") return RunServe(flags);
  std::fprintf(stderr, "usage: fjb_trace <selfjoin|rsjoin|serve> [--flags]\n");
  return 2;
}
