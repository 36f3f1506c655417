// bench_diff — compare a perfbench result with a committed baseline and
// fail on regressions.
//
//   bench_diff BENCHMARK.json BASELINE.json CANDIDATE.json
//
// BASELINE and CANDIDATE have the shape of perfbench's result line:
// {"correct", "attempted", "failed", "metrics": {NAME: {"value", "unit"}}}
// (the committed BENCH_<workload>.json files also carry "host", "seeds"
// and "seconds", which are not read). BENCHMARK.json declares every
// metric's unit and direction ("better"), and each end-to-end metric's
// relative regression bound.
//
// Only the metrics both files carry are compared, so a --trace 0
// candidate meets the end-to-end metrics and a --trace 1 candidate the
// per-layer ones. An end-to-end metric that moves in its worse direction
// by more than its bound, relative to the baseline, is a REGRESSION and
// makes the exit status 1. Per-layer metrics have no bound: they are
// printed and never fail the comparison.
//
// Bad input exits 1 with a message naming the cause: a missing file, a
// directory, malformed JSON, the wrong number of arguments, a metric
// BENCHMARK.json does not declare, a unit that disagrees with the
// declared one, a non-finite value, an end-to-end baseline that is not
// positive, or a result whose "correct" is false.

#include <sys/stat.h>

#include <cmath>
#include <cstdio>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "evrec/util/json.h"
#include "evrec/util/string_util.h"

namespace {

using evrec::JsonValue;
using evrec::ParseJson;
using evrec::Status;
using evrec::StatusOr;
using evrec::StrFormat;

StatusOr<JsonValue> LoadJsonFile(const std::string& path) {
  // Diagnose the argument before opening it: "parse error at byte 0" on a
  // directory or a missing file sends people down the wrong road.
  struct stat st;
  if (::stat(path.c_str(), &st) != 0) {
    return Status::IoError("no such file: " + path);
  }
  if (S_ISDIR(st.st_mode)) {
    return Status::InvalidArgument(path +
                                   " is a directory, expected a JSON file");
  }
  if (!S_ISREG(st.st_mode)) {
    return Status::InvalidArgument(path + " is not a regular file");
  }
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) {
    return Status::IoError("cannot open " + path);
  }
  std::string text;
  char buf[1 << 16];
  size_t n;
  while ((n = std::fread(buf, 1, sizeof(buf), f)) > 0) text.append(buf, n);
  std::fclose(f);
  StatusOr<JsonValue> parsed = ParseJson(text);
  if (!parsed.ok()) {
    return Status::InvalidArgument(
        path + ": malformed JSON (" + parsed.status().message() + ")");
  }
  return parsed;
}

// One metric as BENCHMARK.json declares it.
struct MetricSpec {
  std::string unit;
  bool higher_is_better = false;
  bool end_to_end = false;
  double bound = 0.0;  // relative; end-to-end metrics only
};

using Spec = std::map<std::string, MetricSpec>;

Status AddSpecMetrics(const std::string& path, const JsonValue& doc,
                      const char* section, bool end_to_end, Spec* spec) {
  const JsonValue* list = doc.Find(section);
  if (list == nullptr || !list->IsArray()) {
    return Status::InvalidArgument(
        StrFormat("%s: missing \"%s\" array", path.c_str(), section));
  }
  for (const JsonValue& m : list->array) {
    const JsonValue* name = m.Find("name");
    const JsonValue* unit = m.Find("unit");
    const JsonValue* better = m.Find("better");
    const JsonValue* bound = m.Find("bound");
    if (name == nullptr || !name->IsString() || unit == nullptr ||
        !unit->IsString() || better == nullptr ||
        (better->string_value != "lower" &&
         better->string_value != "higher")) {
      return Status::InvalidArgument(StrFormat(
          "%s: every \"%s\" entry needs a \"name\", a \"unit\" and "
          "\"better\": \"lower\" or \"higher\"",
          path.c_str(), section));
    }
    MetricSpec s;
    s.unit = unit->string_value;
    s.higher_is_better = better->string_value == "higher";
    s.end_to_end = end_to_end;
    if (end_to_end) {
      if (bound == nullptr || !bound->IsNumber() ||
          !std::isfinite(bound->number_value) || bound->number_value <= 0) {
        return Status::InvalidArgument(
            StrFormat("%s: end-to-end metric %s needs a positive \"bound\"",
                      path.c_str(), name->string_value.c_str()));
      }
      s.bound = bound->number_value;
    }
    (*spec)[name->string_value] = s;
  }
  return Status::Ok();
}

StatusOr<Spec> LoadSpec(const std::string& path) {
  StatusOr<JsonValue> doc = LoadJsonFile(path);
  if (!doc.ok()) return doc.status();
  Spec spec;
  Status s = AddSpecMetrics(path, *doc, "end_to_end", true, &spec);
  if (s.ok()) s = AddSpecMetrics(path, *doc, "per_layer", false, &spec);
  if (!s.ok()) return s;
  return spec;
}

// A result's metric values in file order, each checked against the spec.
using Values = std::vector<std::pair<std::string, double>>;

StatusOr<Values> LoadResult(const std::string& path, const Spec& spec,
                            const std::string& spec_path) {
  StatusOr<JsonValue> doc = LoadJsonFile(path);
  if (!doc.ok()) return doc.status();
  const JsonValue* correct = doc->Find("correct");
  if (correct == nullptr || !correct->IsBool()) {
    return Status::InvalidArgument(path + ": missing \"correct\" flag");
  }
  if (!correct->bool_value) {
    return Status::InvalidArgument(
        path + ": \"correct\" is false, the run failed its own checks");
  }
  const JsonValue* metrics = doc->Find("metrics");
  if (metrics == nullptr || !metrics->IsObject()) {
    return Status::InvalidArgument(path + ": missing \"metrics\" object");
  }
  Values values;
  for (const auto& [name, m] : metrics->object) {
    auto it = spec.find(name);
    if (it == spec.end()) {
      return Status::InvalidArgument(
          StrFormat("%s: metric %s is not declared in %s", path.c_str(),
                    name.c_str(), spec_path.c_str()));
    }
    const JsonValue* value = m.Find("value");
    const JsonValue* unit = m.Find("unit");
    if (value == nullptr || !value->IsNumber() || unit == nullptr ||
        !unit->IsString()) {
      return Status::InvalidArgument(
          StrFormat("%s: metric %s needs a numeric \"value\" and a "
                    "\"unit\" string",
                    path.c_str(), name.c_str()));
    }
    if (unit->string_value != it->second.unit) {
      return Status::InvalidArgument(StrFormat(
          "%s: metric %s has unit \"%s\", %s declares \"%s\"", path.c_str(),
          name.c_str(), unit->string_value.c_str(), spec_path.c_str(),
          it->second.unit.c_str()));
    }
    if (!std::isfinite(value->number_value)) {
      return Status::InvalidArgument(StrFormat(
          "%s: metric %s is not finite", path.c_str(), name.c_str()));
    }
    values.emplace_back(name, value->number_value);
  }
  return values;
}

int Fail(const Status& status) {
  std::fprintf(stderr, "bench_diff: %s\n", status.ToString().c_str());
  return 1;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc != 4) {
    std::fprintf(stderr,
                 "bench_diff: expected exactly three files, got %d\n"
                 "usage: bench_diff BENCHMARK.json BASELINE.json "
                 "CANDIDATE.json\n",
                 argc - 1);
    return 1;
  }
  const std::string spec_path = argv[1], baseline_path = argv[2];
  StatusOr<Spec> spec = LoadSpec(spec_path);
  if (!spec.ok()) return Fail(spec.status());
  StatusOr<Values> baseline = LoadResult(baseline_path, *spec, spec_path);
  if (!baseline.ok()) return Fail(baseline.status());
  StatusOr<Values> candidate = LoadResult(argv[3], *spec, spec_path);
  if (!candidate.ok()) return Fail(candidate.status());
  const std::map<std::string, double> cand(candidate->begin(),
                                           candidate->end());
  std::vector<std::pair<std::string, double>> shared;  // name, baseline
  for (const auto& [name, b] : *baseline) {
    // A relative bound needs a positive baseline; perfbench never reads 0
    // for an end-to-end metric.
    if (spec->at(name).end_to_end && b <= 0.0) {
      return Fail(Status::InvalidArgument(StrFormat(
          "%s: end-to-end metric %s reads %g, but its relative bound needs "
          "a positive baseline",
          baseline_path.c_str(), name.c_str(), b)));
    }
    if (cand.count(name) > 0) shared.emplace_back(name, b);
  }
  if (shared.empty()) {
    return Fail(Status::InvalidArgument(
        "the baseline and the candidate share no metric"));
  }

  std::printf("%-36s %12s %12s %-5s %8s %6s  %s\n", "metric", "baseline",
              "candidate", "unit", "delta", "bound", "verdict");
  int end_to_end = 0, per_layer = 0, regressions = 0;
  for (const auto& [name, b] : shared) {
    const double c = cand.at(name);
    const MetricSpec& s = spec->at(name);
    const double rel = b != 0.0 ? (c - b) / std::fabs(b) : 0.0;
    std::string delta = b != 0.0 ? StrFormat("%+.1f%%", 100.0 * rel) : "n/a";
    std::string bound = "-";
    const char* verdict;
    if (s.end_to_end) {
      ++end_to_end;
      bound = StrFormat("%.0f%%", 100.0 * s.bound);
      // Positive when the candidate moved in the worse direction.
      const double worsening = s.higher_is_better ? -rel : rel;
      if (worsening > s.bound) {
        verdict = "REGRESSION";
        ++regressions;
      } else {
        verdict = worsening < -s.bound ? "improved" : "ok";
      }
    } else {
      ++per_layer;
      verdict = c == b                          ? "same"
                : (c > b) == s.higher_is_better ? "better"
                                                : "worse";
    }
    std::printf("%-36s %12.6g %12.6g %-5s %8s %6s  %s\n", name.c_str(), b, c,
                s.unit.c_str(), delta.c_str(), bound.c_str(), verdict);
  }

  std::printf(
      "\n%d end-to-end metric(s) compared, %d regression(s); %d per-layer "
      "metric(s) reported\n",
      end_to_end, regressions, per_layer);
  return regressions > 0 ? 1 : 0;
}
