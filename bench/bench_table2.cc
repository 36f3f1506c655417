// Reproduces TABLE 2 (paper §5.2): comparison of feature-set combinations,
// isolating what collaborative filtering adds versus what the
// representation features add.
//
//   | Feature Combinations   | PR60  | PR80  | AUC   |   (paper values)
//   | Base Features (No-CF)  | 0.364 | 0.252 | 0.796 |
//   | Base and CF Features   | 0.388 | 0.262 | 0.810 |
//   | Base and Rep. Features | 0.516 | 0.339 | 0.859 |
//   | All Features           | 0.521 | 0.346 | 0.862 |
//
// Expected shape: CF adds a modest lift over base (limited by event
// transiency); representation features add substantially more; with rep
// features present, CF's marginal contribution mostly vanishes (the gains
// overlap). Exits 1 when a shape check fails.

#include <cstdio>

#include "bench/common/bench_profile.h"
#include "evrec/eval/table_printer.h"

namespace {

struct PaperRow {
  const char* name;
  double pr60, pr80, auc;
};

}  // namespace

int main() {
  using namespace evrec;
  bench::PrintHeader("TABLE 2 - comparison on combinations of feature sets");

  auto pipeline = bench::MakeTrainedPipeline(bench::BenchProfile());

  struct Config {
    PaperRow paper;
    baseline::FeatureConfig features;
  };
  std::vector<Config> configs = {
      {{"Base Features (No-CF)", 0.364, 0.252, 0.796},
       {/*base=*/true, /*cf=*/false, /*rep_vectors=*/false,
        /*rep_score=*/false}},
      {{"Base and CF Features", 0.388, 0.262, 0.810},
       {true, true, false, false}},
      {{"Base and Rep. Features", 0.516, 0.339, 0.859},
       {true, false, true, false}},
      {{"All Features", 0.521, 0.346, 0.862},
       {true, true, true, false}},
  };

  eval::TablePrinter table({"Feature Combinations", "PR60", "PR80", "AUC",
                            "paper PR60", "paper PR80", "paper AUC"});
  std::vector<pipeline::EvalResult> results;
  for (const auto& c : configs) {
    pipeline::EvalResult r = pipeline->EvaluateFeatureConfig(c.features);
    table.AddRow({c.paper.name, eval::Metric3(r.pr60), eval::Metric3(r.pr80),
                  eval::Metric3(r.auc), eval::Metric3(c.paper.pr60),
                  eval::Metric3(c.paper.pr80), eval::Metric3(c.paper.auc)});
    results.push_back(std::move(r));
  }
  table.Print();

  double cf_gain = results[1].auc - results[0].auc;
  double rep_gain = results[2].auc - results[0].auc;
  double cf_gain_given_rep = results[3].auc - results[2].auc;
  bool cf_lifts_base = cf_gain > 0.0;
  bool rep_beats_cf = rep_gain > cf_gain;
  bool cf_redundant_given_rep = cf_gain_given_rep < cf_gain + 0.01;
  std::printf("\nshape: CF adds a modest lift over base      : %s (%+.3f)\n",
              cf_lifts_base ? "OK" : "MISMATCH", cf_gain);
  std::printf("shape: rep features add more than CF        : %s (%+.3f)\n",
              rep_beats_cf ? "OK" : "MISMATCH", rep_gain);
  std::printf("shape: CF mostly redundant once rep present : %s (%+.3f)\n",
              cf_redundant_given_rep ? "OK" : "MISMATCH", cf_gain_given_rep);
  return cf_lifts_base && rep_beats_cf && cf_redundant_given_rep ? 0 : 1;
}
