// Reproduces TABLE 1 (paper §5.2): effect of different ways of integrating
// the representation model's outputs into the GBDT combiner.
//
//   | Integration Setting  | PR60  | PR80  | AUC   |   (paper values)
//   | Rep. Vectors         | 0.289 | 0.215 | 0.754 |
//   | Baseline             | 0.388 | 0.262 | 0.810 |
//   | Add Rep. Vectors     | 0.516 | 0.339 | 0.861 |
//   | Add Score and Rep.   | 0.521 | 0.346 | 0.862 |
//
// Expected shape: Rep-only < Baseline < Baseline+Rep, with the score
// feature adding almost nothing on top of the vectors (the GBDT already
// captures per-dimension interactions). Exits 1 when a shape check fails.

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
  bench::PrintHeader("TABLE 1 - effect of different integration settings");

  auto pipeline = bench::MakeTrainedPipeline(bench::BenchProfile());

  struct Config {
    PaperRow paper;
    baseline::FeatureConfig features;
  };
  std::vector<Config> configs = {
      {{"Rep. Vectors", 0.289, 0.215, 0.754},
       {/*base=*/false, /*cf=*/false, /*rep_vectors=*/true,
        /*rep_score=*/false}},
      {{"Baseline", 0.388, 0.262, 0.810},
       {true, true, false, false}},
      {{"Add Rep. Vectors", 0.516, 0.339, 0.861},
       {true, true, true, false}},
      {{"Add Score and Rep.", 0.521, 0.346, 0.862},
       {true, true, true, true}},
  };

  eval::TablePrinter table({"Integration Setting", "PR60", "PR80", "AUC",
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

  // Shape checks mirrored from the paper's narrative.
  bool rep_below_baseline = results[0].auc < results[1].auc;
  bool rep_lifts_baseline = results[2].auc > results[1].auc + 0.005;
  bool score_adds_little =
      std::abs(results[3].auc - results[2].auc) < 0.02;
  std::printf("\nshape: rep-only < baseline            : %s\n",
              rep_below_baseline ? "OK" : "MISMATCH");
  std::printf("shape: baseline+rep > baseline        : %s\n",
              rep_lifts_baseline ? "OK" : "MISMATCH");
  std::printf("shape: score adds ~nothing over rep   : %s\n",
              score_adds_little ? "OK" : "MISMATCH");
  std::printf("AUC lift from rep features: %+.1f%% (paper: +6%%)\n",
              100.0 * (results[2].auc - results[1].auc) / results[1].auc);

  return rep_below_baseline && rep_lifts_baseline && score_adds_little ? 0 : 1;
}
