// Ablation benches for the design choices DESIGN.md calls out. These are
// OUR experiments (the paper reports only its final design), run at a
// reduced scale so the whole sweep stays tractable on one core:
//
//   (a) pooling: log-sum-exp (paper) vs max vs mean
//   (b) residual bypass into the representation layer: on (paper) vs off
//   (c) convolution window sets: {1} vs {1,3} vs {1,3,5} (paper)
//   (d) theta_r sensitivity (paper: "training is not very sensitive")
//   (e) semantic baselines: LDA topic-similarity features vs the
//       CNN representation features in the combiner (paper §1-2 argument)
//   (f) transiency sweep: CF's gain over base features as event lifespans
//       shrink (the paper's motivation for why CF fails on events)
//
// Every variant reports the eval-week AUC of the representation cosine
// (ablations a-d), or the combiner AUC (e, f).

#include <cstdio>

#include "bench/common/bench_profile.h"
#include "evrec/eval/table_printer.h"
#include "evrec/topics/lda.h"
#include "evrec/util/math_util.h"
#include "evrec/util/string_util.h"

namespace {

using namespace evrec;

pipeline::PipelineConfig AblationProfile() {
  pipeline::PipelineConfig cfg = bench::BenchProfile();
  cfg.simnet.num_users = 500;
  cfg.simnet.num_pages = 160;
  cfg.simnet.num_events = 700;
  cfg.rep.max_epochs = 6;
  cfg.rep.early_stop_patience = 6;
  cfg.max_user_tokens = 80;
  cfg.max_event_tokens = 96;
  return cfg;
}

// Eval-week AUC of the raw representation cosine.
double RepCosineEvalAuc(pipeline::TwoStagePipeline& p) {
  const auto& ds = p.dataset();
  const auto& ur = p.user_reps();
  const auto& er = p.event_reps();
  std::vector<double> scores;
  std::vector<float> labels;
  for (const auto& i : ds.eval) {
    scores.push_back(CosineSimilarity(
        ur[static_cast<size_t>(i.user)].data(),
        er[static_cast<size_t>(i.event)].data(),
        static_cast<int>(ur[static_cast<size_t>(i.user)].size())));
    labels.push_back(i.label);
  }
  return eval::RocAuc(scores, labels);
}

double RunRepVariant(pipeline::PipelineConfig cfg) {
  pipeline::TwoStagePipeline p(cfg);
  p.Prepare();
  p.TrainRepresentation();
  p.ComputeRepVectors();
  return RepCosineEvalAuc(p);
}

}  // namespace

int main() {
  bench::PrintHeader("ABLATIONS - design choices of the joint model");

  // ---- (a) pooling ----
  {
    eval::TablePrinter table({"pooling", "rep cosine eval AUC"});
    for (auto [name, pool] :
         {std::pair<const char*, nn::PoolType>{"logsumexp (paper)",
                                               nn::PoolType::kLogSumExp},
          {"max", nn::PoolType::kMax},
          {"mean", nn::PoolType::kMean}}) {
      pipeline::PipelineConfig cfg = AblationProfile();
      cfg.rep.pool = pool;
      table.AddRow({name, eval::Metric3(RunRepVariant(cfg))});
    }
    std::printf("(a) pooling type\n");
    table.Print();
  }

  // ---- (b) residual bypass ----
  {
    eval::TablePrinter table({"bypass", "rep cosine eval AUC"});
    for (bool bypass : {true, false}) {
      pipeline::PipelineConfig cfg = AblationProfile();
      cfg.rep.residual_bypass = bypass;
      table.AddRow({bypass ? "on (paper)" : "off",
                    eval::Metric3(RunRepVariant(cfg))});
    }
    std::printf("\n(b) residual bypass into the representation layer\n");
    table.Print();
  }

  // ---- (c) window sets ----
  {
    eval::TablePrinter table({"text windows", "rep cosine eval AUC"});
    for (auto [name, windows] :
         {std::pair<const char*, std::vector<int>>{"{1}", {1}},
          {"{1,3}", {1, 3}},
          {"{1,3,5} (paper)", {1, 3, 5}}}) {
      pipeline::PipelineConfig cfg = AblationProfile();
      cfg.rep.text_windows = windows;
      table.AddRow({name, eval::Metric3(RunRepVariant(cfg))});
    }
    std::printf("\n(c) convolution window sizes\n");
    table.Print();
  }

  // ---- (d) theta_r ----
  {
    eval::TablePrinter table({"theta_r", "rep cosine eval AUC"});
    for (float theta : {-0.2f, 0.0f, 0.2f}) {
      pipeline::PipelineConfig cfg = AblationProfile();
      cfg.rep.theta_r = theta;
      table.AddRow({eval::Metric3(theta),
                    eval::Metric3(RunRepVariant(cfg))});
    }
    std::printf("\n(d) theta_r margin (paper: training not very sensitive)\n");
    table.Print();
  }

  // ---- (e) LDA semantic features vs representation features ----
  {
    pipeline::PipelineConfig cfg = AblationProfile();
    pipeline::TwoStagePipeline p(cfg);
    p.Prepare();
    p.TrainRepresentation();
    p.ComputeRepVectors();
    const auto& ds = p.dataset();

    // Word-level vocabulary over event text from the training period; the
    // BoW models represent a user by the concatenation of their PAST
    // ATTENDED EVENTS' text (the homogeneity restriction of prior work:
    // user docs in the user-word space are useless to an event-trained
    // topic model because the vocabularies are disjoint).
    text::WordUnigramTokenizer unigram;
    std::vector<std::vector<std::string>> docs;
    for (const auto& e : ds.events) {
      if (e.create_day < ds.config.rep_train_days) {
        docs.push_back(simnet::EventTextWords(e));
      }
    }
    text::Vocabulary vocab =
        text::BuildVocabulary(unigram, docs, 2, 100000);
    auto encode_ids = [&](const std::vector<std::string>& words) {
      std::vector<int> ids;
      for (const auto& w : words) {
        int id = vocab.Lookup(w);
        if (id >= 0) ids.push_back(id);
      }
      return ids;
    };
    std::vector<std::vector<int>> corpus;
    for (const auto& d : docs) corpus.push_back(encode_ids(d));

    topics::LdaConfig lda_cfg;
    lda_cfg.num_topics = cfg.simnet.num_topics;
    lda_cfg.train_iterations = 100;
    topics::LdaModel lda;
    lda.Train(corpus, vocab.size(), lda_cfg);

    // Event mixtures (fold-in for post-cutoff events), user mixtures from
    // attended-events history before the combiner period.
    Rng infer_rng(7);
    std::vector<std::vector<double>> event_mix(ds.events.size());
    for (const auto& e : ds.events) {
      event_mix[static_cast<size_t>(e.id)] = lda.InferTopics(
          encode_ids(simnet::EventTextWords(e)), infer_rng);
    }
    std::vector<std::vector<double>> user_mix(ds.world.users.size());
    const auto& index = p.feature_index();
    for (const auto& u : ds.world.users) {
      std::vector<int> history_doc;
      for (int e : index.UserJoinedEventsBefore(
               u.id, ds.config.rep_train_days)) {
        auto ids = encode_ids(
            simnet::EventTextWords(ds.events[static_cast<size_t>(e)]));
        history_doc.insert(history_doc.end(), ids.begin(), ids.end());
      }
      user_mix[static_cast<size_t>(u.id)] =
          lda.InferTopics(history_doc, infer_rng);
    }

    // Evaluate: base + LDA-similarity feature vs base + rep features.
    baseline::FeatureConfig base_cfg;  // base only
    base_cfg.cf = false;
    auto base_result = p.EvaluateFeatureConfig(base_cfg);

    baseline::FeatureConfig rep_cfg;
    rep_cfg.cf = false;
    rep_cfg.rep_vectors = true;
    auto rep_result = p.EvaluateFeatureConfig(rep_cfg);

    // base + LDA sim: assemble manually.
    baseline::FeatureAssembler lda_assembler(p.feature_index(), nullptr,
                                             nullptr);
    lda_assembler.SetExtraFeatures(
        {"lda_topic_similarity"},
        [&](int user, int event, int day, std::vector<float>* out) {
          (void)day;
          out->push_back(static_cast<float>(topics::LdaModel::MixtureSimilarity(
              user_mix[static_cast<size_t>(user)],
              event_mix[static_cast<size_t>(event)])));
        });
    gbdt::DataMatrix train_x, eval_x;
    std::vector<float> train_y, eval_y;
    lda_assembler.Assemble(ds.combiner_train, base_cfg, &train_x, &train_y);
    lda_assembler.Assemble(ds.eval, base_cfg, &eval_x, &eval_y);
    gbdt::GbdtModel lda_model;
    lda_model.Train(train_x, train_y, cfg.gbdt);
    double lda_auc =
        eval::RocAuc(lda_model.PredictProbabilities(eval_x), eval_y);

    std::printf("\n(e) semantic features in the combiner (base, no CF)\n");
    eval::TablePrinter table({"features", "eval AUC"});
    table.AddRow({"base only", eval::Metric3(base_result.auc)});
    table.AddRow({"base + LDA topic similarity", eval::Metric3(lda_auc)});
    table.AddRow({"base + CNN rep features (paper)",
                  eval::Metric3(rep_result.auc)});
    table.Print();
    std::printf("shape: CNN rep beats BoW LDA features : %s\n",
                rep_result.auc > lda_auc ? "OK" : "MISMATCH");
  }

  // ---- (f) transiency sweep ----
  {
    std::printf("\n(f) event transiency vs the value of CF features\n");
    eval::TablePrinter table({"lifespan (days)", "cold-start frac",
                              "base AUC", "base+CF AUC", "CF gain"});
    for (auto [lo, hi] : {std::pair<double, double>{1.0, 3.0},
                          {1.0, 14.0},
                          {10.0, 28.0}}) {
      pipeline::PipelineConfig cfg = AblationProfile();
      cfg.simnet.lifespan_min_days = lo;
      cfg.simnet.lifespan_max_days = hi;
      pipeline::TwoStagePipeline p(cfg);
      p.Prepare();
      // CF ablation needs no representation model; evaluate base vs
      // base+CF combiner directly.
      p.TrainRepresentation();  // cached/fast; keeps the API uniform
      p.ComputeRepVectors();
      baseline::FeatureConfig base_cfg;
      base_cfg.cf = false;
      baseline::FeatureConfig cf_cfg;
      auto base_r = p.EvaluateFeatureConfig(base_cfg);
      auto cf_r = p.EvaluateFeatureConfig(cf_cfg);
      table.AddRow({evrec::StrFormat("%.0f-%.0f", lo, hi),
                    eval::Metric3(simnet::ColdStartEventFraction(p.dataset())),
                    eval::Metric3(base_r.auc), eval::Metric3(cf_r.auc),
                    evrec::StrFormat("%+.3f", cf_r.auc - base_r.auc)});
    }
    table.Print();
    std::printf("expectation: CF gain grows as lifespans lengthen\n");
  }

  return 0;
}
