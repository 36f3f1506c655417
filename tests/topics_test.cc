// Tests for evrec/topics: LDA (collapsed Gibbs) recovers planted topic
// structure, fold-in inference works on unseen documents, and the
// word-disjoint user/event vocabulary defeats word-level matching (the
// failure mode the paper attributes to bag-of-words models).

#include <gtest/gtest.h>

#include "evrec/topics/lda.h"
#include "evrec/util/rng.h"

namespace evrec {
namespace topics {
namespace {

// Corpus with two planted topics: words 0..9 vs 10..19.
std::vector<std::vector<int>> PlantedCorpus(int docs_per_topic,
                                            int words_per_doc,
                                            uint64_t seed) {
  Rng rng(seed);
  std::vector<std::vector<int>> docs;
  for (int topic = 0; topic < 2; ++topic) {
    for (int d = 0; d < docs_per_topic; ++d) {
      std::vector<int> doc;
      for (int w = 0; w < words_per_doc; ++w) {
        doc.push_back(topic * 10 + rng.UniformInt(0, 9));
      }
      docs.push_back(std::move(doc));
    }
  }
  return docs;
}

int ArgMax(const std::vector<double>& v) {
  int best = 0;
  for (size_t i = 1; i < v.size(); ++i) {
    if (v[i] > v[static_cast<size_t>(best)]) best = static_cast<int>(i);
  }
  return best;
}

TEST(LdaTest, RecoversPlantedTopics) {
  auto docs = PlantedCorpus(20, 30, 100);
  LdaConfig cfg;
  cfg.num_topics = 2;
  cfg.train_iterations = 120;
  LdaModel lda;
  lda.Train(docs, 20, cfg);

  int topic_a = ArgMax(lda.DocTopics(0));
  int agree_a = 0, agree_b = 0;
  for (int d = 0; d < 20; ++d) {
    if (ArgMax(lda.DocTopics(d)) == topic_a) ++agree_a;
  }
  for (int d = 20; d < 40; ++d) {
    if (ArgMax(lda.DocTopics(d)) != topic_a) ++agree_b;
  }
  EXPECT_GE(agree_a, 19);
  EXPECT_GE(agree_b, 19);

  // Topic-word distributions concentrate on the right word halves.
  int topic_b = 1 - topic_a;
  double mass_a = 0.0, mass_b = 0.0;
  for (int w = 0; w < 10; ++w) mass_a += lda.TopicWordProb(topic_a, w);
  for (int w = 10; w < 20; ++w) mass_b += lda.TopicWordProb(topic_b, w);
  EXPECT_GT(mass_a, 0.9);
  EXPECT_GT(mass_b, 0.9);
}

TEST(LdaTest, FoldInMatchesTrainingTopics) {
  auto docs = PlantedCorpus(20, 30, 101);
  LdaConfig cfg;
  cfg.num_topics = 2;
  LdaModel lda;
  lda.Train(docs, 20, cfg);
  Rng rng(7);
  std::vector<int> new_doc = {0, 3, 5, 7, 2, 8, 1};  // pure topic A words
  auto mix = lda.InferTopics(new_doc, rng);
  EXPECT_EQ(ArgMax(mix), ArgMax(lda.DocTopics(0)));
  EXPECT_GT(mix[static_cast<size_t>(ArgMax(mix))], 0.8);
}

TEST(LdaTest, UnknownWordsFallBackToUniform) {
  auto docs = PlantedCorpus(10, 20, 102);
  LdaConfig cfg;
  cfg.num_topics = 2;
  LdaModel lda;
  lda.Train(docs, 20, cfg);
  Rng rng(8);
  // All out-of-vocabulary ids.
  auto mix = lda.InferTopics({99, 100, -5}, rng);
  EXPECT_NEAR(mix[0], 0.5, 1e-9);
  EXPECT_NEAR(mix[1], 0.5, 1e-9);
}

TEST(LdaTest, WordDisjointDocumentsCannotBeMatched) {
  // The paper's core argument: if user docs use words 20..39 and event
  // docs use words 0..19, an LDA trained on event text sees user words as
  // OOV and returns the uninformative uniform mixture.
  auto event_docs = PlantedCorpus(20, 30, 103);
  LdaConfig cfg;
  cfg.num_topics = 2;
  LdaModel lda;
  lda.Train(event_docs, 20, cfg);
  Rng rng(9);
  std::vector<int> user_doc = {25, 31, 22, 38};  // disjoint vocabulary
  auto mix = lda.InferTopics(user_doc, rng);
  EXPECT_NEAR(mix[0], 0.5, 1e-9);  // no signal
}

TEST(LdaTest, MixtureSimilarity) {
  EXPECT_NEAR(LdaModel::MixtureSimilarity({1.0, 0.0}, {1.0, 0.0}), 1.0,
              1e-12);
  EXPECT_NEAR(LdaModel::MixtureSimilarity({1.0, 0.0}, {0.0, 1.0}), 0.0,
              1e-12);
}

TEST(LdaTest, DeterministicForSameSeed) {
  auto docs = PlantedCorpus(10, 20, 104);
  LdaConfig cfg;
  cfg.num_topics = 2;
  cfg.train_iterations = 30;
  LdaModel a, b;
  a.Train(docs, 20, cfg);
  b.Train(docs, 20, cfg);
  for (int d = 0; d < 20; ++d) {
    auto ma = a.DocTopics(d);
    auto mb = b.DocTopics(d);
    for (size_t k = 0; k < ma.size(); ++k) {
      EXPECT_DOUBLE_EQ(ma[k], mb[k]);
    }
  }
}

}  // namespace
}  // namespace topics
}  // namespace evrec
