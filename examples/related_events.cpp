// Related-event semantic search (the paper's §3.2.1 / Table 3 scenario):
// pre-train the event tower as a Siamese network on title/body pairs —
// zero user feedback — and use it to find events similar to a seed event.
// This is the "related events" product surface.
//
// Build & run:  ./build/examples/related_events

#include <cstdio>

#include "evrec/model/siamese.h"
#include "evrec/pipeline/pipeline.h"
#include "evrec/simnet/docs.h"
#include "evrec/store/rep_table.h"
#include "evrec/util/logging.h"

namespace {

std::string JoinWords(const std::vector<std::string>& words) {
  std::string out;
  for (const auto& w : words) {
    if (!out.empty()) out += ' ';
    out += w;
  }
  return out;
}

}  // namespace

int main() {
  using namespace evrec;
  SetLogLevel(LogLevel::kWarn);

  pipeline::PipelineConfig config;
  config.simnet = simnet::TinySimnetConfig();
  config.simnet.num_events = 300;
  config.rep.embedding_dim = 16;
  config.rep.module_out_dim = 16;
  config.rep.hidden_dim = 32;
  config.rep.rep_dim = 16;
  config.max_event_tokens = 96;

  pipeline::TwoStagePipeline pipeline(config);
  pipeline.Prepare();
  const auto& dataset = pipeline.dataset();
  const auto& encoders = pipeline.encoders();

  // Standalone event tower, Siamese pre-trained on (title, body) pairs.
  model::Tower tower({encoders.EventTextVocab()}, {config.rep.text_windows},
                     config.rep.embedding_dim, config.rep.module_out_dim,
                     config.rep.hidden_dim, config.rep.rep_dim,
                     config.rep.pool, config.rep.residual_bypass);
  Rng rng(7);
  tower.RandomInit(rng, config.rep.embedding_init_scale);
  tower.CalibrateNormalizer(pipeline.rep_data().event_inputs);

  std::vector<text::EncodedText> titles, bodies;
  for (const auto& event : dataset.events) {
    titles.push_back(encoders.EncodeEventTitle(event, 96));
    bodies.push_back(encoders.EncodeEventBody(event, 96));
  }
  model::SiameseConfig siamese;
  siamese.max_epochs = 8;
  Rng train_rng(8);
  model::SiameseStats stats =
      model::SiamesePretrain(&tower, titles, bodies, siamese, train_rng);
  std::printf("siamese pre-training: loss %.3f -> %.3f over %d epochs\n",
              stats.train_loss.front(), stats.train_loss.back(),
              stats.epochs_run);

  // Embed every event, then rank all of them by exact cosine to the seed.
  std::vector<std::vector<float>> reps;
  reps.reserve(dataset.events.size());
  for (const auto& input : pipeline.rep_data().event_inputs) {
    reps.push_back(tower.Represent(input));
  }

  const int seed = 0;
  const auto& seed_event = dataset.events[seed];
  std::printf("\nseed event [%s]: %s\n", seed_event.category_name.c_str(),
              JoinWords(seed_event.title_words).c_str());

  const std::vector<store::Neighbor> results =
      store::NearestByCosine(reps[seed], reps, /*exclude=*/seed, /*k=*/5);
  std::printf("top related events (exact cosine):\n");
  for (const auto& r : results) {
    const auto& e = dataset.events[static_cast<size_t>(r.id)];
    std::printf("  %.3f [%s] %s\n", r.score, e.category_name.c_str(),
                JoinWords(e.title_words).c_str());
  }
  return 0;
}
