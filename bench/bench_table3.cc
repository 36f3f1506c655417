// Reproduces TABLE 3 (paper §5.3): similar events discovered from a seed
// event using the event representation model alone. The paper sets a high
// cosine threshold (0.95) and finds "event pairs that are similar in
// semantic topics but do not necessarily overlap much in the word space".
//
// We take a seed event per category, rank all other events by event-to-
// event representation cosine, and report the top-3 with (a) their
// category and (b) their title-word Jaccard overlap with the seed —
// demonstrating topic match despite low word overlap.

#include <algorithm>
#include <cstdio>
#include <set>

#include "bench/common/bench_profile.h"
#include "evrec/eval/table_printer.h"
#include "evrec/simnet/docs.h"
#include "evrec/store/rep_table.h"

namespace {

double WordJaccard(const std::vector<std::string>& a,
                   const std::vector<std::string>& b) {
  std::set<std::string> sa(a.begin(), a.end());
  std::set<std::string> sb(b.begin(), b.end());
  int inter = 0;
  for (const auto& w : sa) inter += sb.count(w) != 0 ? 1 : 0;
  size_t uni = sa.size() + sb.size() - static_cast<size_t>(inter);
  return uni == 0 ? 0.0 : static_cast<double>(inter) / uni;
}

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
  bench::PrintHeader("TABLE 3 - similar events discovered by a seed event");

  auto pipeline = bench::MakeTrainedPipeline(bench::BenchProfile());
  const auto& dataset = pipeline->dataset();
  const auto& reps = pipeline->event_reps();

  int same_category_hits = 0, total_neighbours = 0;
  double total_word_overlap = 0.0;

  // One seed per of the first three categories (paper shows one, food).
  for (int category = 0; category < 3; ++category) {
    int seed = -1;
    for (const auto& e : dataset.events) {
      if (e.category == category) {
        seed = e.id;
        break;
      }
    }
    if (seed < 0) continue;
    const auto& seed_event = dataset.events[static_cast<size_t>(seed)];

    const std::vector<store::Neighbor> nearest = store::NearestByCosine(
        reps[static_cast<size_t>(seed)], reps, seed, /*k=*/3);

    std::printf("Seed [%s]: %s\n", seed_event.category_name.c_str(),
                JoinWords(seed_event.title_words).c_str());
    eval::TablePrinter table(
        {"cosine", "category", "title", "word-jaccard"});
    for (const store::Neighbor& neighbor : nearest) {
      const auto& e = dataset.events[static_cast<size_t>(neighbor.id)];
      double overlap = WordJaccard(simnet::EventTextWords(seed_event),
                                   simnet::EventTextWords(e));
      table.AddRow({eval::Metric3(neighbor.score), e.category_name,
                    JoinWords(e.title_words), eval::Metric3(overlap)});
      ++total_neighbours;
      if (e.category == seed_event.category) ++same_category_hits;
      total_word_overlap += overlap;
    }
    table.Print();
    std::printf("\n");
  }

  double purity = total_neighbours == 0
                      ? 0.0
                      : static_cast<double>(same_category_hits) /
                            total_neighbours;
  std::printf("neighbour same-category purity: %.2f (chance ~%.2f)\n",
              purity,
              1.0 / pipeline->config().simnet.num_topics);
  std::printf("mean word-space overlap: %.3f (low = semantic, not lexical,"
              " match)\n",
              total_word_overlap / std::max(1, total_neighbours));
  const bool shape_ok = purity > 3.0 / pipeline->config().simnet.num_topics;
  std::printf("shape: neighbours match seed topic well above chance : %s\n",
              shape_ok ? "OK" : "MISMATCH");
  return shape_ok ? 0 : 1;
}
