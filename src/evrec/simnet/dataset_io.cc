#include "evrec/simnet/dataset_io.h"

#include <cstdio>
#include <algorithm>
#include <fstream>
#include <sstream>

#include "evrec/util/string_util.h"

namespace evrec {
namespace simnet {

namespace {

std::string JoinInts(const std::vector<int>& v) {
  std::string out;
  for (int x : v) {
    if (!out.empty()) out += ' ';
    out += std::to_string(x);
  }
  return out;
}

std::string JoinDoubles(const std::vector<double>& v) {
  std::string out;
  for (double x : v) {
    if (!out.empty()) out += ' ';
    out += StrFormat("%.9g", x);
  }
  return out;
}

std::string JoinWords(const std::vector<std::string>& v) {
  std::string out;
  for (const auto& w : v) {
    if (!out.empty()) out += ' ';
    out += w;
  }
  return out;
}

std::vector<std::string> ParseWords(std::string_view field) {
  std::vector<std::string> out;
  for (auto piece : SplitAndTrim(field, " ")) {
    out.emplace_back(piece);
  }
  return out;
}

class TsvWriter {
 public:
  explicit TsvWriter(const std::string& path) : out_(path) {}
  bool ok() const { return out_.good(); }

  void Row(const std::vector<std::string>& fields) {
    for (size_t i = 0; i < fields.size(); ++i) {
      if (i > 0) out_ << '\t';
      out_ << fields[i];
    }
    out_ << '\n';
  }

 private:
  std::ofstream out_;
};

// One non-empty line of a TSV file: its 1-based line number and its
// tab-separated fields (empty fields preserved).
struct TsvRow {
  int line = 0;
  std::vector<std::string> fields;
};

StatusOr<std::vector<TsvRow>> ReadTsv(const std::string& path) {
  std::ifstream in(path);
  if (!in.good()) return Status::IoError("cannot open " + path);
  std::vector<TsvRow> rows;
  std::string line;
  int line_number = 0;
  while (std::getline(in, line)) {
    ++line_number;
    if (line.empty()) continue;
    TsvRow row;
    row.line = line_number;
    size_t start = 0;
    while (true) {
      size_t tab = line.find('\t', start);
      if (tab == std::string::npos) {
        row.fields.push_back(line.substr(start));
        break;
      }
      row.fields.push_back(line.substr(start, tab - start));
      start = tab + 1;
    }
    rows.push_back(std::move(row));
  }
  return rows;
}

// Strict parsing of one TSV row. Every numeric field must be one whole
// number (ParseNumber), and every id must index an existing row of the
// table it refers to. The first failure is kept as a Corruption naming
// the file, the line and the field; getters return zero values after it.
class RowReader {
 public:
  RowReader(const char* file, const TsvRow& row, size_t num_fields)
      : file_(file), row_(row) {
    if (row.fields.size() != num_fields) {
      Fail(StrFormat("expected %zu tab-separated fields, got %zu",
                     num_fields, row.fields.size()));
    }
  }

  bool ok() const { return status_.ok(); }
  const Status& status() const { return status_; }

  void Fail(const std::string& what) {
    if (ok()) {
      status_ = Status::Corruption(
          StrFormat("%s line %d: %s", file_, row_.line, what.c_str()));
    }
  }

  // An integer field; with `size` >= 0 it must be an id in [0, size).
  int Int(size_t col, const char* name, int size = -1) {
    return ok() ? ParseInt(row_.fields[col], name, size) : 0;
  }

  // An integer field that must be >= 0 (days).
  int NonNegative(size_t col, const char* name) {
    const int v = Int(col, name);
    if (v < 0) Fail(StrFormat("%s: %d is negative", name, v));
    return v;
  }

  double Double(size_t col, const char* name) {
    return ok() ? ParseDouble(row_.fields[col], name) : 0.0;
  }

  // Space-separated lists.
  std::vector<int> Ints(size_t col, const char* name, int size) {
    std::vector<int> out;
    if (!ok()) return out;
    for (std::string_view piece : SplitAndTrim(row_.fields[col], " ")) {
      out.push_back(ParseInt(piece, name, size));
    }
    return out;
  }

  std::vector<double> Doubles(size_t col, const char* name) {
    std::vector<double> out;
    if (!ok()) return out;
    for (std::string_view piece : SplitAndTrim(row_.fields[col], " ")) {
      out.push_back(ParseDouble(piece, name));
    }
    return out;
  }

 private:
  int ParseInt(std::string_view text, const char* name, int size) {
    int v = 0;
    if (!ParseNumber(text, &v)) {
      Fail(StrFormat("%s: '%.*s' is not an integer", name,
                     static_cast<int>(text.size()), text.data()));
    } else if (size >= 0 && (v < 0 || v >= size)) {
      Fail(StrFormat("%s: id %d is out of range [0, %d)", name, v, size));
      v = 0;
    }
    return v;
  }

  double ParseDouble(std::string_view text, const char* name) {
    double v = 0.0;
    if (!ParseNumber(text, &v)) {
      Fail(StrFormat("%s: '%.*s' is not a finite number", name,
                     static_cast<int>(text.size()), text.data()));
    }
    return v;
  }

  const char* file_;
  const TsvRow& row_;
  Status status_;
};

}  // namespace

Status ExportDataset(const SimnetDataset& dataset, const std::string& dir) {
  {
    TsvWriter w(dir + "/users.tsv");
    if (!w.ok()) return Status::IoError("cannot write users.tsv");
    for (const User& u : dataset.world.users) {
      w.Row({std::to_string(u.id), std::to_string(u.city),
             std::to_string(u.age_bucket), std::to_string(u.gender),
             StrFormat("%.9g", u.activity_bias), JoinDoubles(u.interests),
             JoinInts(u.friends), JoinInts(u.pages),
             JoinWords(u.profile_words)});
    }
  }
  {
    TsvWriter w(dir + "/pages.tsv");
    if (!w.ok()) return Status::IoError("cannot write pages.tsv");
    for (const Page& p : dataset.world.pages) {
      w.Row({std::to_string(p.id), std::to_string(p.topic),
             JoinWords(p.title_words)});
    }
  }
  {
    TsvWriter w(dir + "/events.tsv");
    if (!w.ok()) return Status::IoError("cannot write events.tsv");
    for (const Event& e : dataset.events) {
      w.Row({std::to_string(e.id), std::to_string(e.host_user),
             std::to_string(e.city), StrFormat("%.9g", e.x),
             StrFormat("%.9g", e.y), std::to_string(e.category),
             e.category_name, StrFormat("%.9g", e.create_day),
             StrFormat("%.9g", e.start_day), JoinDoubles(e.topics),
             JoinWords(e.title_words), JoinWords(e.body_words)});
    }
  }
  {
    TsvWriter w(dir + "/impressions.tsv");
    if (!w.ok()) return Status::IoError("cannot write impressions.tsv");
    auto dump = [&](const char* split, const std::vector<Impression>& v) {
      for (const Impression& i : v) {
        w.Row({split, std::to_string(i.user), std::to_string(i.event),
               std::to_string(i.day), i.label > 0.5f ? "1" : "0"});
      }
    };
    dump("rep_train", dataset.rep_train);
    dump("combiner_train", dataset.combiner_train);
    dump("eval", dataset.eval);
  }
  {
    TsvWriter w(dir + "/feedback.tsv");
    if (!w.ok()) return Status::IoError("cannot write feedback.tsv");
    for (size_t u = 0; u < dataset.feedback.user_joins.size(); ++u) {
      for (const FeedbackEdge& e : dataset.feedback.user_joins[u]) {
        w.Row({"join", std::to_string(u), std::to_string(e.counterpart),
               std::to_string(e.day)});
      }
    }
    for (size_t u = 0; u < dataset.feedback.user_interested.size(); ++u) {
      for (const FeedbackEdge& e : dataset.feedback.user_interested[u]) {
        w.Row({"interested", std::to_string(u),
               std::to_string(e.counterpart), std::to_string(e.day)});
      }
    }
  }
  return Status::Ok();
}

StatusOr<SimnetDataset> ImportDataset(const std::string& dir) {
  // Every file is read before any row is parsed, so each id can be checked
  // against the size of the table it indexes. Rows are numbered by
  // position: a row's own id must equal it.
  auto users = ReadTsv(dir + "/users.tsv");
  if (!users.ok()) return users.status();
  auto pages = ReadTsv(dir + "/pages.tsv");
  if (!pages.ok()) return pages.status();
  auto events = ReadTsv(dir + "/events.tsv");
  if (!events.ok()) return events.status();
  auto impressions = ReadTsv(dir + "/impressions.tsv");
  if (!impressions.ok()) return impressions.status();
  auto feedback = ReadTsv(dir + "/feedback.tsv");
  if (!feedback.ok()) return feedback.status();
  const int num_users = static_cast<int>(users->size());
  const int num_pages = static_cast<int>(pages->size());
  const int num_events = static_cast<int>(events->size());
  auto check_position = [](RowReader& r, int id, size_t position) {
    if (r.ok() && id != static_cast<int>(position)) {
      r.Fail(StrFormat("id %d is out of sequence, expected %zu", id,
                       position));
    }
  };

  SimnetDataset dataset;
  for (const TsvRow& row : *users) {
    RowReader r("users.tsv", row, 9);
    User u;
    u.id = r.Int(0, "id");
    check_position(r, u.id, dataset.world.users.size());
    u.city = r.Int(1, "city");
    u.age_bucket = r.Int(2, "age_bucket");
    u.gender = r.Int(3, "gender");
    u.activity_bias = r.Double(4, "activity_bias");
    u.interests = r.Doubles(5, "interests");
    u.friends = r.Ints(6, "friends", num_users);
    u.pages = r.Ints(7, "pages", num_pages);
    if (!r.ok()) return r.status();
    u.profile_words = ParseWords(row.fields[8]);
    dataset.world.users.push_back(std::move(u));
  }

  for (const TsvRow& row : *pages) {
    RowReader r("pages.tsv", row, 3);
    Page p;
    p.id = r.Int(0, "id");
    check_position(r, p.id, dataset.world.pages.size());
    p.topic = r.Int(1, "topic");
    if (!r.ok()) return r.status();
    p.title_words = ParseWords(row.fields[2]);
    dataset.world.pages.push_back(std::move(p));
  }

  for (const TsvRow& row : *events) {
    RowReader r("events.tsv", row, 12);
    Event e;
    e.id = r.Int(0, "id");
    check_position(r, e.id, dataset.events.size());
    e.host_user = r.Int(1, "host", num_users);
    e.city = r.Int(2, "city");
    e.x = r.Double(3, "x");
    e.y = r.Double(4, "y");
    e.category = r.Int(5, "category");
    e.create_day = r.Double(7, "create_day");
    e.start_day = r.Double(8, "start_day");
    e.topics = r.Doubles(9, "topics");
    if (!r.ok()) return r.status();
    e.category_name = row.fields[6];
    e.title_words = ParseWords(row.fields[10]);
    e.body_words = ParseWords(row.fields[11]);
    dataset.events.push_back(std::move(e));
  }

  for (const TsvRow& row : *impressions) {
    RowReader r("impressions.tsv", row, 5);
    Impression imp;
    imp.user = r.Int(1, "user", num_users);
    imp.event = r.Int(2, "event", num_events);
    imp.day = r.NonNegative(3, "day");
    if (r.ok() && row.fields[4] != "0" && row.fields[4] != "1") {
      r.Fail("label: '" + row.fields[4] + "' is not 0 or 1");
    }
    if (!r.ok()) return r.status();
    imp.label = row.fields[4] == "1" ? 1.0f : 0.0f;
    const std::string& split = row.fields[0];
    if (split == "rep_train") {
      dataset.rep_train.push_back(imp);
    } else if (split == "combiner_train") {
      dataset.combiner_train.push_back(imp);
    } else if (split == "eval") {
      dataset.eval.push_back(imp);
    } else {
      r.Fail("unknown split '" + split + "'");
      return r.status();
    }
  }

  dataset.feedback.user_joins.resize(dataset.world.users.size());
  dataset.feedback.user_interested.resize(dataset.world.users.size());
  dataset.feedback.event_attendees.resize(dataset.events.size());
  dataset.feedback.event_interested.resize(dataset.events.size());
  for (const TsvRow& row : *feedback) {
    RowReader r("feedback.tsv", row, 4);
    const int user = r.Int(1, "user", num_users);
    const int event = r.Int(2, "event", num_events);
    const int day = r.NonNegative(3, "day");
    if (!r.ok()) return r.status();
    const std::string& kind = row.fields[0];
    if (kind == "join") {
      dataset.feedback.user_joins[static_cast<size_t>(user)].push_back(
          {event, day});
      dataset.feedback.event_attendees[static_cast<size_t>(event)].push_back(
          {user, day});
    } else if (kind == "interested") {
      dataset.feedback.user_interested[static_cast<size_t>(user)].push_back(
          {event, day});
      dataset.feedback.event_interested[static_cast<size_t>(event)]
          .push_back({user, day});
    } else {
      r.Fail("unknown kind '" + kind + "'");
      return r.status();
    }
  }

  // The export groups feedback by user; FeatureIndex requires each edge
  // list day-ascending. Restore the invariant.
  auto sort_edges = [](std::vector<std::vector<FeedbackEdge>>& lists) {
    for (auto& edges : lists) {
      std::stable_sort(edges.begin(), edges.end(),
                       [](const FeedbackEdge& a, const FeedbackEdge& b) {
                         return a.day < b.day;
                       });
    }
  };
  sort_edges(dataset.feedback.user_joins);
  sort_edges(dataset.feedback.user_interested);
  sort_edges(dataset.feedback.event_attendees);
  sort_edges(dataset.feedback.event_interested);

  // Recover derivable config fields.
  if (!dataset.world.users.empty()) {
    dataset.config.num_topics =
        static_cast<int>(dataset.world.users[0].interests.size());
  }
  dataset.config.num_users = static_cast<int>(dataset.world.users.size());
  dataset.config.num_events = static_cast<int>(dataset.events.size());
  dataset.config.num_pages = static_cast<int>(dataset.world.pages.size());
  int max_city = 0;
  for (const auto& u : dataset.world.users) {
    max_city = std::max(max_city, u.city);
  }
  dataset.config.num_cities = max_city + 1;
  int rep_end = 0, comb_end = 0, eval_end = 0;
  for (const auto& i : dataset.rep_train) rep_end = std::max(rep_end, i.day);
  for (const auto& i : dataset.combiner_train) {
    comb_end = std::max(comb_end, i.day);
  }
  for (const auto& i : dataset.eval) eval_end = std::max(eval_end, i.day);
  dataset.config.rep_train_days = rep_end + 1;
  dataset.config.combiner_train_days = comb_end + 1;
  dataset.config.num_days = eval_end + 1;

  // Topic names from event categories.
  dataset.topic_names.assign(static_cast<size_t>(dataset.config.num_topics),
                             "");
  for (const auto& e : dataset.events) {
    if (e.category >= 0 && e.category < dataset.config.num_topics) {
      dataset.topic_names[static_cast<size_t>(e.category)] = e.category_name;
    }
  }
  return dataset;
}

}  // namespace simnet
}  // namespace evrec
