// Tests for evrec/simnet dataset TSV export/import: round-trip fidelity,
// downstream-pipeline equivalence, and corruption handling.

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <string>
#include <sys/stat.h>
#include <vector>

#include "evrec/baseline/feature_index.h"
#include "evrec/simnet/dataset_io.h"
#include "evrec/util/logging.h"
#include "evrec/util/string_util.h"

namespace evrec {
namespace simnet {
namespace {

class DatasetIoTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    SetLogLevel(LogLevel::kWarn);
    dir_ = new std::string(testing::TempDir() + "/evrec_dataset_io");
    ::mkdir(dir_->c_str(), 0755);
    dataset_ = new SimnetDataset(GenerateDataset(TinySimnetConfig()));
    ASSERT_TRUE(ExportDataset(*dataset_, *dir_).ok());
  }
  static void TearDownTestSuite() {
    for (const char* f : {"users.tsv", "pages.tsv", "events.tsv",
                          "impressions.tsv", "feedback.tsv"}) {
      std::remove((*dir_ + "/" + f).c_str());
    }
    delete dataset_;
    delete dir_;
    SetLogLevel(LogLevel::kInfo);
  }
  static SimnetDataset* dataset_;
  static std::string* dir_;
};

SimnetDataset* DatasetIoTest::dataset_ = nullptr;
std::string* DatasetIoTest::dir_ = nullptr;

TEST_F(DatasetIoTest, RoundTripEntityCounts) {
  auto loaded = ImportDataset(*dir_);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(loaded->num_users(), dataset_->num_users());
  EXPECT_EQ(loaded->num_events(), dataset_->num_events());
  EXPECT_EQ(loaded->world.pages.size(), dataset_->world.pages.size());
  EXPECT_EQ(loaded->rep_train.size(), dataset_->rep_train.size());
  EXPECT_EQ(loaded->combiner_train.size(), dataset_->combiner_train.size());
  EXPECT_EQ(loaded->eval.size(), dataset_->eval.size());
}

TEST_F(DatasetIoTest, RoundTripUserFields) {
  auto loaded = ImportDataset(*dir_);
  ASSERT_TRUE(loaded.ok());
  const User& a = dataset_->world.users[7];
  const User& b = loaded->world.users[7];
  EXPECT_EQ(a.city, b.city);
  EXPECT_EQ(a.age_bucket, b.age_bucket);
  EXPECT_EQ(a.gender, b.gender);
  EXPECT_EQ(a.friends, b.friends);
  EXPECT_EQ(a.pages, b.pages);
  EXPECT_EQ(a.profile_words, b.profile_words);
  ASSERT_EQ(a.interests.size(), b.interests.size());
  for (size_t k = 0; k < a.interests.size(); ++k) {
    EXPECT_NEAR(a.interests[k], b.interests[k], 1e-7);
  }
}

TEST_F(DatasetIoTest, RoundTripEventFields) {
  auto loaded = ImportDataset(*dir_);
  ASSERT_TRUE(loaded.ok());
  const Event& a = dataset_->events[3];
  const Event& b = loaded->events[3];
  EXPECT_EQ(a.host_user, b.host_user);
  EXPECT_EQ(a.category, b.category);
  EXPECT_EQ(a.category_name, b.category_name);
  EXPECT_NEAR(a.create_day, b.create_day, 1e-6);
  EXPECT_NEAR(a.start_day, b.start_day, 1e-6);
  EXPECT_EQ(a.title_words, b.title_words);
  EXPECT_EQ(a.body_words, b.body_words);
}

TEST_F(DatasetIoTest, RoundTripImpressionsAndSplits) {
  auto loaded = ImportDataset(*dir_);
  ASSERT_TRUE(loaded.ok());
  for (size_t i = 0; i < loaded->eval.size(); ++i) {
    EXPECT_EQ(loaded->eval[i].user, dataset_->eval[i].user);
    EXPECT_EQ(loaded->eval[i].event, dataset_->eval[i].event);
    EXPECT_EQ(loaded->eval[i].day, dataset_->eval[i].day);
    EXPECT_EQ(loaded->eval[i].label, dataset_->eval[i].label);
  }
  // Recovered split boundaries enclose the data.
  EXPECT_LE(loaded->config.rep_train_days,
            dataset_->config.rep_train_days);
  EXPECT_LE(loaded->config.combiner_train_days,
            dataset_->config.combiner_train_days);
}

TEST_F(DatasetIoTest, RoundTripFeedbackSupportsFeatureIndex) {
  auto loaded = ImportDataset(*dir_);
  ASSERT_TRUE(loaded.ok());
  // Feature queries agree between original and re-imported datasets.
  baseline::FeatureIndex original(*dataset_);
  baseline::FeatureIndex reimported(*loaded);
  for (int e = 0; e < 20; ++e) {
    EXPECT_EQ(original.AttendeesBefore(e, 40),
              reimported.AttendeesBefore(e, 40));
    EXPECT_EQ(original.InterestedBefore(e, 40),
              reimported.InterestedBefore(e, 40));
  }
  for (int u = 0; u < 20; ++u) {
    EXPECT_EQ(original.UserJoinCountBefore(u, 40),
              reimported.UserJoinCountBefore(u, 40));
  }
}

TEST_F(DatasetIoTest, ColdStartFractionPreserved) {
  auto loaded = ImportDataset(*dir_);
  ASSERT_TRUE(loaded.ok());
  EXPECT_NEAR(ColdStartEventFraction(*loaded),
              ColdStartEventFraction(*dataset_), 1e-12);
}

// Copies the fixture's five files to `dir`, replacing field `field` of
// the first row of `file` whose first field is `first` (any row when
// empty) with `value`. Returns that row's 1-based line number.
int CopyWithEdit(const std::string& from, const std::string& dir,
                 const std::string& file, const std::string& first,
                 size_t field, const std::string& value) {
  ::mkdir(dir.c_str(), 0755);
  int edited = 0;
  for (const char* name : {"users.tsv", "pages.tsv", "events.tsv",
                           "impressions.tsv", "feedback.tsv"}) {
    std::ifstream in(from + "/" + name);
    std::ofstream out(dir + "/" + name);
    std::string line;
    int number = 0;
    while (std::getline(in, line)) {
      ++number;
      if (edited == 0 && name == file) {
        std::vector<std::string> fields(1);
        for (char ch : line) {
          if (ch == '\t') {
            fields.emplace_back();
          } else {
            fields.back() += ch;
          }
        }
        if (first.empty() || fields[0] == first) {
          fields[field] = value;
          line = Join(fields, "\t");
          edited = number;
        }
      }
      out << line << '\n';
    }
  }
  return edited;
}

void RemoveDataset(const std::string& dir) {
  for (const char* name : {"users.tsv", "pages.tsv", "events.tsv",
                           "impressions.tsv", "feedback.tsv"}) {
    std::remove((dir + "/" + name).c_str());
  }
}

// The planted cases: a friend id of 5,000,000, an eval impression whose
// user reads `garbage`, and an impression user of 99999 (which eval would
// index past the user table). Each must fail import with a Corruption
// that names the file and the line.
TEST_F(DatasetIoTest, PlantedBadIdsAreCorruptionNamingFileAndLine) {
  struct Case {
    const char* file;
    const char* first;
    size_t field;
    const char* value;
    const char* expect;
  };
  const Case cases[] = {
      {"users.tsv", "", 6, "5000000", "friends: id 5000000 is out of range"},
      {"impressions.tsv", "eval", 1, "garbage",
       "user: 'garbage' is not an integer"},
      {"impressions.tsv", "eval", 1, "99999",
       "user: id 99999 is out of range"},
  };
  const std::string dir = testing::TempDir() + "/evrec_dataset_io_planted";
  for (const Case& c : cases) {
    const int line = CopyWithEdit(*dir_, dir, c.file, c.first, c.field,
                                  c.value);
    ASSERT_GT(line, 0) << c.file;
    auto loaded = ImportDataset(dir);
    ASSERT_FALSE(loaded.ok()) << c.file << " " << c.value;
    EXPECT_EQ(loaded.status().code(), StatusCode::kCorruption);
    const std::string where = StrFormat("%s line %d: ", c.file, line);
    EXPECT_NE(loaded.status().message().find(where + c.expect),
              std::string::npos)
        << loaded.status().ToString() << " (want '" << where << c.expect
        << "')";
  }
  RemoveDataset(dir);
}

TEST_F(DatasetIoTest, MalformedNumbersAndLabelsAreCorruption) {
  struct Case {
    const char* file;
    size_t field;
    const char* value;
  };
  const Case cases[] = {
      {"users.tsv", 0, "7"},          // id out of sequence
      {"users.tsv", 4, "0.5x"},       // trailing junk
      {"users.tsv", 5, "0.1 nan"},    // non-finite list element
      {"users.tsv", 7, "-1"},         // page id below range
      {"pages.tsv", 1, ""},           // empty number
      {"events.tsv", 1, "200"},       // host == num_users
      {"events.tsv", 7, "1e999"},     // overflow
      {"impressions.tsv", 2, "160"},  // event == num_events
      {"impressions.tsv", 3, "-2"},   // negative day
      {"impressions.tsv", 4, "yes"},  // label
      {"feedback.tsv", 3, "3.5"},     // fractional day
  };
  const std::string dir = testing::TempDir() + "/evrec_dataset_io_malformed";
  for (const Case& c : cases) {
    ASSERT_GT(CopyWithEdit(*dir_, dir, c.file, "", c.field, c.value), 0);
    auto loaded = ImportDataset(dir);
    ASSERT_FALSE(loaded.ok()) << c.file << " field " << c.field << " = '"
                              << c.value << "'";
    EXPECT_EQ(loaded.status().code(), StatusCode::kCorruption);
    EXPECT_NE(loaded.status().message().find(c.file), std::string::npos)
        << loaded.status().ToString();
  }
  RemoveDataset(dir);
}

TEST(DatasetIoErrorTest, MissingDirectoryIsIoError) {
  auto loaded = ImportDataset("/nonexistent/evrec/dir");
  EXPECT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kIoError);
}

TEST(DatasetIoErrorTest, MalformedRowIsCorruption) {
  std::string dir = testing::TempDir() + "/evrec_dataset_io_bad";
  ::mkdir(dir.c_str(), 0755);
  // users.tsv with wrong field count; other files empty.
  {
    std::ofstream f(dir + "/users.tsv");
    f << "0\t1\n";
  }
  for (const char* name :
       {"pages.tsv", "events.tsv", "impressions.tsv", "feedback.tsv"}) {
    std::ofstream f(dir + "/" + name);
  }
  auto loaded = ImportDataset(dir);
  EXPECT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kCorruption);
  for (const char* name : {"users.tsv", "pages.tsv", "events.tsv",
                           "impressions.tsv", "feedback.tsv"}) {
    std::remove((dir + "/" + name).c_str());
  }
}

TEST(DatasetIoErrorTest, OutOfRangeFeedbackIdIsCorruption) {
  std::string dir = testing::TempDir() + "/evrec_dataset_io_range";
  ::mkdir(dir.c_str(), 0755);
  {
    std::ofstream f(dir + "/users.tsv");
    f << "0\t0\t0\t0\t0\t0.5 0.5\t\t\tword\n";
  }
  {
    std::ofstream f(dir + "/pages.tsv");
  }
  {
    std::ofstream f(dir + "/events.tsv");
    f << "0\t0\t0\t0\t0\t0\tcat\t0\t1\t1 0\tt\tb\n";
  }
  {
    std::ofstream f(dir + "/impressions.tsv");
    f << "eval\t0\t0\t5\t1\n";
  }
  {
    std::ofstream f(dir + "/feedback.tsv");
    f << "join\t9\t0\t1\n";  // user 9 does not exist
  }
  auto loaded = ImportDataset(dir);
  EXPECT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kCorruption);
  for (const char* name : {"users.tsv", "pages.tsv", "events.tsv",
                           "impressions.tsv", "feedback.tsv"}) {
    std::remove((dir + "/" + name).c_str());
  }
}

}  // namespace
}  // namespace simnet
}  // namespace evrec
