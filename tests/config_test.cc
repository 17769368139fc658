// The SparkConfig field list (spark::ForEachSparkField) is the one
// declaration of every setting that crosses the job-spec wire and of
// every DECA_* knob. These tests check what is generated from it: the
// job-spec codec round-trips every listed field, the bench env parser
// accepts the documented spellings and exits naming the variable on
// anything else, and EXPERIMENTS.md's knob table names exactly the
// variables the parser accepts.

#include <gtest/gtest.h>

#include <cstdlib>
#include <fstream>
#include <iomanip>
#include <set>
#include <sstream>
#include <string>
#include <type_traits>
#include <vector>

#include "bench_util.h"
#include "cluster/job_spec.h"
#include "spark/config.h"

namespace deca {
namespace {

// A value of `v`'s type that differs from `v`.
template <typename T>
T Bumped(const T& v) {
  if constexpr (std::is_same_v<T, bool>) {
    return !v;
  } else if constexpr (std::is_enum_v<T>) {
    // Every listed enum field defaults to a value that has a successor.
    return static_cast<T>(static_cast<int>(v) + 1);
  } else if constexpr (std::is_same_v<T, std::string>) {
    return v + "/x";
  } else {
    return static_cast<T>(v + 3);
  }
}

// Every listed field of `c` as "path=value", in list order.
std::vector<std::string> Fields(const spark::SparkConfig& c) {
  std::vector<std::string> out;
  spark::ForEachSparkField(
      c, [&out](const char* path, auto, uint64_t, const auto& v) {
        std::ostringstream s;
        s << path << '=' << std::setprecision(17);
        if constexpr (std::is_enum_v<std::decay_t<decltype(v)>>) {
          s << static_cast<int>(v);
        } else {
          s << v;
        }
        out.push_back(s.str());
      });
  return out;
}

TEST(SparkConfigCodecTest, EveryListedFieldRoundTrips) {
  spark::SparkConfig sent;
  spark::ForEachSparkField(
      sent, [](const char*, auto, uint64_t, auto& v) { v = Bumped(v); });
  ByteWriter w;
  Put(&w, sent);
  ByteReader r(w.data(), w.size());
  spark::SparkConfig decoded;
  Get(&r, &decoded);
  const std::vector<std::string> got = Fields(decoded);
  EXPECT_TRUE(r.AtEnd());

  const std::vector<std::string> defaults = Fields(spark::SparkConfig{});
  const std::vector<std::string> want = Fields(sent);
  ASSERT_EQ(got.size(), want.size());
  for (size_t i = 0; i < want.size(); ++i) {
    EXPECT_NE(want[i], defaults[i]) << "field not moved off its default";
    EXPECT_EQ(got[i], want[i]);
  }
}

// Sets an environment variable for the enclosing scope.
class ScopedEnv {
 public:
  ScopedEnv(const char* name, const char* value) : name_(name) {
    setenv(name, value, 1);
  }
  ~ScopedEnv() { unsetenv(name_); }
  ScopedEnv(const ScopedEnv&) = delete;
  ScopedEnv& operator=(const ScopedEnv&) = delete;

 private:
  const char* name_;
};

TEST(BenchEnvTest, DocumentedSpellingsParse) {
  ScopedEnv transport("DECA_SHUFFLE_TRANSPORT", "network");
  ScopedEnv dist("DECA_DIST_MODE", "local");
  ScopedEnv wipe("DECA_CRASH_WIPE_STAGE", "-1");
  ScopedEnv tiers("DECA_STORAGE_TIER", "3");
  ScopedEnv admit("DECA_ADMIT_POLICY", "never");
  ScopedEnv heap("DECA_HEAP_MB", "8");
  ScopedEnv prob("DECA_FAULT_TASK_PROB", "0.25");
  ScopedEnv trace("DECA_TRACE", "1");
  spark::SparkConfig cfg = bench::DefaultSpark();
  EXPECT_EQ(cfg.shuffle_transport, spark::ShuffleTransport::kLoopback);
  EXPECT_EQ(cfg.dist_mode, spark::DistMode::kInProcess);
  EXPECT_EQ(cfg.fault.crash_wipe_stage, -1);
  EXPECT_EQ(cfg.storage_tiers, 3);
  EXPECT_EQ(cfg.admit_policy, spark::AdmitPolicy::kNever);
  EXPECT_EQ(cfg.heap.heap_bytes, size_t{8} << 20);
  EXPECT_EQ(cfg.fault.task_failure_prob, 0.25);
  EXPECT_TRUE(cfg.trace_enabled);
}

// Runs DefaultSpark and DefaultStreamOptions with one more variable set;
// meant for a death-test child, so the parent's environment is untouched.
void ParseWith(const char* name, const char* value) {
  setenv(name, value, 1);
  bench::DefaultSpark();
  bench::DefaultStreamOptions(4, 2);
  std::exit(0);
}

TEST(BenchEnvDeathTest, MalformedValueExitsNamingTheVariable) {
  const auto failed = testing::ExitedWithCode(2);
  EXPECT_EXIT(ParseWith("DECA_STORAGE_TIER", "three"), failed,
              "DECA_STORAGE_TIER=three");
  EXPECT_EXIT(ParseWith("DECA_HEAP_MB", "64MB"), failed, "DECA_HEAP_MB=64MB");
  EXPECT_EXIT(ParseWith("DECA_FAULT_SEED", "-1"), failed, "DECA_FAULT_SEED");
  EXPECT_EXIT(ParseWith("DECA_TRACE_RING", "4294967296"), failed,
              "DECA_TRACE_RING");
  EXPECT_EXIT(ParseWith("DECA_TRACE", "yes"), failed, "DECA_TRACE=yes");
  EXPECT_EXIT(ParseWith("DECA_STREAM_WINDOW", "0"), failed,
              "DECA_STREAM_WINDOW=0");
}

TEST(BenchEnvDeathTest, UnknownEnumNameExitsNamingTheVariable) {
  EXPECT_EXIT(ParseWith("DECA_SHUFFLE_TRANSPORT", "lopback"),
              testing::ExitedWithCode(2), "DECA_SHUFFLE_TRANSPORT=lopback");
  EXPECT_EXIT(ParseWith("DECA_ADMIT_POLICY", "sometimes"),
              testing::ExitedWithCode(2), "DECA_ADMIT_POLICY=sometimes");
}

TEST(BenchEnvDeathTest, UnknownVariableExitsNamingIt) {
  EXPECT_EXIT(ParseWith("DECA_STORAGE_TIERS", "3"),
              testing::ExitedWithCode(2), "DECA_STORAGE_TIERS=3");
  EXPECT_EXIT(ParseWith("DECA_ARENA", "1"), testing::ExitedWithCode(2),
              "DECA_ARENA=1");
  // Retired knobs: a script that still sets one exits naming it.
  EXPECT_EXIT(ParseWith("DECA_LIFETIME_SOURCE", "static"),
              testing::ExitedWithCode(2), "DECA_LIFETIME_SOURCE=static");
  EXPECT_EXIT(ParseWith("DECA_PROFILE_SAMPLE_BYTES", "512"),
              testing::ExitedWithCode(2), "DECA_PROFILE_SAMPLE_BYTES=512");
  EXPECT_EXIT(ParseWith("DECA_PROFILE_SEED", "1"),
              testing::ExitedWithCode(2), "DECA_PROFILE_SEED=1");
}

// EXPERIMENTS.md's "Environment knobs" table is the knob documentation:
// its rows name exactly the variables the bench parser accepts.
TEST(BenchEnvTest, ExperimentsKnobTableMatchesTheParser) {
  std::ifstream doc(std::string(DECA_SOURCE_DIR) + "/EXPERIMENTS.md");
  ASSERT_TRUE(doc.is_open());
  const std::string row = "| `DECA_";
  std::set<std::string> documented;
  std::string line;
  while (std::getline(doc, line)) {
    if (line.rfind(row, 0) != 0) continue;
    size_t end = line.find('`', 3);
    ASSERT_NE(end, std::string::npos) << line;
    EXPECT_TRUE(documented.insert(line.substr(3, end - 3)).second) << line;
  }
  const std::vector<std::string> known = bench::KnownEnvNames();
  const std::set<std::string> parsed(known.begin(), known.end());
  EXPECT_EQ(parsed.size(), known.size()) << "a knob is listed twice";
  EXPECT_EQ(documented, parsed);
}

}  // namespace
}  // namespace deca
