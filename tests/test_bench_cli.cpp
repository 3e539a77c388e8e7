// CLI parsing shared by the benches: --threads validation and the
// unknown-argument check. The parse helpers are the testable core;
// cli_threads and require_known_args wrap them with the
// diagnostic-and-exit policy the benches share.
#include <gtest/gtest.h>

#include <vector>

#include "../bench/bench_seed.hpp"

namespace vfpga::bench {
namespace {

TEST(BenchCli, ParseThreadCountAcceptsPositiveIntegers) {
  EXPECT_EQ(parse_thread_count("1"), 1u);
  EXPECT_EQ(parse_thread_count("4"), 4u);
  EXPECT_EQ(parse_thread_count("65536"), 65'536u);
  EXPECT_EQ(parse_thread_count("0x10"), 16u);  // strtoll base 0
}

TEST(BenchCli, ParseThreadCountRejectsZeroNegativeAndGarbage) {
  EXPECT_FALSE(parse_thread_count("0").has_value());
  EXPECT_FALSE(parse_thread_count("-1").has_value());
  EXPECT_FALSE(parse_thread_count("-4").has_value());
  EXPECT_FALSE(parse_thread_count("4x").has_value());
  EXPECT_FALSE(parse_thread_count("x4").has_value());
  EXPECT_FALSE(parse_thread_count("").has_value());
  EXPECT_FALSE(parse_thread_count(nullptr).has_value());
  EXPECT_FALSE(parse_thread_count("4.5").has_value());
  EXPECT_FALSE(parse_thread_count(" 4 ").has_value());
  EXPECT_FALSE(parse_thread_count("65537").has_value());  // above the cap
  EXPECT_FALSE(parse_thread_count("99999999999999999999").has_value());
}

TEST(BenchCli, CliThreadsReturnsZeroWhenAbsentAndLastFlagWins) {
  const char* none[] = {"bench"};
  EXPECT_EQ(cli_threads(1, const_cast<char**>(none)), 0u);

  const char* eq[] = {"bench", "--threads=8"};
  EXPECT_EQ(cli_threads(2, const_cast<char**>(eq)), 8u);

  const char* spaced[] = {"bench", "--threads", "3"};
  EXPECT_EQ(cli_threads(3, const_cast<char**>(spaced)), 3u);

  const char* repeated[] = {"bench", "--threads", "3", "--threads=5"};
  EXPECT_EQ(cli_threads(4, const_cast<char**>(repeated)), 5u);
}

TEST(BenchCliDeathTest, CliThreadsExitsWithDiagnosticOnBadOperand) {
  const char* zero[] = {"bench", "--threads", "0"};
  EXPECT_EXIT(cli_threads(3, const_cast<char**>(zero)),
              ::testing::ExitedWithCode(2), "positive integer");
  const char* garbage[] = {"bench", "--threads=4x"};
  EXPECT_EXIT(cli_threads(2, const_cast<char**>(garbage)),
              ::testing::ExitedWithCode(2), "got \"4x\"");
}

// The strict argument check the benches run before parsing, with
// sim_speed's argument lists: every flag CI passes is accepted,
// anything else is reported.
std::optional<std::string_view> unknown(std::initializer_list<const char*> args) {
  std::vector<char*> argv{const_cast<char*>("bench")};
  for (const char* a : args) {
    argv.push_back(const_cast<char*>(a));
  }
  return first_unknown_arg(static_cast<int>(argv.size()), argv.data(),
                           {"--smoke", "--stats-only", "--soak"},
                           {"--seed", "--threads"});
}

TEST(BenchCli, KnownArgumentsAreAccepted) {
  EXPECT_FALSE(unknown({}).has_value());
  EXPECT_FALSE(unknown({"--smoke", "--stats-only"}).has_value());
  EXPECT_FALSE(unknown({"--soak", "--smoke"}).has_value());
  EXPECT_FALSE(unknown({"--seed", "7", "--threads=4"}).has_value());
  EXPECT_FALSE(unknown({"--threads", "2", "--seed=0x10"}).has_value());
}

TEST(BenchCli, UnknownArgumentsAreReported) {
  EXPECT_EQ(unknown({"--smok"}), "--smok");
  EXPECT_EQ(unknown({"--smoke", "--stats-only", "--no-such-flag"}),
            "--no-such-flag");
  EXPECT_EQ(unknown({"smoke"}), "smoke");
  EXPECT_EQ(unknown({"--smoke=1"}), "--smoke=1");  // switches take no value
  EXPECT_EQ(unknown({"--seedling"}), "--seedling");
  EXPECT_EQ(unknown({"--threads", "2", "3"}), "3");  // stray operand
  EXPECT_EQ(unknown({"--smoke", "--seed"}), "--seed");  // operand missing
}

// sim_speed has one sync mode, so the old mode flags are errors: a
// stale script fails loudly (exit 2, see RequireKnownArgsExitsWithUsage
// and the BenchCli.RemovedFlag ctests) instead of silently running.
TEST(BenchCli, RemovedSyncFlagsAreReported) {
  EXPECT_EQ(unknown({"--smoke", "--sync", "conservative"}), "--sync");
  EXPECT_EQ(unknown({"--sync=optimistic"}), "--sync=optimistic");
  EXPECT_EQ(unknown({"--stats-only", "--workload-only"}), "--workload-only");
}

TEST(BenchCliDeathTest, RequireKnownArgsExitsWithUsage) {
  const char* misspelt[] = {"bench", "--smoke", "--smok"};
  EXPECT_EXIT(require_known_args(3, const_cast<char**>(misspelt),
                                 {"--smoke"}, {"--seed"}, "[--smoke]"),
              ::testing::ExitedWithCode(2), "\"--smok\"(.|\n)*usage:");
}

}  // namespace
}  // namespace vfpga::bench
