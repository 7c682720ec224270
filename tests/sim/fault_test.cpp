// FaultPlan parser: the line-oriented format nicbar_run --fault-plan loads.
#include <gtest/gtest.h>

#include <ostream>
#include <stdexcept>
#include <string>

#include "sim/fault.hpp"

namespace nicbar::sim::fault {
namespace {

TEST(FaultPlanParserTest, EmptyInputYieldsEmptyPlan) {
  const FaultPlan p = parse_fault_plan("");
  EXPECT_TRUE(p.empty());
  EXPECT_EQ(p.seed, 1u);
}

TEST(FaultPlanParserTest, CommentsAndBlankLinesAreIgnored) {
  const FaultPlan p = parse_fault_plan(
      "# a scenario\n"
      "\n"
      "loss 0.01   # trailing comment\n");
  ASSERT_EQ(p.loss.size(), 1u);
  EXPECT_DOUBLE_EQ(p.loss[0].prob, 0.01);
  EXPECT_TRUE(p.loss[0].link.empty());
}

TEST(FaultPlanParserTest, FullScenarioParses) {
  const FaultPlan p = parse_fault_plan(
      "seed 42\n"
      "loss 0.02 t0->sw0\n"
      "burst 0.001 0.2 0.9 *\n"
      "corrupt 0.005 sw0->t3\n"
      "link-down 100 350 t1->sw0\n"
      "link-down 500 -\n"
      "nic-crash 3 200 800\n"
      "nic-crash 5 1000\n"
      "switch-port-down 0 2 50 75\n");
  EXPECT_EQ(p.seed, 42u);

  ASSERT_EQ(p.loss.size(), 1u);
  EXPECT_EQ(p.loss[0].link, "t0->sw0");

  ASSERT_EQ(p.bursts.size(), 1u);
  EXPECT_DOUBLE_EQ(p.bursts[0].p_enter_bad, 0.001);
  EXPECT_DOUBLE_EQ(p.bursts[0].p_exit_bad, 0.2);
  EXPECT_DOUBLE_EQ(p.bursts[0].loss_bad, 0.9);
  EXPECT_TRUE(p.bursts[0].link.empty());  // `*` = every link

  ASSERT_EQ(p.corruption.size(), 1u);
  EXPECT_EQ(p.corruption[0].link, "sw0->t3");

  ASSERT_EQ(p.link_down.size(), 2u);
  EXPECT_EQ(p.link_down[0].from, SimTime{0} + microseconds(100.0));
  EXPECT_EQ(p.link_down[0].until, SimTime{0} + microseconds(350.0));
  EXPECT_EQ(p.link_down[0].link, "t1->sw0");
  EXPECT_EQ(p.link_down[1].until, SimTime::max());  // `-` = never back up

  ASSERT_EQ(p.nic_crashes.size(), 2u);
  EXPECT_EQ(p.nic_crashes[0].node, 3u);
  EXPECT_EQ(p.nic_crashes[0].at, SimTime{0} + microseconds(200.0));
  EXPECT_EQ(p.nic_crashes[0].restart_at, SimTime{0} + microseconds(800.0));
  EXPECT_EQ(p.nic_crashes[1].restart_at, SimTime::max());  // no restart operand

  ASSERT_EQ(p.switch_ports_down.size(), 1u);
  EXPECT_EQ(p.switch_ports_down[0].switch_id, 0u);
  EXPECT_EQ(p.switch_ports_down[0].port, 2u);
  EXPECT_FALSE(p.empty());
}

TEST(FaultPlanParserTest, RejectsMalformedInput) {
  EXPECT_THROW((void)parse_fault_plan("frobnicate 1\n"), std::runtime_error);
  EXPECT_THROW((void)parse_fault_plan("loss 1.5\n"), std::runtime_error);
  EXPECT_THROW((void)parse_fault_plan("loss -0.1\n"), std::runtime_error);
  EXPECT_THROW((void)parse_fault_plan("loss\n"), std::runtime_error);
  EXPECT_THROW((void)parse_fault_plan("link-down 500 100\n"), std::runtime_error);
  EXPECT_THROW((void)parse_fault_plan("nic-crash 0 500 100\n"), std::runtime_error);
  EXPECT_THROW((void)parse_fault_plan("burst 0.1 0.2\n"), std::runtime_error);
  EXPECT_THROW((void)parse_fault_plan("switch-port-down 0 1 10 5\n"), std::runtime_error);
}

TEST(FaultPlanParserTest, ErrorNamesTheOffendingLine) {
  try {
    (void)parse_fault_plan("seed 1\nloss 2.0\n");
    FAIL() << "expected a parse error";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("line 2"), std::string::npos);
  }
}

// Each operand is read whole by its sim/value.hpp kind, so a token with
// trailing garbage, a fraction where an id belongs or a time past an hour is
// refused, and the refusal names the field.
struct BadField {
  const char* name;   // the test's name
  const char* line;   // a plan line with one bad operand
  const char* field;  // what the refusal must name
};

void PrintTo(const BadField& c, std::ostream* os) { *os << '"' << c.line << '"'; }

class FaultPlanFieldTest : public ::testing::TestWithParam<BadField> {};

TEST_P(FaultPlanFieldTest, RefusalNamesTheField) {
  const BadField& c = GetParam();
  try {
    (void)parse_fault_plan(std::string(c.line) + "\n");
    FAIL() << "accepted: " << c.line;
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find(std::string("line 1: ") + c.field + " needs"),
              std::string::npos)
        << e.what();
  }
}

INSTANTIATE_TEST_SUITE_P(
    EveryField, FaultPlanFieldTest,
    ::testing::Values(BadField{"seed", "seed 7x", "seed"},
                      BadField{"loss", "loss 0.5x", "loss probability"},
                      BadField{"burst_enter", "burst 0.1x 0.2 0.9", "p_enter_bad"},
                      BadField{"burst_exit", "burst 0.1 0.2x 0.9", "p_exit_bad"},
                      BadField{"burst_loss", "burst 0.1 0.2 0.9x", "loss_bad"},
                      BadField{"corrupt", "corrupt 0.01x", "corruption probability"},
                      BadField{"link_down_from", "link-down 100x 200", "from time"},
                      BadField{"link_down_until", "link-down 100 200x", "until time"},
                      BadField{"crash_node", "nic-crash 1.5 200", "node id"},
                      BadField{"crash_time", "nic-crash 1 2.5x 300", "crash time"},
                      BadField{"restart_time", "nic-crash 1 200 300x", "restart time"},
                      BadField{"switch_id", "switch-port-down 0x 2 50 75", "switch id"},
                      BadField{"switch_port", "switch-port-down 0 2x 50 75", "port"},
                      BadField{"port_down_from", "switch-port-down 0 2 50x 75", "from time"},
                      BadField{"port_down_until", "switch-port-down 0 2 50 75x", "until time"},
                      BadField{"beyond_an_hour", "link-down 3600000000.000001 -", "from time"}),
    [](const ::testing::TestParamInfo<BadField>& p) { return std::string(p.param.name); });

TEST(FaultPlanParserTest, RejectsAStrayTrailingToken) {
  for (const char* line : {"seed 7 8", "loss 0.1 t0->sw0 extra", "burst 0.1 0.2 0.9 * x",
                           "corrupt 0.01 * x", "link-down 100 200 * x", "nic-crash 1 200 300 x",
                           "nic-crash 1 200 - x", "switch-port-down 0 2 50 75 x"}) {
    try {
      (void)parse_fault_plan(std::string(line) + "\n");
      ADD_FAILURE() << "accepted: " << line;
    } catch (const std::runtime_error& e) {
      EXPECT_NE(std::string(e.what()).find("after the last field"), std::string::npos)
          << e.what();
    }
  }
}

TEST(FaultPlanParserTest, TimesAreExactToThePicosecond) {
  const FaultPlan p = parse_fault_plan("link-down 0.000001 3600000000\nnic-crash 2 0.1234567\n");
  ASSERT_EQ(p.link_down.size(), 1u);
  EXPECT_EQ(p.link_down[0].from, SimTime{1});
  EXPECT_EQ(p.link_down[0].until, SimTime{0} + Duration{3'600'000'000'000'000});
  ASSERT_EQ(p.nic_crashes.size(), 1u);
  EXPECT_EQ(p.nic_crashes[0].at, SimTime{123457});
  EXPECT_EQ(p.nic_crashes[0].restart_at, SimTime::max());
}

}  // namespace
}  // namespace nicbar::sim::fault
