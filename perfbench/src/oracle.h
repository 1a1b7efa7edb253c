// Output oracle: every accepted arrival of a scenario is regenerated from
// its seed (ClassJobStream + the admission plan, consumed exactly as the
// drivers consume it) and replayed through the public crypto entry points
// — seal, open, MAC and hash — each call timed. A driver's outputs must
// equal the replay bit for bit.
#pragma once

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "driver.h"
#include "workload/jobgen.h"

namespace perfbench {

/// Replay cost per channel mode (index = mccp::top::ChannelMode value).
struct CryptoCost {
  static constexpr std::size_t kModes = 5;
  std::array<std::uint64_t, kModes> ns{};
  std::array<std::uint64_t, kModes> calls{};
  std::array<std::uint64_t, kModes> bytes{};
};

struct OracleResult {
  std::uint64_t checked = 0;     // jobs compared (arrivals + round-trips)
  std::uint64_t mismatched = 0;  // wrong output, failed auth or never completed
  std::string first_mismatch;
};

/// Every accepted arrival's job, by [class][accepted index], regenerated
/// from the scenario seed.
std::vector<std::vector<mccp::workload::GeneratedJob>> accepted_jobs(
    const mccp::workload::ScenarioSpec& spec);

/// The expected output of every accepted arrival, by [class][accepted index].
std::vector<std::vector<JobOutput>> replay_expected(const mccp::workload::ScenarioSpec& spec,
                                                    CryptoCost& cost);

OracleResult check_outputs(const std::vector<std::vector<JobOutput>>& expected,
                           const std::vector<std::vector<JobOutput>>& actual);

/// FNV-1a digest of a run's outputs, to compare later runs with the
/// checked one without keeping every output.
std::uint64_t output_digest(const std::vector<std::vector<JobOutput>>& outputs);

}  // namespace perfbench
