#include "xtsoc/fault/campaign.hpp"

#include "xtsoc/common/rng.hpp"
#include "xtsoc/hwsim/pool.hpp"

namespace xtsoc::fault {

std::size_t CampaignResult::survivors() const {
  std::size_t n = 0;
  for (const RunOutcome& r : runs) n += r.survived ? 1 : 0;
  return n;
}

obs::Snapshot CampaignResult::to_snapshot() const {
  obs::JsonValue root = obs::JsonValue::object();
  std::uint64_t delivered = 0, dropped = 0, retried = 0, injected = 0,
                cycles = 0;
  obs::JsonValue rows = obs::JsonValue::array();
  for (const RunOutcome& r : runs) {
    delivered += r.delivered;
    dropped += r.dropped;
    retried += r.retried;
    injected += r.injected;
    cycles += r.cycles;
    obs::JsonValue row = obs::JsonValue::object();
    row["seed"] = r.seed;
    row["cycles"] = r.cycles;
    row["delivered"] = r.delivered;
    row["dropped"] = r.dropped;
    row["retried"] = r.retried;
    row["injected"] = r.injected;
    row["survived"] = r.survived;
    rows.push_back(std::move(row));
  }
  obs::JsonValue& c = root["campaign"];
  c["runs"] = static_cast<std::uint64_t>(runs.size());
  c["base_seed"] = base_seed;
  c["survivors"] = static_cast<std::uint64_t>(survivors());
  c["survival_rate"] =
      runs.empty() ? 1.0
                   : static_cast<double>(survivors()) /
                         static_cast<double>(runs.size());
  obs::JsonValue& t = c["totals"];
  t["delivered"] = delivered;
  t["dropped"] = dropped;
  t["retried"] = retried;
  t["injected"] = injected;
  t["cycles"] = cycles;
  root["runs"] = std::move(rows);
  return obs::Snapshot(std::move(root));
}

Campaign::Campaign(FaultSpec base, int runs, int threads)
    : base_(base), runs_(runs > 0 ? runs : 0),
      threads_(threads > 0 ? threads : 1) {}

std::uint64_t Campaign::seed_for(std::uint64_t base_seed, int index) {
  // Hash, don't increment: faultSeed N and N+1 must not share run seeds.
  std::uint64_t s =
      splitmix64(base_seed ^
                 (0xc2b2ae3d27d4eb4fULL * (static_cast<std::uint64_t>(index) + 1)));
  return s == 0 ? 1 : s;
}

CampaignResult Campaign::run(
    const std::function<RunOutcome(int index, std::uint64_t seed)>& one) const {
  return run(one, nullptr);
}

CampaignResult Campaign::run(
    const std::function<RunOutcome(int index, std::uint64_t seed)>& one,
    hwsim::WorkerPool* pool) const {
  CampaignResult result;
  result.base_seed = base_.seed;
  result.runs.resize(static_cast<std::size_t>(runs_));

  // Outcomes land at their index, so aggregation order is fixed whoever
  // ran what; the pool rethrows the lowest-index failure when runs throw.
  // A pool of one (threads = 1) spawns nothing and runs the seeds inline.
  auto one_run = [&](std::size_t i) {
    const int index = static_cast<int>(i);
    result.runs[i] = one(index, seed_for(base_.seed, index));
  };
  if (pool != nullptr) {
    pool->run(result.runs.size(), one_run);
  } else {
    hwsim::WorkerPool(threads_).run(result.runs.size(), one_run);
  }
  return result;
}

}  // namespace xtsoc::fault
