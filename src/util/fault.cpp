#include "util/fault.hpp"

#include "util/cli.hpp"

#include <cstring>
#include <thread>

namespace tsbo::par {
namespace {

constexpr const char* kSiteNames[kNumFaultSites] = {
    "comm.allreduce", "comm.exchange", "spmv.interior", "gram.stage1",
    "service.dispatch", "gram.chol",
};

std::vector<std::string> site_name_list() {
  return {kSiteNames, kSiteNames + kNumFaultSites};
}

[[noreturn]] void bad_spec(const std::string& token, const std::string& why) {
  throw std::invalid_argument(
      "FaultPlan: bad fault spec \"" + token + "\" (" + why +
      "; expected site@ordinal:action with action throw|corrupt|delay<ms>)");
}

}  // namespace

const char* fault_site_name(FaultSite site) {
  return kSiteNames[static_cast<int>(site)];
}

const char* fault_action_name(FaultAction action) {
  switch (action) {
    case FaultAction::kThrow:
      return "throw";
    case FaultAction::kDelay:
      return "delay";
    case FaultAction::kCorrupt:
      return "corrupt";
  }
  return "?";
}

FaultPlan FaultPlan::parse(const std::string& spec) {
  FaultPlan plan;
  std::size_t pos = 0;
  while (pos < spec.size()) {
    std::size_t end = spec.find(';', pos);
    if (end == std::string::npos) end = spec.size();
    const std::string token = spec.substr(pos, end - pos);
    pos = end + 1;
    if (token.empty()) continue;

    const std::size_t at = token.find('@');
    const std::size_t colon = token.find(':', at == std::string::npos ? 0 : at);
    if (at == std::string::npos || colon == std::string::npos || at == 0) {
      bad_spec(token, "missing '@' or ':'");
    }
    const std::string site_name = token.substr(0, at);
    const std::string ordinal_text = token.substr(at + 1, colon - at - 1);
    const std::string action_text = token.substr(colon + 1);

    FaultSpec f;
    int site = 0;
    while (site < kNumFaultSites && site_name != kSiteNames[site]) ++site;
    if (site == kNumFaultSites) {
      const std::string hint = util::did_you_mean(site_name, site_name_list());
      bad_spec(token, "unknown site \"" + site_name + "\"" +
                          (hint.empty() ? "" : " (did you mean " + hint + "?)"));
    }
    f.site = static_cast<FaultSite>(site);

    try {
      std::size_t used = 0;
      f.ordinal = std::stol(ordinal_text, &used);
      if (used != ordinal_text.size() || f.ordinal < 0) throw std::exception();
    } catch (const std::exception&) {
      bad_spec(token, "ordinal must be a non-negative integer");
    }

    if (action_text == "throw") {
      f.action = FaultAction::kThrow;
    } else if (action_text == "corrupt") {
      f.action = FaultAction::kCorrupt;
    } else if (action_text.rfind("delay", 0) == 0) {
      f.action = FaultAction::kDelay;
      const std::string ms_text = action_text.substr(5);
      try {
        std::size_t used = 0;
        f.delay_ms = std::stoi(ms_text, &used);
        if (ms_text.empty() || used != ms_text.size() || f.delay_ms < 0) {
          throw std::exception();
        }
      } catch (const std::exception&) {
        bad_spec(token, "delay wants a millisecond count, e.g. delay250");
      }
    } else {
      bad_spec(token, "unknown action \"" + action_text + "\"");
    }
    plan.faults.push_back(f);
  }
  return plan;
}

std::string FaultPlan::to_string() const {
  std::string out;
  for (const FaultSpec& f : faults) {
    if (!out.empty()) out += ';';
    out += fault_site_name(f.site);
    out += '@';
    out += std::to_string(f.ordinal);
    out += ':';
    out += fault_action_name(f.action);
    if (f.action == FaultAction::kDelay) out += std::to_string(f.delay_ms);
  }
  return out;
}

InjectedFault::InjectedFault(FaultSite site, long ordinal)
    : std::runtime_error("injected fault: throw at " +
                         std::string(fault_site_name(site)) + "#" +
                         std::to_string(ordinal)),
      site_(site),
      ordinal_(ordinal) {}

FaultInjector::FaultInjector(FaultPlan plan, int nranks)
    : plan_(std::move(plan)),
      ranks_(static_cast<std::size_t>(nranks < 1 ? 1 : nranks)) {
  for (RankState& st : ranks_) st.fired.assign(plan_.faults.size(), 0);
}

void FaultInjector::begin_attempt(int attempt) {
  attempt_ = attempt;
  for (RankState& st : ranks_) st.counters.fill(0);
}

void FaultInjector::consult(int rank, FaultSite site,
                            const CorruptFn& corrupt) {
  RankState& st = ranks_.at(static_cast<std::size_t>(rank));
  const long ord = st.counters[static_cast<int>(site)]++;
  for (std::size_t e = 0; e < plan_.faults.size(); ++e) {
    const FaultSpec& f = plan_.faults[e];
    if (st.fired[e] != 0 || f.site != site || f.ordinal != ord) continue;
    st.fired[e] = 1;
    st.trail.push_back({f.site, f.ordinal, f.action, f.delay_ms, attempt_});
    switch (f.action) {
      case FaultAction::kThrow:
        throw InjectedFault(site, ord);
      case FaultAction::kDelay:
        std::this_thread::sleep_for(std::chrono::milliseconds(f.delay_ms));
        break;
      case FaultAction::kCorrupt:
        if (corrupt) corrupt(ord);
        break;
    }
  }
}

void FaultInjector::flip_bit(double& v) {
  std::uint64_t bits = 0;
  std::memcpy(&bits, &v, sizeof(bits));
  bits ^= std::uint64_t{1} << 58;
  std::memcpy(&v, &bits, sizeof(bits));
}

}  // namespace tsbo::par
