#include "fault/scenario.h"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <sstream>
#include <utility>

namespace hetdb {

namespace {
/// Long enough to outlast any run; episodes end by re-deriving schedules,
/// not by draining the counter.
constexpr int kOfflineForever = 1 << 30;

/// Parses all of `text` as one number; false on an empty, malformed,
/// out-of-range or trailing-garbage token.
template <typename T>
bool ParseWhole(const std::string& text, T* out) {
  const char* last = text.data() + text.size();
  const auto [end, error] = std::from_chars(text.data(), last, *out);
  return error == std::errc() && end == last;
}
}  // namespace

const char* ChaosEpisodeKindName(ChaosEpisodeKind kind) {
  switch (kind) {
    case ChaosEpisodeKind::kDeviceLoss:
      return "device-loss";
    case ChaosEpisodeKind::kLatencyStorm:
      return "latency-storm";
    case ChaosEpisodeKind::kHeapSqueeze:
      return "heap-squeeze";
  }
  return "unknown";
}

Result<ChaosScenario> ChaosScenario::Parse(const std::string& text) {
  auto fail = [](int line_no, const std::string& what) {
    return Status::InvalidArgument("scenario line " + std::to_string(line_no) +
                                   ": " + what);
  };
  auto parse_seconds = [](const std::string& token, double* out) {
    return token.size() >= 2 && token.back() == 's' &&
           ParseWhole(token.substr(0, token.size() - 1), out) &&
           std::isfinite(*out) && *out >= 0;
  };

  ChaosScenario scenario;
  std::istringstream stream(text);
  std::string line;
  int line_no = 0;
  while (std::getline(stream, line)) {
    ++line_no;
    const size_t hash = line.find('#');
    if (hash != std::string::npos) line.resize(hash);
    std::istringstream tokens_in(line);
    std::vector<std::string> tokens;
    std::string token;
    while (tokens_in >> token) tokens.push_back(token);
    if (tokens.empty()) continue;
    if (tokens.size() < 5 || tokens[0] != "at" || tokens[2] != "for") {
      return fail(line_no, "expected 'at <t>s for <d>s <kind> [key=value...]'");
    }
    ChaosEpisode episode;
    if (!parse_seconds(tokens[1], &episode.start_s)) {
      return fail(line_no, "bad start time '" + tokens[1] + "'");
    }
    if (!parse_seconds(tokens[3], &episode.duration_s)) {
      return fail(line_no, "bad duration '" + tokens[3] + "'");
    }
    if (tokens[4] == "device-loss") {
      episode.kind = ChaosEpisodeKind::kDeviceLoss;
    } else if (tokens[4] == "latency-storm") {
      episode.kind = ChaosEpisodeKind::kLatencyStorm;
    } else if (tokens[4] == "heap-squeeze") {
      episode.kind = ChaosEpisodeKind::kHeapSqueeze;
    } else {
      return fail(line_no, "unknown episode kind '" + tokens[4] + "'");
    }
    for (size_t i = 5; i < tokens.size(); ++i) {
      const size_t eq = tokens[i].find('=');
      if (eq == std::string::npos) {
        return fail(line_no, "expected key=value, got '" + tokens[i] + "'");
      }
      const std::string key = tokens[i].substr(0, eq);
      const std::string value = tokens[i].substr(eq + 1);
      if (key == "device") {
        if (!ParseWhole(value, &episode.device) || episode.device < -1) {
          return fail(line_no, "device must be -1 or >= 0: '" + value + "'");
        }
      } else if (key == "p") {
        if (!ParseWhole(value, &episode.probability) ||
            !(episode.probability >= 0 && episode.probability <= 1)) {
          return fail(line_no, "p out of [0,1]: '" + value + "'");
        }
      } else if (key == "factor") {
        if (!ParseWhole(value, &episode.latency_factor) ||
            !std::isfinite(episode.latency_factor) ||
            !(episode.latency_factor >= 1)) {
          return fail(line_no, "factor must be >= 1: '" + value + "'");
        }
      } else if (key == "min-bytes") {
        if (!ParseWhole(value, &episode.min_bytes)) {
          return fail(line_no, "min-bytes must be a byte count: '" + value +
                                   "'");
        }
      } else if (key == "name") {
        episode.name = value;
      } else {
        return fail(line_no, "unknown key '" + key + "'");
      }
    }
    scenario.episodes.push_back(std::move(episode));
  }
  return scenario;
}

std::string ChaosScenario::ToString() const {
  std::ostringstream out;
  for (const ChaosEpisode& episode : episodes) {
    out << "at " << episode.start_s << "s for " << episode.duration_s << "s "
        << ChaosEpisodeKindName(episode.kind) << " device=" << episode.device;
    if (episode.kind != ChaosEpisodeKind::kDeviceLoss) {
      out << " p=" << episode.probability;
    }
    if (episode.kind == ChaosEpisodeKind::kLatencyStorm) {
      out << " factor=" << episode.latency_factor;
    }
    if (episode.kind == ChaosEpisodeKind::kHeapSqueeze &&
        episode.min_bytes > 0) {
      out << " min-bytes=" << episode.min_bytes;
    }
    if (!episode.name.empty()) out << " name=" << episode.name;
    out << "\n";
  }
  return out.str();
}

ScenarioOrchestrator::ScenarioOrchestrator(
    ChaosScenario scenario, std::vector<FaultInjector*> injectors,
    MetricRegistry* registry, FlightRecorder* recorder, Hooks hooks)
    : scenario_(std::move(scenario)),
      injectors_(std::move(injectors)),
      registry_(registry),
      recorder_(recorder),
      hooks_(std::move(hooks)),
      applied_(scenario_.episodes.size(), false),
      ended_(scenario_.episodes.size(), false) {}

ScenarioOrchestrator::~ScenarioOrchestrator() { Stop(); }

std::vector<int> ScenarioOrchestrator::VictimDevices(
    const ChaosEpisode& episode) const {
  std::vector<int> victims;
  const int n = static_cast<int>(injectors_.size());
  if (episode.device < 0) {
    for (int d = 0; d < n; ++d) victims.push_back(d);
  } else if (episode.device < n) {
    victims.push_back(episode.device);
  }
  return victims;
}

void ScenarioOrchestrator::ReapplyDeviceLocked(int device) {
  FaultInjector* injector = injectors_[static_cast<size_t>(device)];
  injector->ClearAll();
  for (size_t i = 0; i < scenario_.episodes.size(); ++i) {
    if (!applied_[i] || ended_[i]) continue;
    const ChaosEpisode& episode = scenario_.episodes[i];
    if (episode.device >= 0 && episode.device != device) continue;
    switch (episode.kind) {
      case ChaosEpisodeKind::kDeviceLoss:
        injector->ForceOffline(kOfflineForever);
        break;
      case ChaosEpisodeKind::kLatencyStorm: {
        FaultSchedule storm = FaultSchedule::WithProbability(
            FaultKind::kLatencySpike, episode.probability);
        storm.latency_factor = episode.latency_factor;
        injector->SetSchedule(FaultSite::kTransfer, storm);
        injector->SetSchedule(FaultSite::kKernel, storm);
        break;
      }
      case ChaosEpisodeKind::kHeapSqueeze: {
        FaultSchedule squeeze = FaultSchedule::WithProbability(
            FaultKind::kHeapExhausted, episode.probability);
        squeeze.min_bytes = episode.min_bytes;
        injector->SetSchedule(FaultSite::kDeviceAlloc, squeeze);
        break;
      }
    }
  }
}

void ScenarioOrchestrator::ApplyEpisode(size_t index) {
  if (index >= scenario_.episodes.size()) return;
  const ChaosEpisode& episode = scenario_.episodes[index];
  std::vector<int> victims;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (applied_[index]) return;
    applied_[index] = true;
    victims = VictimDevices(episode);
    for (const int device : victims) ReapplyDeviceLocked(device);
  }
  if (registry_ != nullptr) {
    registry_->GetCounter("scenario.episodes_started").Increment();
  }
  if (recorder_ != nullptr) {
    recorder_->RecordFault(
        "scenario",
        {{"event", "start"},
         {"kind", ChaosEpisodeKindName(episode.kind)},
         {"name", episode.name},
         {"device", std::to_string(episode.device)}});
  }
  if (episode.kind == ChaosEpisodeKind::kDeviceLoss && hooks_.on_device_lost) {
    for (const int device : victims) hooks_.on_device_lost(device);
  }
}

void ScenarioOrchestrator::EndEpisode(size_t index) {
  if (index >= scenario_.episodes.size()) return;
  const ChaosEpisode& episode = scenario_.episodes[index];
  std::vector<int> victims;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (!applied_[index] || ended_[index]) return;
    ended_[index] = true;
    victims = VictimDevices(episode);
    for (const int device : victims) ReapplyDeviceLocked(device);
  }
  if (registry_ != nullptr) {
    registry_->GetCounter("scenario.episodes_ended").Increment();
  }
  if (recorder_ != nullptr) {
    recorder_->RecordFault(
        "scenario",
        {{"event", "end"},
         {"kind", ChaosEpisodeKindName(episode.kind)},
         {"name", episode.name},
         {"device", std::to_string(episode.device)}});
  }
  if (episode.kind == ChaosEpisodeKind::kDeviceLoss &&
      hooks_.on_device_restored) {
    for (const int device : victims) hooks_.on_device_restored(device);
  }
}

int ScenarioOrchestrator::active_episodes() const {
  std::lock_guard<std::mutex> lock(mutex_);
  int active = 0;
  for (size_t i = 0; i < applied_.size(); ++i) {
    if (applied_[i] && !ended_[i]) ++active;
  }
  return active;
}

void ScenarioOrchestrator::Start(double time_scale) {
  std::lock_guard<std::mutex> lock(mutex_);
  if (thread_.joinable()) return;
  stop_ = false;
  thread_ = std::thread([this, time_scale] { TimelineLoop(time_scale); });
}

void ScenarioOrchestrator::Stop() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (!thread_.joinable() && !stop_) {
      // Never started; still end anything manually applied below.
    }
    stop_ = true;
  }
  cv_.notify_all();
  if (thread_.joinable()) thread_.join();
  for (size_t i = 0; i < scenario_.episodes.size(); ++i) EndEpisode(i);
}

void ScenarioOrchestrator::TimelineLoop(double time_scale) {
  struct Event {
    double at_s;
    size_t index;
    bool is_start;
  };
  std::vector<Event> events;
  for (size_t i = 0; i < scenario_.episodes.size(); ++i) {
    const ChaosEpisode& episode = scenario_.episodes[i];
    events.push_back({episode.start_s, i, true});
    events.push_back({episode.start_s + episode.duration_s, i, false});
  }
  std::stable_sort(events.begin(), events.end(),
                   [](const Event& a, const Event& b) {
                     if (a.at_s != b.at_s) return a.at_s < b.at_s;
                     // Ends before starts at the same instant.
                     return !a.is_start && b.is_start;
                   });
  const auto epoch = std::chrono::steady_clock::now();
  for (const Event& event : events) {
    const auto when =
        epoch + std::chrono::microseconds(static_cast<int64_t>(
                    event.at_s * time_scale * 1'000'000.0));
    {
      std::unique_lock<std::mutex> lock(mutex_);
      cv_.wait_until(lock, when, [this] { return stop_; });
      if (stop_) return;
    }
    if (event.is_start) {
      ApplyEpisode(event.index);
    } else {
      EndEpisode(event.index);
    }
  }
}

}  // namespace hetdb
