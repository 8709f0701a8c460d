// User-requested runtime services (§4.2): "I/O service, console service,
// and visualization service."
//
//  * I/O service — "provides either file I/O or URL I/O for the inputs of
//    the application tasks."  ObjectStore is the user's VDCE file space at
//    a site: paths like "/users/VDCE/user_k/matrix_A.dat" or URLs like
//    "http://data.example/sensor0" resolve to stored values whose sizes are
//    charged to the network when the coordinator stages them.
//  * Console service — "the user can suspend and restart the application
//    execution": SiteManager::suspend_application / resume_application.
//  * Visualization service — "provides application performance and workload
//    visualizations": samples live host loads on the simulation clock and
//    renders ASCII workload traces (the execution Gantt lives on
//    ExecutionReport).
#pragma once

#include <map>
#include <string>
#include <vector>

#include "common/expected.hpp"
#include "common/ids.hpp"
#include "common/strings.hpp"
#include "net/topology.hpp"
#include "runtime/core.hpp"
#include "runtime/site_manager.hpp"
#include "sim/engine.hpp"
#include "tasklib/registry.hpp"

namespace vdce::runtime {

/// A stored user object: its value (for real-kernel runs) and its size on
/// the wire.
struct StoredObject {
  tasklib::Value value;
  double size_bytes = 0.0;
};

class ObjectStore {
 public:
  /// Store or replace; `path` may be a file path or a URL.
  void put(const std::string& path, tasklib::Value value, double size_bytes);

  [[nodiscard]] common::Expected<StoredObject> get(const std::string& path) const;
  [[nodiscard]] bool contains(const std::string& path) const {
    return objects_.contains(path);
  }
  [[nodiscard]] static bool is_url(const std::string& path) {
    return common::starts_with(path, "http://") ||
           common::starts_with(path, "https://");
  }
  [[nodiscard]] std::size_t size() const noexcept { return objects_.size(); }

 private:
  std::map<std::string, StoredObject> objects_;
};

/// Visualization service: periodic sampling of every host's true load.
class VisualizationService {
 public:
  explicit VisualizationService(RuntimeCore& core) : core_(core) {}

  void start(common::SimDuration period);
  void stop();

  struct Sample {
    common::SimTime time;
    std::vector<double> loads;  ///< by host id
  };
  [[nodiscard]] const std::vector<Sample>& samples() const noexcept {
    return samples_;
  }

  /// ASCII per-host load trace over the sampling window.
  [[nodiscard]] std::string render_workload(std::size_t width = 60) const;

 private:
  RuntimeCore& core_;
  sim::TimerHandle timer_;
  std::vector<Sample> samples_;
};

}  // namespace vdce::runtime
