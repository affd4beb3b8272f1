// The engine-run names bench_e2e/epoch_e2e.cc compiles against. Every
// engine run is a runner::RunExperiment run (runner/runner.h); these
// aliases keep the benchmark's surface stable until it moves to the
// single name.
#ifndef SIES_RUNNER_ENGINE_RUNNER_H_
#define SIES_RUNNER_ENGINE_RUNNER_H_

#include <functional>
#include <string>
#include <vector>

#include "engine/epoch_scheduler.h"
#include "runner/runner.h"

namespace sies::runner {

using EngineQuerySchedule = QuerySchedule;
using EngineTransport = TransportKind;
using EngineExperimentConfig = ExperimentConfig;
using EngineExperimentResult = ExperimentResult;

inline StatusOr<ExperimentResult> RunEngineExperiment(
    const ExperimentConfig& config) { return RunExperiment(config); }

}  // namespace sies::runner

#endif  // SIES_RUNNER_ENGINE_RUNNER_H_
