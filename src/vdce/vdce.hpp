// Umbrella header: everything a VDCE application developer needs.
//
//   #include "vdce/vdce.hpp"
//
// pulls in the environment façade, the application builder/DSL, the task
// libraries, the schedulers, and the runtime services.  Individual headers
// remain available for finer-grained inclusion.
#pragma once

#include "afg/generate.hpp"
#include "afg/graph.hpp"
#include "afg/levels.hpp"
#include "editor/builder.hpp"
#include "editor/dsl.hpp"
#include "dsm/dsm.hpp"
#include "editor/panels.hpp"
#include "predict/model.hpp"
#include "runtime/execution.hpp"
#include "runtime/services.hpp"
#include "sched/host_selection.hpp"
#include "sched/policy.hpp"
#include "sched/site_scheduler.hpp"
#include "sched/strategy.hpp"
#include "tasklib/image.hpp"
#include "tasklib/matrix.hpp"
#include "tasklib/registry.hpp"
#include "tasklib/signal.hpp"
#include "vdce/environment.hpp"
#include "vdce/testbed.hpp"
