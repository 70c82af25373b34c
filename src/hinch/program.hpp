// A Program is the compiled, executable form of an SP graph: component
// instances created through the registry, streams bound to ports, and a
// per-iteration task DAG that both executors schedule from.
//
// This is the layer the paper's XSPCL-to-C conversion tool targets: the
// generated glue code builds exactly this structure, and it only runs at
// initialization / reconfiguration time (§1: "the generated glue code is
// only run at initialization time").
#pragma once

#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "hinch/component.hpp"
#include "hinch/event.hpp"
#include "hinch/registry.hpp"
#include "hinch/stream.hpp"
#include "sp/graph.hpp"
#include "sp/pass.hpp"
#include "support/status.hpp"

namespace hinch {

enum class TaskKind { kComponent, kManagerEnter, kManagerExit };

// One node of the per-iteration dependency DAG.
struct Task {
  int id = -1;
  TaskKind kind = TaskKind::kComponent;
  // Component indices this task runs, in order. Usually one; grouped
  // components (sp::NodeKind::kGroup) share a task so consumers execute
  // immediately after producers on the same core (§4.1's fusion idea).
  std::vector<int> components;
  int manager = -1;    // index into Program::managers, or -1
  // Options (innermost last) this task is guarded by; the task is skipped
  // in iterations where any of them is disabled.
  std::vector<int> options;
  std::vector<int> preds;
  std::vector<int> succs;
  std::string label;
  // No self edge: instances of different iterations may run at once
  // (sp::LeafSpec::reentrant, checked by Program::build).
  bool reentrant = false;
};

// Static description of an option (§3.4). Runtime on/off state lives in
// the scheduler so a Program can be executed many times.
struct OptionInfo {
  std::string name;  // unique, includes replica suffix
  std::string base;  // name as written in the spec (manager rules use this)
  bool initially_enabled = true;
  int manager = -1;
  // Component indices inside the option: their (re)creation cost is
  // charged when an enable event is detected.
  std::vector<int> components;
};

// Static description of a manager (§3.4).
struct ManagerInfo {
  std::string name;
  std::string queue;
  std::vector<sp::EventRule> rules;
  int enter_task = -1;
  int exit_task = -1;
  std::vector<int> options;     // option indices it manages
  std::vector<int> components;  // all components in its subgraph
};

struct BuildConfig {
  // Stream slots / maximum iterations in flight (the paper pipelines 5).
  int stream_depth = 5;
  // SP-IR passes run on (a clone of) the graph before compiling. The
  // default pipeline (normalize + strip-dead-options) changes no task
  // DAG for graphs without dead options; callers that already ran the
  // pipeline themselves pass sp::PassOptions::none().
  sp::PassOptions passes;
};

class Program {
 public:
  using BuildConfig = hinch::BuildConfig;

  // Compile a validated SP graph. Creates components via the registry,
  // wires streams, and flattens slice/crossdep replication into tasks.
  static support::Result<std::unique_ptr<Program>> build(
      const sp::Node& root, const ComponentRegistry& registry,
      const BuildConfig& config = BuildConfig());

  // --- structure ---
  const std::vector<Task>& tasks() const { return tasks_; }
  const Task& task(int id) const { return tasks_[static_cast<size_t>(id)]; }
  const std::vector<OptionInfo>& options() const { return options_; }
  const std::vector<ManagerInfo>& managers() const { return managers_; }
  int stream_depth() const { return config_.stream_depth; }

  Component& component(int idx) { return *components_[static_cast<size_t>(idx)]; }
  int component_count() const { return static_cast<int>(components_.size()); }

  const std::vector<std::unique_ptr<Stream>>& streams() const {
    return streams_;
  }
  Stream* find_stream(const std::string& name);

  EventQueueRegistry& queues() { return queues_; }

  // Tasks with no predecessors (iteration entry points).
  const std::vector<int>& entry_tasks() const { return entry_tasks_; }

  // Graphviz rendering of the per-iteration task DAG (after slice /
  // crossdep expansion and group fusion) — the structure the executors
  // actually schedule, as opposed to sp::to_dot's source-level tree.
  std::string task_graph_dot(const std::string& title = "tasks") const;

 private:
  friend class ProgramBuilder;
  Program() = default;

  BuildConfig config_;
  std::vector<Task> tasks_;
  std::vector<std::unique_ptr<Component>> components_;
  std::vector<std::unique_ptr<Stream>> streams_;
  std::unordered_map<std::string, int> stream_index_;
  std::vector<OptionInfo> options_;
  std::vector<ManagerInfo> managers_;
  EventQueueRegistry queues_;
  std::vector<int> entry_tasks_;
};

}  // namespace hinch
