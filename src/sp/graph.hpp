// The SPC (Series-Parallel Contention) task-graph IR of §2/§3 of the
// paper. An application is a tree: leaves are component instances;
// interior nodes combine subgraphs sequentially or in parallel
// (task / slice / crossdep shapes), declare subgraphs optional, or wrap
// them in a reconfiguration manager.
//
// The XSPCL front end elaborates XML into this IR; the Hinch runtime
// compiles it into a per-iteration dependency DAG; the perf module
// evaluates it analytically.
#pragma once

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "support/check.hpp"

namespace sp {

// kGroup (an XSPCL extension implementing the paper's §4.1 suggestion):
// a sequence of components scheduled as ONE entity — consumers run
// immediately after their producers on the same core, trading pipeline
// parallelism for cache locality.
enum class NodeKind { kLeaf, kSeq, kPar, kOption, kManager, kGroup };

// The three parallel shapes of §3.3.
enum class ParShape { kTask, kSlice, kCrossDep };

const char* kind_name(NodeKind k);
const char* shape_name(ParShape s);

// Source position of the XML element a node was elaborated from (0 =
// unknown, e.g. hand-built graphs). Lives here rather than reusing
// xml::Position so the sp layer stays front-end-agnostic; diagnostics
// append it via loc_suffix().
struct SourceLoc {
  int line = 0;
  int column = 0;
  bool valid() const { return line > 0; }
};

// " (at line:col)" when the location is known, "" otherwise.
std::string loc_suffix(const SourceLoc& loc);

// A name=value initialization parameter (§3.1).
struct Param {
  std::string name;
  std::string value;
};

// Binding of a component port to a named stream.
struct PortBinding {
  std::string port;
  std::string stream;
};

// Manager event rules (§3.4): what to do when `event` is polled.
enum class EventAction { kEnable, kDisable, kToggle, kForward, kReconfigure };

const char* action_name(EventAction a);

struct EventRule {
  std::string event;
  EventAction action = EventAction::kToggle;
  // kEnable/kDisable/kToggle: option name. kForward: destination queue.
  std::string target;
  // kReconfigure: request payload sent to all components in the subgraph.
  std::string payload;
};

// Description of one component instance (a leaf).
struct LeafSpec {
  std::string instance;  // unique hierarchical instance name
  std::string klass;     // component class, resolved via the registry
  std::vector<Param> params;
  std::vector<PortBinding> inputs;
  std::vector<PortBinding> outputs;
  // Initial reconfiguration request delivered on creation (§3.1), empty
  // when absent.
  std::string initial_reconfig;
  // The spec opted this instance out of the self edge: iterations may run
  // it concurrently. Program::build accepts it only for a class
  // registered reentrant, on a plain leaf that has successors.
  bool reentrant = false;
  // Loop-level fusion annotation (the fuse-kernels pass): the registered
  // pattern this leaf was synthesized from and the instances it
  // replaced, in chain order. Empty for ordinary leaves. Carried on the
  // leaf (and into dot dumps) so a fused graph stays auditable.
  std::string fused_pattern;
  std::vector<std::string> fused_from;
};

class Node;
using NodePtr = std::unique_ptr<Node>;

class Node {
 public:
  explicit Node(NodeKind kind) : kind_(kind) {}

  NodeKind kind() const { return kind_; }

  // Where in the XSPCL source this node came from (unset for hand-built
  // or synthesized nodes).
  SourceLoc loc;

  // --- leaf ---
  LeafSpec leaf;  // valid when kind == kLeaf

  // --- par ---
  ParShape shape = ParShape::kTask;
  // Data-parallel copy count `n` for slice/crossdep (§3.3); 1 for task.
  int replicas = 1;

  // --- option ---
  std::string option_name;
  bool initially_enabled = true;

  // --- manager ---
  std::string manager_name;
  std::string event_queue;  // the queue this manager polls
  std::vector<EventRule> rules;

  // Children: kSeq = steps in order; kPar = parblocks; kOption/kManager =
  // the single contained subgraph (by convention a kSeq).
  std::vector<NodePtr> children;

  Node& add_child(NodeKind kind) {
    children.push_back(std::make_unique<Node>(kind));
    return *children.back();
  }

  NodePtr clone() const;

 private:
  NodeKind kind_;
};

// --- construction helpers (used by tests and hand-built graphs) ---------------

NodePtr make_leaf(LeafSpec spec);
NodePtr make_seq(std::vector<NodePtr> children);
NodePtr make_par(ParShape shape, int replicas, std::vector<NodePtr> parblocks);
NodePtr make_option(std::string name, bool enabled, NodePtr body);
NodePtr make_manager(std::string name, std::string queue,
                     std::vector<EventRule> rules, NodePtr body);
// children must all be leaves (validated).
NodePtr make_group(std::vector<NodePtr> components);

// --- traversal -----------------------------------------------------------------

// Pre-order visit of every node.
void visit(const Node& root, const std::function<void(const Node&)>& fn);

// All leaves in schedule order.
std::vector<const Node*> collect_leaves(const Node& root);

// Structure statistics.
struct GraphStats {
  int leaves = 0;
  int seq_nodes = 0;
  int par_nodes = 0;
  int options = 0;
  int managers = 0;
  int max_depth = 0;
  // Leaf count after expanding slice/crossdep replication.
  int expanded_leaves = 0;
};

GraphStats stats(const Node& root);

}  // namespace sp
