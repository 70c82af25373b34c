// Abstract syntax of XSPCL (§3), as parsed from the XML concrete syntax.
//
// Concrete syntax summary (tags were stripped from the published PDF;
// this grammar follows the paper's prose and its SPC-XML ancestry):
//
//   <xspcl>
//     <procedure name="main">
//       <body> ...structures... </body>
//     </procedure>
//     <procedure name="scaler_chain">
//       <formal name="in"     kind="stream"/>
//       <formal name="factor" kind="value" default="4"/>
//       <body> ... </body>
//     </procedure>
//   </xspcl>
//
// Structures inside <body> (executed sequentially unless parallel):
//
//   <component name="down" class="downscale">
//     <param name="factor" value="$factor"/>
//     <inport  name="in"  stream="$in"/>
//     <outport name="out" stream="small"/>
//     <reconfig request="pos=10,10"/>            (optional, §3.1)
//   </component>
//   An optional reentrant="true|false" attribute (may be "$formal") drops
//   the instance's self edge; see docs/LANGUAGE.md.
//
//   <call procedure="scaler_chain" name="left">
//     <arg name="in" stream="video1"/>
//     <arg name="factor" value="3"/>
//   </call>
//
//   <parallel shape="task|slice|crossdep" n="8">
//     <parblock> ... </parblock> ...
//   </parallel>                                   (§3.3)
//
//   <group> <component .../> <component .../> </group>
//     components scheduled as one entity (§4.1 fusion; extension)
//
//   <manager name="m" queue="ui">
//     <on event="key2" action="toggle" option="pip2"/>
//     <on event="fwd"  action="forward" queue="other"/>
//     <on event="move" action="reconfigure" payload="pos=64,64"/>
//     <body>
//       <option name="pip2" enabled="false"> ... </option>
//     </body>
//   </manager>                                    (§3.4)
//
// `$name` / `${name}` in attribute values substitute procedure formals.
// Stream names are procedure-local unless bound to a stream formal.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "sp/graph.hpp"
#include "xml/dom.hpp"

namespace xspcl::ast {

enum class Kind { kSeq, kComponent, kCall, kParallel, kOption, kManager, kGroup };

struct Arg {
  std::string name;
  std::string value;
  bool is_stream = false;  // <arg ... stream=.../> vs value=...
};

struct Formal {
  enum class Kind { kStream, kValue };
  std::string name;
  Kind kind = Kind::kValue;
  std::string fallback;  // default value (kValue only)
  bool has_default = false;
};

struct Node;
using NodePtr = std::unique_ptr<Node>;

struct Node {
  Kind kind = Kind::kSeq;
  xml::Position pos;

  // kComponent
  std::string name;
  std::string klass;
  std::vector<sp::Param> params;
  std::vector<sp::PortBinding> inputs;
  std::vector<sp::PortBinding> outputs;
  std::string reconfig;
  std::string reentrant;  // raw attribute text; "" when absent

  // kCall
  std::string callee;
  std::string call_name;  // scope label; defaults to the callee name
  std::vector<Arg> args;

  // kParallel
  sp::ParShape shape = sp::ParShape::kTask;
  std::string replicas_expr;  // may reference a formal

  // kOption
  std::string option_name;
  bool enabled = true;

  // kManager
  std::string manager_name;
  std::string queue;
  std::vector<sp::EventRule> rules;

  // kSeq: steps. kParallel: parblocks (each kSeq). kOption/kManager: one
  // kSeq body.
  std::vector<NodePtr> children;
};

struct Procedure {
  std::string name;
  std::vector<Formal> formals;
  NodePtr body;  // kSeq
  xml::Position pos;

  const Formal* find_formal(const std::string& n) const {
    for (const Formal& f : formals)
      if (f.name == n) return &f;
    return nullptr;
  }
};

struct Program {
  std::vector<Procedure> procedures;

  const Procedure* find(const std::string& name) const {
    for (const Procedure& p : procedures)
      if (p.name == name) return &p;
    return nullptr;
  }
};

}  // namespace xspcl::ast
