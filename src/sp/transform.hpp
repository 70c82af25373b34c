// Graph transformation to_sp_form: rewrite crossdep regions into SP form
// by inserting a synchronization point between consecutive parblocks
// (§3.3: "If performance prediction is required on this structure, it
// has to be transformed into SP form by adding a synchronization point
// between the parblocks").
#pragma once

#include "sp/graph.hpp"

namespace sp {

// Returns a deep copy where every crossdep par node is replaced by a seq
// of slice-shaped par nodes (one per parblock, same replica count).
NodePtr to_sp_form(const Node& root);

}  // namespace sp
