// Chrome trace-event JSON exporter: serializes a quiescent TraceSession
// into the "JSON object format" that chrome://tracing and Perfetto's
// legacy-trace importer load directly (docs/OBSERVABILITY.md explains
// how to open one).
//
// Timestamp mapping: the Chrome format's `ts`/`dur` fields are nominally
// microseconds. Sessions in the kCycles domain export one simulated
// cycle as one "microsecond" (the UI's absolute time axis is then read
// as cycles); kWallNanos sessions export real microseconds with
// sub-microsecond fractions. The domain is recorded under
// otherData.clock so tools (hinchtrace) never have to guess.
//
// The output is deterministic: same session contents => identical bytes
// (the golden-trace tests rely on this).
#pragma once

#include <string>

#include "obs/trace.hpp"

namespace obs {

// Serialize the whole session. Producers must be quiescent. A trace is
// one session: every event carries pid 0, and lanes are told apart by
// tid alone (hinchtrace and the golden tests rely on this).
std::string to_chrome_json(const TraceSession& session);

// to_chrome_json + write to `path`. Returns false (with a message on
// stderr) when the file cannot be written.
bool write_chrome_trace(const TraceSession& session, const std::string& path);

}  // namespace obs
