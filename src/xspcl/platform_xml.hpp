// XML platform specs: the simulated machine as data, not code.
//
//   <platform name="spacecake4" topology="ring" hop_cycles_per_chunk="64">
//     <coreclass name="trimedia" cycle_multiplier="1.0"/>
//     <coreclass name="lite"     cycle_multiplier="2.0"/>
//     <tile cores="4" class="trimedia" l2_bytes="4194304"/>
//     <tile cores="4" class="lite" count="3"/>
//   </platform>
//
// topology: crossbar (default) | ring | mesh (needs mesh_width="N");
// <coreclass> is optional (omitted = one baseline class, multiplier 1);
// <tile count="K"> repeats the tile K times; l2_bytes="0"/omitted uses
// the CacheConfig default (16 MiB). A tile's cores, its count and the
// platform's total cores are each bounded by sim::kMaxCores, and the
// cache model's directory for the platform (under the default
// CacheConfig) by sim::kMaxDirectoryBytes.
//
// All structural errors — an attribute an element does not know
// included — are reported as positioned diagnostics
// ("platform spec at LINE:COL: ..."), same idiom as the XSPCL
// elaborator. Loaded specs are fed to hinch::SimParams::platform
// (`xspclc run --platform=FILE`).
#pragma once

#include <string>
#include <string_view>

#include "sim/platform.hpp"
#include "support/status.hpp"
#include "xml/dom.hpp"

namespace xspcl {

// Convert an already-parsed <platform> element.
support::Result<sim::PlatformConfig> parse_platform(const xml::Element& root);

// Parse + convert an XML document / file.
support::Result<sim::PlatformConfig> load_platform_string(
    std::string_view text);
support::Result<sim::PlatformConfig> load_platform_file(
    const std::string& path);

}  // namespace xspcl
