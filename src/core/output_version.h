// Version of the layouts libqgdp produces.
#pragma once

namespace qgdp {

/// Bump whenever a change alters the layout any flow produces for the
/// same device, flow, seed and options: layouts made by other versions
/// are then stale. The durable layout cache stamps it into every entry
/// (server/cache_store.h), so a daemon restarted on an older cache
/// directory quarantines those entries instead of serving them.
inline constexpr int kOutputVersion = 2;

}  // namespace qgdp
