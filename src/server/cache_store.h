// Durable tier under the in-memory LayoutCache.
//
// Every cached layout is persisted to `--cache-dir` as one file named
// by its content hash (`<key>.qlc`), so a restart — clean or kill -9 —
// rebuilds the warm cache from disk and keeps serving byte-identical
// hits. The on-disk format is versioned and checksummed:
//
//   qgdpc 1\n
//   key <hex16>\n
//   fingerprint <format fingerprint>\n
//   spacing <setprecision(17) double>\n
//   length <payload bytes>\n
//   checksum <hex16 FNV-1a of payload>\n
//   \n
//   <payload — the .qlay text, exactly `length` bytes>
//
// Writes happen on a background writer thread so the place path never
// blocks on disk, and each write is atomic: the entry is written to a
// `.tmp` sibling, fsync'd, renamed over the final name, and the
// directory fsync'd. A crash mid-write therefore leaves either the old
// file, no file, or a stray `.tmp` — never a torn `.qlc`.
//
// load() scans the directory once at startup. Files that fail any
// check (magic, version, fingerprint, key/filename mismatch, length,
// checksum, non-finite spacing) are quarantined — renamed to
// `<name>.corrupt` and counted — never fatal. Stray `.tmp` files from
// an interrupted write are removed and counted the same way.
//
// The disk tier is unbounded by design: in-memory LRU eviction does
// not delete files, so evicted entries come back warm after a restart.
#pragma once

#include <condition_variable>
#include <cstdint>
#include <deque>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "core/output_version.h"

namespace qgdp {

struct CacheStoreOptions {
  std::string dir;  ///< directory for entry files (created if absent)
  /// Format fingerprint stamped into every file header: the layout and
  /// key schemas plus kOutputVersion. Entries whose fingerprint differs
  /// (a stale schema, or layouts from code with other outputs) are
  /// quarantined on load instead of being served.
  std::string fingerprint{"qlay=1;key=1;out=" + std::to_string(kOutputVersion)};
  bool fsync{true};        ///< fsync file + directory on every write
  int write_delay_ms{0};   ///< test knob: sleep between temp write and rename
};

struct CacheStoreStats {
  std::uint64_t entries_loaded{0};       ///< files accepted by load()
  std::uint64_t entries_flushed{0};      ///< entries durably renamed into place
  std::uint64_t corrupt_quarantined{0};  ///< files quarantined or tmp-cleaned
  std::uint64_t write_errors{0};         ///< failed background writes
  std::uint64_t pending{0};              ///< queued + in-flight writes
};

struct CacheStoreEntry {
  std::string key;      ///< 16 lowercase hex chars (content hash)
  double spacing{1.0};  ///< min-spacing side value for warm ECO edits
  std::string payload;  ///< the .qlay text
};

class CacheStore {
 public:
  explicit CacheStore(CacheStoreOptions opt);
  ~CacheStore();

  CacheStore(const CacheStore&) = delete;
  CacheStore& operator=(const CacheStore&) = delete;

  /// Creates the directory if needed and starts the writer thread.
  /// Returns false (with *error set) if the directory cannot be used.
  bool open(std::string* error);

  /// Scans the directory, returning every entry that passes the
  /// version + checksum checks; quarantines everything else. Never
  /// throws on file content. Entries are returned in filename order
  /// so cache population is deterministic.
  std::vector<CacheStoreEntry> load();

  /// Queues an entry for a durable background write. Writes for the
  /// same key are coalesced (content-addressed: same key, same bytes).
  void enqueue(CacheStoreEntry entry);

  /// Blocks until every queued write has been renamed into place.
  void flush();

  /// flush() + join the writer thread. Idempotent; called by dtor.
  void stop();

  [[nodiscard]] CacheStoreStats stats() const;
  [[nodiscard]] const CacheStoreOptions& options() const { return opt_; }

  /// "<key>.qlc"
  [[nodiscard]] static std::string entry_file_name(const std::string& key);
  /// Serialized file image (header + payload) for an entry.
  [[nodiscard]] std::string encode_entry(const CacheStoreEntry& entry) const;
  /// Parses + validates a file image; returns false on any defect.
  bool decode_entry(const std::string& bytes, const std::string& expect_key,
                    CacheStoreEntry* out) const;

 private:
  void writer_main();
  bool write_entry_file(const CacheStoreEntry& entry);
  void quarantine(const std::string& name);

  CacheStoreOptions opt_;

  mutable std::mutex mutex_;
  std::condition_variable cv_;         // wakes the writer
  std::condition_variable idle_cv_;    // wakes flush()
  std::deque<CacheStoreEntry> queue_;
  bool writing_{false};
  bool stopping_{false};
  bool opened_{false};
  std::thread writer_;

  std::uint64_t entries_loaded_{0};
  std::uint64_t entries_flushed_{0};
  std::uint64_t corrupt_quarantined_{0};
  std::uint64_t write_errors_{0};
};

}  // namespace qgdp
