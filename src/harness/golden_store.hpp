// On-disk golden-run store (DESIGN.md §13, binary format §15).
//
// GoldenCache memoizes golden runs within one process; the store extends
// that across processes and invocations by serializing what a GoldenRun
// holds — per-rank op profiles, the output signature, and the captured
// boundary checkpoints — to one file per (app label, nranks, checkpoint
// settings) key. Profiling is deterministic in the key,
// so a stored file is exactly what a fresh profile would produce; the
// shard coordinator pre-fills the store and its worker processes then
// load the golden run instead of re-profiling it, and a repeated CLI
// invocation skips the pre-pass entirely.
//
// The one file format is golden-v2 (`<stem>-v2.bin`): a little-endian
// binary layout with per-section CRC32s, loaded through an mmap whose
// state spans feed the zero-copy fast-forward restore. Files of any other
// name (such as a `-v1.json` left by an older binary) are never read; the
// key misses and refills as v2.
//
// Fill-once discipline: writers create `<file>.lock` with O_CREAT|O_EXCL,
// write to a temp file, rename it over the data file, and unlink the
// lock. Contenders poll for the data file and take over a stale lock
// after a timeout (golden_store.lock_takeovers). Corrupt or truncated
// files are unlinked and refilled (golden_store.refills) — a clean miss,
// never an error. Data files are only ever replaced by rename, never
// truncated in place, so live mmaps keep seeing the inode they opened.
#pragma once

#include <functional>
#include <memory>
#include <string>

#include "harness/runner.hpp"

namespace resilience::harness {

class GoldenStore {
 public:
  /// Opens (creating if needed) the store directory. Throws
  /// std::runtime_error when the directory cannot be created.
  explicit GoldenStore(std::string dir);

  [[nodiscard]] const std::string& dir() const noexcept { return dir_; }

  /// The data file of one key (exposed for tests and diagnostics).
  [[nodiscard]] std::string path_for(const apps::App& app, int nranks) const;

  /// Load the golden run of (app, nranks), or null on a miss. Counts
  /// golden_store.hits / golden_store.misses. A malformed file is
  /// unlinked (golden_store.refills; the next fill recreates it); a file
  /// recorded under different checkpoint settings than the process
  /// currently runs with is left in place but reported as a miss.
  [[nodiscard]] std::shared_ptr<const GoldenRun> load(const apps::App& app,
                                                      int nranks);

  /// Load, or fill by calling `profile` under the fill-once lock and
  /// persisting its result. When another process holds the lock, polls
  /// for its file; a lock older than the poll budget is treated as stale
  /// (a crashed filler) and taken over. Falls back to profiling without
  /// persisting if the store stays contended.
  [[nodiscard]] std::shared_ptr<const GoldenRun> load_or_fill(
      const apps::App& app, int nranks,
      const std::function<GoldenRun()>& profile);

  /// Serialize `golden` for (app, nranks), overwriting any existing file
  /// (temp write + atomic rename). Throws std::runtime_error on I/O
  /// failure.
  void put(const apps::App& app, int nranks, const GoldenRun& golden);

 private:
  [[nodiscard]] std::shared_ptr<const GoldenRun> load_impl(
      const apps::App& app, int nranks, bool count);

  std::string dir_;
};

}  // namespace resilience::harness
