// Persistent compile store: flat versioned records, checksums, no clever
// database. The on-disk half of the cache story — core::ResultCache and
// the session's VerdictCache / NetlistCache entries survive the process,
// so a warm compile of an unchanged design becomes a file load plus a
// lookup, and a warm session's first verify a top hit.
//
// The house conventions:
//
//   1. Record format. One file = one header + N records, little-endian:
//        magic "SILCSTO1" | format u32 | schema u64 | record count u64
//        record: stream str32 | key str32 | payload str32 | checksum u64
//      (str32 = u32 byte count + raw bytes; checksum = FNV-1a over the
//      stream, key, and payload bytes of that record). Streams are short
//      cache names; keys and payloads are Writer-serialized binary, never
//      raw struct bytes — padding is indeterminate and would break
//      cross-build identity. Who writes which stream:
//        "result"          core::compile_many and core::compile with a
//                          cache_dir (core::ResultCache); they re-save
//                          the loaded file, so other streams pass through;
//        "drc", "extract"  core::IncrementalSession::save_store (the
//                          session's VerdictCache / NetlistCache, see
//                          store/memo.hpp); it writes a fresh file.
//
//   2. Versioning rules. The format version guards the container layout
//      above and changes only in this file. The schema version
//      (kSchemaVersion) stamps every saved file and must be bumped
//      whenever ANY stream's key or payload encoding changes — drc,
//      extract, or result — so a stale file cold-starts instead of being
//      misparsed. Keys additionally embed the content signatures of
//      everything a cached value depends on (Tech::drc_signature() /
//      extract_signature(), geometry and naming hashes, source text,
//      option fingerprints), so edits invalidate by construction: an old
//      entry is never wrong, only unreachable.
//
//   3. Graceful cold start, never a wrong answer. load() never throws:
//      a missing file is a silent cold start; a short header, bad magic,
//      format/schema skew, truncated record, or checksum mismatch clears
//      the store, records one load_error() line, and counts
//      store.poisoned. Corruption granularity is the whole file — a torn
//      write is indistinguishable from a half-poisoned one, and a cold
//      compile is cheap next to a wrong artifact (the spirit of the
//      in-memory caches' poison-evict rule, applied at file scope).
//
//   4. Atomic save. save() serializes to a temp file of its own next to
//      the target ("<path>.tmp.<salt>.<n>") and renames it over the
//      target, so a crashed or faulted save leaves either the old file or
//      a stray tmp — never a half-written store at the live path — and two
//      writers saving one path at once never share a temp file: the last
//      rename wins whole (the other save's records are lost, not torn).
//
//   5. What may be cached: values that are pure deterministic functions
//      of the bits folded into their key (whole-cell DRC verdicts, partial
//      netlists, whole CompileResults of clean notes-only runs). What may
//      NOT: anything tainted by the environment of one run — results
//      carrying warning/error/cancelled diags (a hier→flat fallback
//      warning means an injected fault or a bug shaped this result),
//      wall-clock timings, obs metrics, or pointers into a Library.
//      core::ResultCache::eligible() is the gate.
//
//   6. Threading. Store is NOT thread-safe by design: load and attach
//      before the worker crew starts, harvest and save after it joins
//      (core::compile_many does exactly this). The in-memory cache it
//      fills is the concurrent layer.
//
// Fault sites: "store.load" and "store.save" (SILC_FAULT_POINT) exercise
// the degradation paths above; SILC_FAULT_CORRUPT_AT("store.save") flips
// one record checksum in the written bytes so the NEXT load must detect
// it and cold-start — the chaos harness (tests/test_store.cpp) proves
// both degrade to cold compiles with byte-identical artifacts.
//
// Obs counters: store.load_ms / store.save_ms (ceil-rounded, so a
// performed load always registers) and store.poisoned here;
// store.hits / store.misses are counted by core::ResultCache, whose
// lookups are what a warm compile serves from.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <utility>

#include "geom/geom.hpp"

namespace silc::store {

/// Bump whenever any stream's key or payload encoding changes (see the
/// versioning rules above). Stamped into every saved file; a mismatch on
/// load is a cold start.
inline constexpr std::uint64_t kSchemaVersion = 1;

/// FNV-1a over a byte string — the store's record checksum, same flavour
/// as the in-memory caches' content checksums.
[[nodiscard]] std::uint64_t fnv1a(const std::string& bytes,
                                  std::uint64_t h = 1469598103934665603ULL);

// -------------------------------------------------------------- the store --

class Store {
 public:
  Store() = default;
  /// Test hook: a store that stamps (and demands) a different schema, so
  /// the schema-bump invalidation path stays provable without editing
  /// kSchemaVersion.
  explicit Store(std::uint64_t schema) : schema_(schema) {}

  /// Read `path` (mmap when available, plain read otherwise). Returns
  /// true on a clean load. A missing file returns false with an empty
  /// load_error() — the silent cold start. Any mismatch or corruption
  /// clears the store, sets load_error(), counts store.poisoned, and
  /// returns false. Never throws (an injected "store.load" fault is
  /// contained here and degrades like corruption).
  bool load(const std::string& path);

  /// Serialize to a temp file of this save's own beside `path`, then
  /// atomically rename it onto `path`.
  /// Returns false with save_error() set on any failure (the old file, if
  /// any, survives). file_bytes() reports the bytes written.
  bool save(const std::string& path) const;

  /// Insert or overwrite one record.
  void put(const std::string& stream, std::string key, std::string payload);
  /// The payload stored under (stream, key), or nullptr.
  [[nodiscard]] const std::string* get(const std::string& stream,
                                       const std::string& key) const;
  /// Visit every record of one stream in deterministic (key) order.
  void for_each(const std::string& stream,
                const std::function<void(const std::string& key,
                                         const std::string& payload)>& fn)
      const;

  void clear();

  [[nodiscard]] std::size_t records() const;
  /// Sum of stream+key+payload bytes across records (payload accounting,
  /// not file size).
  [[nodiscard]] std::uint64_t bytes() const { return bytes_; }
  /// Bytes the last successful save() wrote (0 before any save).
  [[nodiscard]] std::uint64_t file_bytes() const { return file_bytes_; }
  /// True when load() read an existing file cleanly.
  [[nodiscard]] bool loaded() const { return loaded_; }
  /// Why the last load() cold-started ("" = clean load or no file).
  [[nodiscard]] const std::string& load_error() const { return load_error_; }
  [[nodiscard]] const std::string& save_error() const { return save_error_; }
  [[nodiscard]] std::uint64_t schema() const { return schema_; }

 private:
  bool parse(const char* data, std::size_t size);

  std::uint64_t schema_ = kSchemaVersion;
  // stream -> key -> payload; std::map for deterministic save order, so
  // identical content serializes to identical bytes.
  std::map<std::string, std::map<std::string, std::string>> streams_;
  std::uint64_t bytes_ = 0;
  mutable std::uint64_t file_bytes_ = 0;
  bool loaded_ = false;
  std::string load_error_;
  mutable std::string save_error_;
};

// ------------------------------------------------- record (de)serializers --

/// Little-endian binary writer for record keys and payloads. Field-by-
/// field, never raw structs (padding is indeterminate); the matching
/// Reader consumes fields in the same order.
class Writer {
 public:
  void u8(std::uint8_t v) { out_.push_back(static_cast<char>(v)); }
  void u32(std::uint32_t v);
  void u64(std::uint64_t v);
  void i32(std::int32_t v) { u32(static_cast<std::uint32_t>(v)); }
  void i64(std::int64_t v) { u64(static_cast<std::uint64_t>(v)); }
  void str(const std::string& s);
  void point(const geom::Point& p);
  void rect(const geom::Rect& r);

  [[nodiscard]] std::string take() { return std::move(out_); }

 private:
  std::string out_;
};

/// Bounds-checked reader: any over-read (or oversized string length)
/// clears ok() and every later field reads as zero/empty, so garbage
/// input degrades to a rejected record, never UB. Callers must check
/// done() — ok and fully consumed — before trusting the fields.
class Reader {
 public:
  explicit Reader(const std::string& data) : d_(data) {}

  std::uint8_t u8();
  std::uint32_t u32();
  std::uint64_t u64();
  std::int32_t i32() { return static_cast<std::int32_t>(u32()); }
  std::int64_t i64() { return static_cast<std::int64_t>(u64()); }
  std::string str();
  geom::Point point();
  geom::Rect rect();

  [[nodiscard]] bool ok() const { return ok_; }
  [[nodiscard]] bool done() const { return ok_ && pos_ == d_.size(); }
  /// Bytes not yet consumed — the cheap sanity bound for element counts.
  [[nodiscard]] std::size_t remaining() const { return d_.size() - pos_; }

 private:
  bool take(std::size_t n);

  const std::string& d_;
  std::size_t pos_ = 0;
  bool ok_ = true;
};

}  // namespace silc::store
