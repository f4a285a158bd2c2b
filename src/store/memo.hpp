// The whole-design memo table under drc::VerdictCache and
// extract::NetlistCache: one lock, one ordered map, first writer wins,
// a content checksum verified on every hit, lifetime counters, and the
// persistent-store stream save/load. Each stage supplies only what differs
// through a Traits class:
//
//   using Key;                         // ordered (operator<)
//   using Value;                       // held as shared_ptr<const Value>
//   static constexpr const char* kStream;       // store stream ("drc")
//   static constexpr const char* kCounters;     // obs prefix ("drc.cache")
//   static constexpr const char* kCorruptSite;  // fault site
//   static std::uint64_t checksum(const Value&);
//   static std::uint64_t bytes(const Value&);   // approximate payload size
//   static void encode_key(Writer&, const Key&);
//   static Key decode_key(Reader&);
//   static std::string encode(const Value&);
//   static std::shared_ptr<const Value> decode(const std::string&);
//                                               // null = malformed record
//
// Poison detection: a hit whose stored checksum no longer matches its value
// (memory corruption, or the injected corruption at kCorruptSite, which
// flips the stored checksum, never the shared value) is evicted and
// reported as a miss, so the caller recomputes. A bad entry costs time,
// never a wrong answer.
//
// Persistence (store/store.hpp conventions): save_to writes one record per
// entry into kStream; load_from re-inserts every well-formed record through
// store(), so checksums and byte accounting are recomputed and a record
// that lies about its payload still degrades to a poisoned miss. Malformed
// records are skipped, never fatal. Any change to a key or payload
// encoding requires a store::kSchemaVersion bump.
//
// Obs: <kCounters>.hits / .misses / .poisoned / .bytes, plus trace
// instants <kCounters>.hit / .miss / .poisoned.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>

#include "fault/fault.hpp"
#include "obs/obs.hpp"
#include "store/store.hpp"

namespace silc::store {

template <class Traits>
class Memo {
 public:
  using Key = typename Traits::Key;
  using Value = typename Traits::Value;
  using Ptr = std::shared_ptr<const Value>;

  /// The stored value for `k`, or null (a miss, or an evicted poisoned
  /// entry).
  [[nodiscard]] Ptr find(const Key& k) const {
    const std::lock_guard<std::mutex> lock(m_);
    const auto it = map_.find(k);
    if (it == map_.end()) {
      ++misses_;
      SILC_OBS_COUNT(names().misses, 1);
      SILC_OBS_INSTANT(names().miss, "cache");
      return nullptr;
    }
    if (Traits::checksum(*it->second.value) != it->second.checksum) {
      ++poisoned_;
      ++misses_;
      bytes_ -= it->second.bytes;
      SILC_OBS_COUNT(names().poisoned, 1);
      SILC_OBS_COUNT(names().bytes, -static_cast<long long>(it->second.bytes));
      SILC_OBS_COUNT(names().misses, 1);
      SILC_OBS_INSTANT(names().poisoned, "cache");
      map_.erase(it);
      return nullptr;
    }
    ++hits_;
    SILC_OBS_COUNT(names().hits, 1);
    SILC_OBS_INSTANT(names().hit, "cache");
    return it->second.value;
  }

  /// Insert a non-null value and return the stored one (the first writer
  /// wins when two callers race on the same miss).
  Ptr store(const Key& k, Ptr v) {
    const std::uint64_t bytes = Traits::bytes(*v);
    std::uint64_t checksum = Traits::checksum(*v);
    if (SILC_FAULT_CORRUPT_AT(Traits::kCorruptSite)) {
      checksum ^= 0x5a5a5a5a5a5a5a5aULL;
    }
    const std::lock_guard<std::mutex> lock(m_);
    const auto [it, fresh] = map_.emplace(k, Entry{std::move(v), bytes, checksum});
    if (fresh) {
      bytes_ += bytes;
      SILC_OBS_COUNT(names().bytes, bytes);
    }
    return it->second.value;
  }

  /// Lifetime hit/miss totals plus the current entry count and
  /// approximate payload bytes.
  [[nodiscard]] obs::CacheStats stats() const {
    const std::lock_guard<std::mutex> lock(m_);
    return {hits_, misses_, map_.size(), bytes_};
  }
  [[nodiscard]] std::size_t size() const { return stats().entries; }
  [[nodiscard]] std::uint64_t hits() const { return stats().hits; }
  [[nodiscard]] std::uint64_t misses() const { return stats().misses; }
  /// Entries whose checksum failed on hit (each was evicted).
  [[nodiscard]] std::uint64_t poisoned() const {
    const std::lock_guard<std::mutex> lock(m_);
    return poisoned_;
  }

  void save_to(Store& s) const {
    const std::lock_guard<std::mutex> lock(m_);
    for (const auto& [k, e] : map_) {
      Writer kw;
      Traits::encode_key(kw, k);
      s.put(Traits::kStream, kw.take(), Traits::encode(*e.value));
    }
  }

  void load_from(const Store& s) {
    s.for_each(Traits::kStream,
               [this](const std::string& key, const std::string& payload) {
                 Reader kr(key);
                 const Key k = Traits::decode_key(kr);
                 if (!kr.done()) return;
                 if (Ptr v = Traits::decode(payload)) store(k, std::move(v));
               });
  }

 private:
  struct Entry {
    Ptr value;
    std::uint64_t bytes = 0;
    std::uint64_t checksum = 0;  // verified on hit
  };
  struct Names {
    std::string hits, misses, poisoned, bytes, hit, miss;
  };
  static const Names& names() {
    static const Names n = [] {
      const std::string p = std::string(Traits::kCounters) + ".";
      return Names{p + "hits", p + "misses", p + "poisoned",
                   p + "bytes", p + "hit",   p + "miss"};
    }();
    return n;
  }

  mutable std::mutex m_;
  mutable std::map<Key, Entry> map_;
  mutable std::uint64_t bytes_ = 0;
  mutable std::uint64_t hits_ = 0;
  mutable std::uint64_t misses_ = 0;
  mutable std::uint64_t poisoned_ = 0;
};

}  // namespace silc::store
