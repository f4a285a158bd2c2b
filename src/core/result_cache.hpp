// Whole-result memoization: the one cache tier of a compile. A
// CompileResult is a pure function of (flow, source, output-affecting
// options, technology signatures), so an unchanged design never has to
// re-enter the pipeline. compile_many owns one per batch and serves every
// repeated job from it (see core::compile_many); compile() with a
// cache_dir consults one loaded from the store before building a DesignDB
// and stores the harvest after.
//
// Both the in-memory hit and the disk-warm hit materialize from the SAME
// serialized payload, so a result served from cache is byte-identical
// (same_outcome) to the compile that produced it, whichever tier served
// it — chip pointer, timings, and metrics excluded, exactly the fields
// same_outcome already ignores. CompileResult::from_cache marks the
// materialized copies. Entries are never evicted: a batch holds one per
// distinct job, and a store holds what its batches compiled.
//
// Eligibility (see store/store.hpp, "what may/may not be cached"): only
// ok() results with a chip and notes-only diagnostics are stored. A
// warning diag means a degradation path fired (hier→flat fallback under
// an injected fault, a store corruption notice) or the design itself
// warns — such a result may be shaped by one run's environment and must
// never be replayed into another.
//
// Obs counters: store.hits / store.misses — a served job's visible win,
// and what the ci.sh persistence leg greps for.
#pragma once

#include <cstdint>
#include <map>
#include <mutex>
#include <string>

#include "core/pipeline.hpp"

namespace silc::store {
class Store;
}

namespace silc::core {

class ResultCache {
 public:
  /// Content fingerprint of a compile: flow, source text, every
  /// output-affecting option (name, stage policy, verify depth), tags of
  /// the gate-check and pla-check engines, the technology's drc/extract
  /// signatures, and the store schema version. Thread counts, deadlines,
  /// cancel tokens, and cache_dir are excluded — they must not change the
  /// answer (the determinism contract), so they must not change the key.
  [[nodiscard]] static std::uint64_t fingerprint(Flow flow,
                                                 const std::string& source,
                                                 const CompileOptions& options,
                                                 std::uint64_t drc_sig,
                                                 std::uint64_t extract_sig);
  /// Convenience: signatures of tech::nmos(), the pipeline's technology.
  [[nodiscard]] static std::uint64_t fingerprint(Flow flow,
                                                 const std::string& source,
                                                 const CompileOptions& options);

  /// True when `r` may be memoized: ok(), chip present, notes-only diags.
  [[nodiscard]] static bool eligible(const CompileResult& r);

  /// Materialize the stored result for `fp` into *out (from_cache = true,
  /// chip = nullptr, empty timings/metrics). Counts store.hits /
  /// store.misses. A payload that fails to decode (never expected — the
  /// store already checksummed it) counts poisoned and misses.
  [[nodiscard]] bool find(std::uint64_t fp, CompileResult* out) const;

  /// True when a result is memoized under `fp`. Counts nothing.
  [[nodiscard]] bool contains(std::uint64_t fp) const;

  /// Memoize an eligible result; no-op (not an error) otherwise.
  void store(std::uint64_t fp, const CompileResult& r);

  /// Persistence (store/store.hpp conventions): the "result" stream, one
  /// record per fingerprint, payload = the serialized CompileResult.
  void save_to(store::Store& s) const;
  void load_from(const store::Store& s);

  [[nodiscard]] std::size_t size() const;
  [[nodiscard]] std::uint64_t hits() const;
  [[nodiscard]] std::uint64_t misses() const;

 private:
  mutable std::mutex m_;
  // fingerprint -> serialized payload, decoded on every hit so the memory
  // and disk tiers cannot drift
  std::map<std::uint64_t, std::string> map_;
  mutable std::uint64_t hits_ = 0;
  mutable std::uint64_t misses_ = 0;
};

}  // namespace silc::core
