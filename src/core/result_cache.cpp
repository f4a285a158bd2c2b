#include "core/result_cache.hpp"

#include "geom/fnv.hpp"
#include "store/store.hpp"

namespace silc::core {

namespace {

std::string encode_result(const CompileResult& r) {
  store::Writer w;
  w.str(r.cif);
  w.u64(r.drc.violations.size());
  for (const drc::Violation& v : r.drc.violations) {
    w.str(v.rule);
    w.rect(v.where);
    w.str(v.detail);
    w.point(v.anchor);
  }
  w.u8(r.verified ? 1 : 0);
  w.str(r.verify_detail);
  w.i32(r.stats.state_bits);
  w.i32(r.stats.external_inputs);
  w.i32(r.stats.external_outputs);
  w.i32(r.stats.pads);
  w.i32(r.stats.channel_tracks);
  w.i64(r.stats.channel_wire_length);
  w.i64(r.stats.width);
  w.i64(r.stats.height);
  w.i32(r.stats.pla.num_inputs);
  w.i32(r.stats.pla.num_outputs);
  w.i32(r.stats.pla.num_terms);
  w.u64(r.stats.pla.crosspoints);
  w.i64(r.stats.pla.width);
  w.i64(r.stats.pla.height);
  w.u64(r.transistors);
  w.u64(r.rect_count);
  w.u64(r.diags.size());
  for (const Diag& d : r.diags) {
    w.u8(static_cast<std::uint8_t>(d.severity));
    w.str(d.stage);
    w.str(d.message);
  }
  return w.take();
}

bool decode_result(const std::string& payload, CompileResult* out) {
  store::Reader r(payload);
  CompileResult c;
  c.from_cache = true;
  c.cif = r.str();
  const std::uint64_t violations = r.u64();
  if (!r.ok() || violations > r.remaining()) return false;
  c.drc.violations.reserve(violations);
  for (std::uint64_t i = 0; i < violations; ++i) {
    drc::Violation v;
    v.rule = r.str();
    v.where = r.rect();
    v.detail = r.str();
    v.anchor = r.point();
    c.drc.violations.push_back(std::move(v));
  }
  c.verified = r.u8() != 0;
  c.verify_detail = r.str();
  c.stats.state_bits = r.i32();
  c.stats.external_inputs = r.i32();
  c.stats.external_outputs = r.i32();
  c.stats.pads = r.i32();
  c.stats.channel_tracks = r.i32();
  c.stats.channel_wire_length = r.i64();
  c.stats.width = r.i64();
  c.stats.height = r.i64();
  c.stats.pla.num_inputs = r.i32();
  c.stats.pla.num_outputs = r.i32();
  c.stats.pla.num_terms = r.i32();
  c.stats.pla.crosspoints = r.u64();
  c.stats.pla.width = r.i64();
  c.stats.pla.height = r.i64();
  c.transistors = r.u64();
  c.rect_count = r.u64();
  const std::uint64_t diags = r.u64();
  if (!r.ok() || diags > r.remaining()) return false;
  c.diags.reserve(diags);
  for (std::uint64_t i = 0; i < diags; ++i) {
    Diag d;
    d.severity = static_cast<Severity>(r.u8());
    d.stage = r.str();
    d.message = r.str();
    c.diags.push_back(std::move(d));
  }
  if (!r.done()) return false;
  *out = std::move(c);
  return true;
}

}  // namespace

std::uint64_t ResultCache::fingerprint(Flow flow, const std::string& source,
                                       const CompileOptions& options,
                                       std::uint64_t drc_sig,
                                       std::uint64_t extract_sig) {
  geom::Fnv f;
  f.mix(store::kSchemaVersion);
  f.mix(static_cast<std::uint64_t>(flow));
  f.mix_str(source);
  f.mix(drc_sig);
  f.mix(extract_sig);
  f.mix_str(options.name);
  f.mix_str(options.stop_after);
  f.mix(options.skip.size());
  for (const std::string& s : options.skip) f.mix_str(s);
  f.mix(static_cast<std::uint64_t>(options.verify_cycles));
  // The gate-check engine, not a setting: a result stored by a build
  // whose gate-check sampled (it mixed its cycle and lane counts here)
  // can never be replayed as this build's proof.
  f.mix_str("gate-check:exhaustive-proof");
  // Likewise the pla-check engine: a result whose pla-check was the
  // cofactor prover's "symbolic proof" is never replayed as this one's.
  f.mix_str("pla-check:exhaustive");
  return f.h;
}

std::uint64_t ResultCache::fingerprint(Flow flow, const std::string& source,
                                       const CompileOptions& options) {
  const tech::Tech& t = tech::nmos();
  return fingerprint(flow, source, options, t.drc_signature(),
                     t.extract_signature());
}

bool ResultCache::eligible(const CompileResult& r) {
  if (r.chip == nullptr || !r.ok()) return false;
  for (const Diag& d : r.diags) {
    if (d.severity != Severity::Note) return false;
  }
  return true;
}

bool ResultCache::find(std::uint64_t fp, CompileResult* out) const {
  const std::lock_guard<std::mutex> lk(m_);
  const auto it = map_.find(fp);
  if (it == map_.end()) {
    ++misses_;
    SILC_OBS_COUNT("store.misses", 1);
    return false;
  }
  if (!decode_result(it->second, out)) {
    // Cannot happen through the normal put path (the store checksums
    // records and encode/decode are inverses), but a decode failure must
    // still degrade to a recompile, never a wrong result.
    ++misses_;
    SILC_OBS_COUNT("store.poisoned", 1);
    SILC_OBS_COUNT("store.misses", 1);
    return false;
  }
  ++hits_;
  SILC_OBS_COUNT("store.hits", 1);
  return true;
}

bool ResultCache::contains(std::uint64_t fp) const {
  const std::lock_guard<std::mutex> lk(m_);
  return map_.count(fp) != 0;
}

void ResultCache::store(std::uint64_t fp, const CompileResult& r) {
  if (!eligible(r)) return;
  std::string payload = encode_result(r);
  const std::lock_guard<std::mutex> lk(m_);
  map_.emplace(fp, std::move(payload));  // first writer wins
}

void ResultCache::save_to(store::Store& s) const {
  const std::lock_guard<std::mutex> lk(m_);
  for (const auto& [fp, payload] : map_) {
    store::Writer kw;
    kw.u64(fp);
    s.put("result", kw.take(), payload);
  }
}

void ResultCache::load_from(const store::Store& s) {
  const std::lock_guard<std::mutex> lk(m_);
  s.for_each("result",
             [this](const std::string& key, const std::string& payload) {
               store::Reader kr(key);
               const std::uint64_t fp = kr.u64();
               if (!kr.done()) return;
               // Validate now so a malformed record is dropped at load,
               // not discovered as a poisoned hit later.
               CompileResult probe;
               if (decode_result(payload, &probe)) map_.emplace(fp, payload);
             });
}

std::size_t ResultCache::size() const {
  const std::lock_guard<std::mutex> lk(m_);
  return map_.size();
}

std::uint64_t ResultCache::hits() const {
  const std::lock_guard<std::mutex> lk(m_);
  return hits_;
}

std::uint64_t ResultCache::misses() const {
  const std::lock_guard<std::mutex> lk(m_);
  return misses_;
}

}  // namespace silc::core
