#include "drc/drc.hpp"

#include <algorithm>
#include <sstream>

#include "core/cancel.hpp"
#include "drc/rules.hpp"
#include "fault/fault.hpp"
#include "store/store.hpp"

namespace silc::drc {

using layout::Shape;
using tech::Tech;

// -------------------------------------------------------------- violations --

std::string Violation::str() const {
  std::string s = rule + " at " + geom::to_string(where);
  if (!detail.empty()) s += " (" + detail + ")";
  return s;
}

bool operator<(const Violation& a, const Violation& b) {
  return std::tie(a.rule, a.where.x0, a.where.y0, a.where.x1, a.where.y1,
                  a.detail, a.anchor.x, a.anchor.y) <
         std::tie(b.rule, b.where.x0, b.where.y0, b.where.x1, b.where.y1,
                  b.detail, b.anchor.x, b.anchor.y);
}

std::string Result::summary() const {
  if (ok()) return "DRC clean";
  std::ostringstream os;
  os << violations.size() << " violation(s):";
  const std::size_t show = std::min(violations.size(), kMaxReported);
  for (std::size_t i = 0; i < show; ++i) {
    os << "\n  " << violations[i].str();
  }
  if (show < violations.size()) {
    os << "\n  ... and " << violations.size() - show << " more";
  }
  return os.str();
}

std::size_t Result::count(const std::string& prefix) const {
  std::size_t n = 0;
  for (const Violation& v : violations) {
    if (v.rule.rfind(prefix, 0) == 0) ++n;
  }
  return n;
}

void Result::canonicalize() {
  std::sort(violations.begin(), violations.end());
  violations.erase(std::unique(violations.begin(), violations.end()),
                   violations.end());
}

// ----------------------------------------------------------- verdict cache --

namespace {

std::uint64_t verdict_bytes(const std::vector<Violation>& vs) {
  std::uint64_t b = sizeof(std::vector<Violation>);
  for (const Violation& v : vs) {
    b += sizeof(Violation) + v.rule.size() + v.detail.size();
  }
  return b;
}

/// Content hash over the fields that define a verdict (never raw struct
/// bytes — padding is indeterminate). FNV-1a, same flavour the layout
/// hashes use.
std::uint64_t verdict_checksum(const std::vector<Violation>& vs) {
  std::uint64_t h = 1469598103934665603ULL;
  const auto mix = [&h](std::uint64_t x) {
    h = (h ^ x) * 1099511628211ULL;
  };
  const auto mix_str = [&](const std::string& s) {
    mix(s.size());
    for (const char c : s) mix(static_cast<unsigned char>(c));
  };
  mix(vs.size());
  for (const Violation& v : vs) {
    mix_str(v.rule);
    mix_str(v.detail);
    mix(static_cast<std::uint64_t>(v.where.x0));
    mix(static_cast<std::uint64_t>(v.where.y0));
    mix(static_cast<std::uint64_t>(v.where.x1));
    mix(static_cast<std::uint64_t>(v.where.y1));
    mix(static_cast<std::uint64_t>(v.anchor.x));
    mix(static_cast<std::uint64_t>(v.anchor.y));
  }
  return h;
}

}  // namespace

VerdictCache::Key VerdictCache::key_for(const layout::Cell& c,
                                        const Tech& technology) {
  return {technology.drc_signature(), layout::geometry_hash(c),
          c.flat_shape_count(), c.bbox()};
}

std::shared_ptr<const std::vector<Violation>> VerdictCache::find(
    const Key& k) const {
  const std::lock_guard<std::mutex> lk(m_);
  const auto it = map_.find(k);
  if (it == map_.end()) {
    ++misses_;
    SILC_OBS_COUNT("drc.cache.misses", 1);
    SILC_OBS_INSTANT("drc.cache.miss", "cache");
    return nullptr;
  }
  if (verdict_checksum(*it->second.verdict) != it->second.checksum) {
    // Poisoned entry (memory corruption or an injected fault): evict and
    // report a miss, so the caller recomputes — degradation is a slower
    // check, never a wrong verdict.
    ++poisoned_;
    ++misses_;
    bytes_ -= it->second.bytes;
    SILC_OBS_COUNT("drc.cache.poisoned", 1);
    SILC_OBS_COUNT("drc.cache.bytes",
                   -static_cast<long long>(it->second.bytes));
    SILC_OBS_COUNT("drc.cache.misses", 1);
    SILC_OBS_INSTANT("drc.cache.poisoned", "cache");
    map_.erase(it);
    return nullptr;
  }
  ++hits_;
  it->second.last_use = ++clock_;
  SILC_OBS_COUNT("drc.cache.hits", 1);
  SILC_OBS_INSTANT("drc.cache.hit", "cache");
  return it->second.verdict;
}

std::shared_ptr<const std::vector<Violation>> VerdictCache::store(
    const Key& k, std::vector<Violation> violations) {
  auto v = std::make_shared<const std::vector<Violation>>(std::move(violations));
  const std::uint64_t bytes = verdict_bytes(*v);
  std::uint64_t checksum = verdict_checksum(*v);
  if (SILC_FAULT_CORRUPT_AT("drc.cache.store")) {
    // Injected poisoning flips the stored checksum (never the payload —
    // concurrent readers may hold it); find() must detect and evict.
    checksum ^= 0x5a5a5a5a5a5a5a5aULL;
  }
  const std::lock_guard<std::mutex> lk(m_);
  const auto [it, fresh] =
      map_.emplace(k, Entry{std::move(v), bytes, checksum, ++clock_});
  if (fresh) {
    bytes_ += bytes;
    SILC_OBS_COUNT("drc.cache.bytes", bytes);
    evict_overflow_locked();
  }
  return it->second.verdict;  // first writer wins on a race
}

void VerdictCache::set_capacity(std::size_t max_entries) {
  const std::lock_guard<std::mutex> lk(m_);
  capacity_ = max_entries;
  evict_overflow_locked();
}

void VerdictCache::evict_overflow_locked() {
  while (capacity_ > 0 && map_.size() > capacity_) {
    auto victim = map_.begin();
    for (auto it = map_.begin(); it != map_.end(); ++it) {
      if (it->second.last_use < victim->second.last_use) victim = it;
    }
    bytes_ -= victim->second.bytes;
    SILC_OBS_COUNT("drc.cache.bytes", -static_cast<long long>(victim->second.bytes));
    map_.erase(victim);
    ++evictions_;
    SILC_OBS_COUNT("drc.cache.evictions", 1);
  }
}

obs::CacheStats VerdictCache::stats() const {
  const std::lock_guard<std::mutex> lk(m_);
  return {hits_, misses_, evictions_, map_.size(), bytes_};
}

std::size_t VerdictCache::size() const {
  const std::lock_guard<std::mutex> lk(m_);
  return map_.size();
}

std::uint64_t VerdictCache::hits() const {
  const std::lock_guard<std::mutex> lk(m_);
  return hits_;
}

std::uint64_t VerdictCache::misses() const {
  const std::lock_guard<std::mutex> lk(m_);
  return misses_;
}

std::uint64_t VerdictCache::poisoned() const {
  const std::lock_guard<std::mutex> lk(m_);
  return poisoned_;
}

// Persistence: field-by-field serialization (never raw structs) into the
// store's "drc" stream. Any encoding change here requires a
// store::kSchemaVersion bump (see store/store.hpp).

void VerdictCache::save_to(store::Store& s) const {
  const std::lock_guard<std::mutex> lk(m_);
  for (const auto& [k, e] : map_) {
    store::Writer kw;
    kw.u64(k.tech_sig);
    kw.u64(k.hash);
    kw.u64(k.shapes);
    kw.rect(k.bbox);
    store::Writer pw;
    pw.u64(e.verdict->size());
    for (const Violation& v : *e.verdict) {
      pw.str(v.rule);
      pw.rect(v.where);
      pw.str(v.detail);
      pw.point(v.anchor);
    }
    s.put("drc", kw.take(), pw.take());
  }
}

void VerdictCache::load_from(const store::Store& s) {
  s.for_each("drc", [this](const std::string& key, const std::string& payload) {
    store::Reader kr(key);
    Key k;
    k.tech_sig = kr.u64();
    k.hash = kr.u64();
    k.shapes = kr.u64();
    k.bbox = kr.rect();
    store::Reader pr(payload);
    const std::uint64_t n = pr.u64();
    if (!kr.done() || !pr.ok() || n > pr.remaining()) return;
    std::vector<Violation> vs;
    vs.reserve(n);
    for (std::uint64_t i = 0; i < n; ++i) {
      Violation v;
      v.rule = pr.str();
      v.where = pr.rect();
      v.detail = pr.str();
      v.anchor = pr.point();
      vs.push_back(std::move(v));
    }
    if (!pr.done()) return;  // malformed record: skip, never a wrong verdict
    store(k, std::move(vs));
  });
}

// ------------------------------------------------------------ entry points --

Result check_flat(const std::vector<Shape>& shapes, const Tech& technology) {
  const RuleEngine engine(technology);
  LayerTable table(shapes, technology);
  Result r;
  engine.run(table, r);
  r.canonicalize();
  return r;
}

Result check(const layout::Cell& top, const Tech& technology) {
  return check_flat(layout::flatten(top), technology);
}

Result check_hier(const layout::Cell& top, const Tech& technology,
                  VerdictCache* cache) {
  // With no cache there is nothing to look up or keep: no key, no
  // checksummed store, only the miss a cold run still counts.
  VerdictCache::Key key;
  if (cache == nullptr) {
    SILC_OBS_COUNT("drc.cache.misses", 1);
  } else {
    key = VerdictCache::key_for(top, technology);
    if (const auto hit = cache->find(key)) return Result{*hit};
  }
  SILC_OBS_SPAN("drc.cell:" + top.name(), "drc");
  SILC_OBS_COUNT("drc.cells", 1);
  core::check_cancel("drc.hier.cell");
  SILC_FAULT_POINT("drc.hier.cell");
  Result r = check(top, technology);
  if (cache != nullptr) cache->store(key, r.violations);
  return r;
}

}  // namespace silc::drc
