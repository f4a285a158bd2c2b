#include "drc/drc.hpp"

#include <algorithm>
#include <sstream>

#include "core/cancel.hpp"
#include "drc/rules.hpp"
#include "fault/fault.hpp"
#include "geom/fnv.hpp"

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

std::uint64_t VerdictTraits::bytes(const Value& vs) {
  std::uint64_t b = sizeof(std::vector<Violation>);
  for (const Violation& v : vs) {
    b += sizeof(Violation) + v.rule.size() + v.detail.size();
  }
  return b;
}

/// Content hash over the fields that define a verdict (never raw struct
/// bytes — padding is indeterminate). FNV-1a, same flavour the layout
/// hashes use.
std::uint64_t VerdictTraits::checksum(const Value& vs) {
  geom::Fnv f;
  f.mix(vs.size());
  for (const Violation& v : vs) {
    f.mix_str(v.rule);
    f.mix_str(v.detail);
    f.mix(static_cast<std::uint64_t>(v.where.x0));
    f.mix(static_cast<std::uint64_t>(v.where.y0));
    f.mix(static_cast<std::uint64_t>(v.where.x1));
    f.mix(static_cast<std::uint64_t>(v.where.y1));
    f.mix(static_cast<std::uint64_t>(v.anchor.x));
    f.mix(static_cast<std::uint64_t>(v.anchor.y));
  }
  return f.h;
}

// Persistence: field-by-field serialization (never raw structs) into the
// store's "drc" stream.

void VerdictTraits::encode_key(store::Writer& w, const Key& k) {
  w.u64(k.tech_sig);
  w.u64(k.hash);
  w.u64(k.shapes);
  w.rect(k.bbox);
}

VerdictKey VerdictTraits::decode_key(store::Reader& r) {
  Key k;
  k.tech_sig = r.u64();
  k.hash = r.u64();
  k.shapes = r.u64();
  k.bbox = r.rect();
  return k;
}

std::string VerdictTraits::encode(const Value& vs) {
  store::Writer w;
  w.u64(vs.size());
  for (const Violation& v : vs) {
    w.str(v.rule);
    w.rect(v.where);
    w.str(v.detail);
    w.point(v.anchor);
  }
  return w.take();
}

std::shared_ptr<const std::vector<Violation>> VerdictTraits::decode(
    const std::string& payload) {
  store::Reader r(payload);
  const std::uint64_t n = r.u64();
  if (!r.ok() || n > r.remaining()) return nullptr;
  auto vs = std::make_shared<std::vector<Violation>>();
  vs->reserve(n);
  for (std::uint64_t i = 0; i < n; ++i) {
    Violation v;
    v.rule = r.str();
    v.where = r.rect();
    v.detail = r.str();
    v.anchor = r.point();
    vs->push_back(std::move(v));
  }
  if (!r.done()) return nullptr;  // malformed record: skip, never a wrong verdict
  return vs;
}

VerdictCache::Key VerdictCache::key_for(const layout::Cell& c,
                                        const Tech& technology) {
  return {technology.drc_signature(), layout::geometry_hash(c),
          c.flat_shape_count(), c.bbox()};
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
