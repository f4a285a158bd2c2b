#include "layout/layout.hpp"

#include <cassert>
#include <map>
#include <set>
#include <stdexcept>

#include "geom/fnv.hpp"
#include "geom/rectset.hpp"

namespace silc::layout {

void Cell::touched() {
  bbox_valid_ = false;
  if (placed_) ++*epoch_;
}

void Cell::add_rect(Layer layer, const Rect& r) {
  if (r.empty()) return;
  shapes_.push_back({layer, r});
  touched();
}

namespace {

/// True when `target` is reachable through `from`'s instance subtree
/// (including `from` itself). Hierarchies are DAGs; `seen` bounds the walk
/// even if a cycle already slipped in through another path.
bool reaches(const Cell& from, const Cell& target,
             std::set<const Cell*>& seen) {
  if (&from == &target) return true;
  if (!seen.insert(&from).second) return false;
  for (const Instance& i : from.instances()) {
    if (reaches(*i.cell, target, seen)) return true;
  }
  return false;
}

}  // namespace

Instance& Cell::add_instance(const Cell& cell, const Transform& t,
                             std::string inst_name) {
  // A placement that closes a cycle (self-placement, or placing an
  // ancestor) would make bbox/flatten/hash recurse forever; refuse it
  // here so every caller — the layout language's place() included —
  // gets a structured error instead of a stack overflow.
  std::set<const Cell*> seen;
  if (reaches(cell, *this, seen)) {
    throw std::invalid_argument("recursive placement: cell '" + name_ +
                                "' cannot instantiate '" + cell.name() +
                                "', which (transitively) contains it");
  }
  if (inst_name.empty()) {
    inst_name = cell.name() + "_" + std::to_string(instances_.size());
  }
  instances_.push_back({&cell, t, std::move(inst_name)});
  cell.placed_ = true;
  touched();
  return instances_.back();
}

void Cell::add_port(std::string name, Layer layer, const Rect& r) {
  ports_.push_back({std::move(name), layer, r});
}

void Cell::add_label(std::string text, Layer layer, Point at) {
  labels_.push_back({std::move(text), layer, at});
}

namespace {

void check_index(std::size_t i, std::size_t n, const char* what) {
  if (i >= n) {
    throw std::out_of_range(std::string(what) + " index " + std::to_string(i) +
                            " out of range (size " + std::to_string(n) + ")");
  }
}

}  // namespace

void Cell::set_shape(std::size_t i, const Shape& s) {
  check_index(i, shapes_.size(), "shape");
  if (s.rect.empty()) {
    throw std::invalid_argument("set_shape: empty rect (use remove_shape)");
  }
  shapes_[i] = s;
  touched();
}

void Cell::remove_shape(std::size_t i) {
  check_index(i, shapes_.size(), "shape");
  shapes_.erase(shapes_.begin() + static_cast<std::ptrdiff_t>(i));
  touched();
}

void Cell::remove_instance(std::size_t i) {
  check_index(i, instances_.size(), "instance");
  instances_.erase(instances_.begin() + static_cast<std::ptrdiff_t>(i));
  touched();
}

void Cell::set_instance_name(std::size_t i, std::string inst_name) {
  check_index(i, instances_.size(), "instance");
  instances_[i].name = std::move(inst_name);
}

void Cell::set_label_text(std::size_t i, std::string text) {
  check_index(i, labels_.size(), "label");
  labels_[i].text = std::move(text);
}

const Port* Cell::find_port(const std::string& name) const {
  for (const Port& p : ports_) {
    if (p.name == name) return &p;
  }
  return nullptr;
}

Rect Cell::port_rect(const Instance& inst, const Port& port) {
  return inst.transform.apply(port.rect);
}

Rect Cell::bbox() const {
  if (bbox_valid_ && bbox_epoch_ == *epoch_) return bbox_cache_;
  Rect b;
  for (const Shape& s : shapes_) b = b.bound(s.rect);
  for (const Instance& i : instances_) {
    b = b.bound(i.transform.apply(i.cell->bbox()));
  }
  bbox_cache_ = b;
  bbox_valid_ = true;
  bbox_epoch_ = *epoch_;
  return b;
}

std::size_t Cell::flat_shape_count() const {
  std::size_t n = shapes_.size();
  for (const Instance& i : instances_) n += i.cell->flat_shape_count();
  return n;
}

Cell& Library::create(const std::string& name) {
  std::string unique = name;
  int suffix = 1;
  while (by_name_.count(unique) != 0) {
    unique = name + "_" + std::to_string(suffix++);
  }
  cells_.push_back(std::make_unique<Cell>(unique));
  Cell& c = *cells_.back();
  c.epoch_ = epoch_;
  by_name_[unique] = &c;
  return c;
}

Cell* Library::find(const std::string& name) {
  auto it = by_name_.find(name);
  return it == by_name_.end() ? nullptr : it->second;
}

const Cell* Library::find(const std::string& name) const {
  auto it = by_name_.find(name);
  return it == by_name_.end() ? nullptr : it->second;
}

std::vector<const Cell*> Library::cells() const {
  std::vector<const Cell*> out;
  out.reserve(cells_.size());
  for (const auto& c : cells_) out.push_back(c.get());
  return out;
}

namespace {

void flatten_into(const Cell& cell, const Transform& t, const std::string& prefix,
                  std::vector<Shape>& shapes, std::vector<FlatLabel>* labels) {
  for (const Shape& s : cell.shapes()) {
    shapes.push_back({s.layer, t.apply(s.rect)});
  }
  if (labels != nullptr) {
    for (const TextLabel& l : cell.labels()) {
      labels->push_back({prefix.empty() ? l.text : prefix + l.text, l.layer,
                         t.apply(l.at)});
    }
  }
  for (const Instance& i : cell.instances()) {
    flatten_into(*i.cell, t * i.transform,
                 labels != nullptr ? prefix + i.name + "." : prefix, shapes,
                 labels);
  }
}

}  // namespace

std::vector<Shape> flatten(const Cell& top) {
  std::vector<Shape> shapes;
  shapes.reserve(top.flat_shape_count());
  flatten_into(top, Transform{}, "", shapes, nullptr);
  return shapes;
}

Flattened flatten_with_labels(const Cell& top) {
  Flattened out;
  out.shapes.reserve(top.flat_shape_count());
  flatten_into(top, Transform{}, "", out.shapes, &out.labels);
  for (const Port& p : top.ports()) {
    out.labels.push_back({p.name, p.layer, p.rect.center()});
  }
  return out;
}

namespace {

void visit(const Cell& c, std::set<const Cell*>& seen,
           std::vector<const Cell*>& order) {
  if (!seen.insert(&c).second) return;
  for (const Instance& i : c.instances()) visit(*i.cell, seen, order);
  order.push_back(&c);
}

}  // namespace

std::vector<const Cell*> dependency_order(const Cell& top) {
  std::set<const Cell*> seen;
  std::vector<const Cell*> order;
  visit(top, seen, order);
  return order;
}

namespace {

std::uint64_t hash_cell(const Cell& c, std::map<const Cell*, std::uint64_t>& memo) {
  const auto it = memo.find(&c);
  if (it != memo.end()) return it->second;
  geom::Fnv f;
  f.mix(c.shapes().size());
  for (const Shape& s : c.shapes()) {
    f.mix(static_cast<std::uint64_t>(s.layer));
    f.mix(static_cast<std::uint64_t>(s.rect.x0));
    f.mix(static_cast<std::uint64_t>(s.rect.y0));
    f.mix(static_cast<std::uint64_t>(s.rect.x1));
    f.mix(static_cast<std::uint64_t>(s.rect.y1));
  }
  f.mix(c.instances().size());
  for (const Instance& i : c.instances()) {
    f.mix(hash_cell(*i.cell, memo));
    f.mix(static_cast<std::uint64_t>(i.transform.orient));
    f.mix(static_cast<std::uint64_t>(i.transform.offset.x));
    f.mix(static_cast<std::uint64_t>(i.transform.offset.y));
  }
  memo.emplace(&c, f.h);
  return f.h;
}

}  // namespace

std::uint64_t geometry_hash(const Cell& top) {
  std::map<const Cell*, std::uint64_t> memo;
  return hash_cell(top, memo);
}

namespace {

std::uint64_t naming_hash_cell(const Cell& c,
                               std::map<const Cell*, std::uint64_t>& memo) {
  const auto it = memo.find(&c);
  if (it != memo.end()) return it->second;
  geom::Fnv f;
  f.mix(c.labels().size());
  for (const TextLabel& l : c.labels()) {
    f.mix_str(l.text);
    f.mix(static_cast<std::uint64_t>(l.layer));
    f.mix(static_cast<std::uint64_t>(l.at.x));
    f.mix(static_cast<std::uint64_t>(l.at.y));
  }
  f.mix(c.instances().size());
  for (const Instance& i : c.instances()) {
    f.mix_str(i.name);
    f.mix(naming_hash_cell(*i.cell, memo));
  }
  memo.emplace(&c, f.h);
  return f.h;
}

}  // namespace

std::uint64_t naming_hash(const Cell& top) {
  std::map<const Cell*, std::uint64_t> memo;
  return naming_hash_cell(top, memo);
}

void collect_shapes_near(const Cell& top, const geom::Transform& t,
                         const geom::RectSet& near, std::vector<Shape>& out) {
  for (const Shape& s : top.shapes()) {
    const Rect r = t.apply(s.rect);
    if (near.touches(r)) out.push_back({s.layer, r});
  }
  for (const Instance& i : top.instances()) {
    const Transform ct = t * i.transform;
    if (!near.touches(ct.apply(i.cell->bbox()))) continue;
    collect_shapes_near(*i.cell, ct, near, out);
  }
}

}  // namespace silc::layout
