// Hierarchical layout database.
//
// Cells own geometry (layer rectangles), named connection points (ports),
// text labels, and transformed instances of other cells. A Library owns the
// cells; instance pointers refer to library-owned cells, which therefore must
// outlive any cell that instantiates them (the Library guarantees this).
//
// This is the "physical description" of the paper's three-description model;
// the unification of structural and physical hierarchy (Mead [1]) is exactly
// a Cell tree whose instances mirror the structural decomposition.
#pragma once

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "geom/geom.hpp"
#include "tech/tech.hpp"

namespace silc::geom {
class RectSet;  // geom/rectset.hpp (collect_shapes_near takes a region)
}  // namespace silc::geom

namespace silc::layout {

using geom::Coord;
using geom::Point;
using geom::Rect;
using geom::Transform;
using tech::Layer;

struct Shape {
  Layer layer{};
  Rect rect{};
};

/// A named connection point: a rectangle on a conducting layer where a wire
/// may legally attach (typically a full-width wire stub on the cell border).
struct Port {
  std::string name;
  Layer layer{};
  Rect rect{};
};

struct TextLabel {
  std::string text;
  Layer layer{};
  Point at{};
};

class Cell;

struct Instance {
  const Cell* cell = nullptr;
  Transform transform{};
  std::string name;
};

class Cell {
 public:
  explicit Cell(std::string name) : name_(std::move(name)) {}

  Cell(const Cell&) = delete;
  Cell& operator=(const Cell&) = delete;

  [[nodiscard]] const std::string& name() const { return name_; }

  void add_rect(Layer layer, const Rect& r);
  void add_shape(const Shape& s) { add_rect(s.layer, s.rect); }
  Instance& add_instance(const Cell& cell, const Transform& t,
                         std::string inst_name = "");
  void add_port(std::string name, Layer layer, const Rect& r);
  void add_label(std::string text, Layer layer, Point at);

  // Edit mutators (incremental recompilation, PR 10). Indices address the
  // vectors returned by shapes()/instances()/labels(); out-of-range indices
  // throw std::out_of_range so a bad editing script fails loudly instead of
  // silently editing nothing. Geometry edits invalidate the bbox cache;
  // naming edits deliberately do not.
  void set_shape(std::size_t i, const Shape& s);
  void remove_shape(std::size_t i);
  void remove_instance(std::size_t i);
  void set_instance_name(std::size_t i, std::string inst_name);
  void set_label_text(std::size_t i, std::string text);

  [[nodiscard]] const std::vector<Shape>& shapes() const { return shapes_; }
  [[nodiscard]] const std::vector<Instance>& instances() const { return instances_; }
  [[nodiscard]] const std::vector<Port>& ports() const { return ports_; }
  [[nodiscard]] const std::vector<TextLabel>& labels() const { return labels_; }

  /// Port lookup by name; returns nullptr when absent.
  [[nodiscard]] const Port* find_port(const std::string& name) const;
  /// Port rect of an instance's port, in this cell's coordinates.
  [[nodiscard]] static Rect port_rect(const Instance& inst, const Port& port);

  /// Bounding box over own shapes and all instances. Cached; the cache
  /// also drops when any placed cell of the same library changes geometry,
  /// so a parent never reports a bbox its edited child has outgrown.
  [[nodiscard]] Rect bbox() const;

  /// Total number of rectangles in the fully flattened cell.
  [[nodiscard]] std::size_t flat_shape_count() const;

 private:
  std::string name_;
  std::vector<Shape> shapes_;
  std::vector<Instance> instances_;
  std::vector<Port> ports_;
  std::vector<TextLabel> labels_;
  friend class Library;
  /// Own geometry changed: drop the own bbox cache, and every cache in the
  /// library when some cell places this one.
  void touched();

  mutable Rect bbox_cache_{};
  mutable bool bbox_valid_ = false;
  mutable std::uint64_t bbox_epoch_ = 0;
  /// The library's geometry epoch, shared by all its cells.
  std::shared_ptr<std::uint64_t> epoch_ = std::make_shared<std::uint64_t>(1);
  /// Some cell instantiates this one (never reset: conservative).
  mutable bool placed_ = false;
};

/// Owns cells; names are unique within a library.
class Library {
 public:
  explicit Library(std::string name = "lib") : name_(std::move(name)) {}

  /// Create a cell; if the name is taken, a unique suffix is appended.
  Cell& create(const std::string& name);
  [[nodiscard]] Cell* find(const std::string& name);
  [[nodiscard]] const Cell* find(const std::string& name) const;
  [[nodiscard]] const std::string& name() const { return name_; }
  [[nodiscard]] std::vector<const Cell*> cells() const;
  [[nodiscard]] std::size_t size() const { return cells_.size(); }

 private:
  std::string name_;
  std::shared_ptr<std::uint64_t> epoch_ = std::make_shared<std::uint64_t>(1);
  std::vector<std::unique_ptr<Cell>> cells_;
  std::map<std::string, Cell*> by_name_;
};

/// A label with its flattened position and hierarchical name
/// ("alu.bit3.out").
struct FlatLabel {
  std::string text;
  Layer layer{};
  Point at{};
};

/// Fully flattened geometry of `top` (all shapes in top coordinates).
[[nodiscard]] std::vector<Shape> flatten(const Cell& top);

/// Flatten with hierarchical labels; port rects of the top cell are also
/// emitted as labels at the port-rect center (extraction uses these to name
/// electrical nodes).
struct Flattened {
  std::vector<Shape> shapes;
  std::vector<FlatLabel> labels;
};
[[nodiscard]] Flattened flatten_with_labels(const Cell& top);

/// Cells reachable from `top` (including `top`), each listed once,
/// children before parents (a valid CIF emission order).
[[nodiscard]] std::vector<const Cell*> dependency_order(const Cell& top);

/// Content hash of a cell's mask geometry: own shapes plus, recursively,
/// each instance's (child hash, transform). Ports and labels are excluded
/// — two cells with identical drawn geometry hash equal even across
/// libraries, which is what keys the DRC per-cell verdict cache. Shared
/// subtrees are memoized, so the cost is linear in unique cells.
[[nodiscard]] std::uint64_t geometry_hash(const Cell& top);

/// Content hash of everything that names electrical nodes but is invisible
/// to geometry_hash: own text labels (text, layer, position) plus,
/// recursively, each instance's (name, child naming hash). Extraction
/// results depend on labels and on the instance names that prefix them
/// ("alu.bit3.out"), so the per-cell netlist cache keys on this hash *and*
/// geometry_hash — two cells with equal geometry but different labelling
/// must not share a cached netlist. Memoized like geometry_hash.
[[nodiscard]] std::uint64_t naming_hash(const Cell& top);

/// Flatten-on-demand, restricted: append to `out` every shape of the
/// subtree under `top` (pre-transformed by `t`) whose transformed rect
/// meets the closed region `near`, descending only into instances whose
/// transformed bounding box meets it. This is the gather primitive
/// windowed hierarchical analyses use instead of a full flatten.
void collect_shapes_near(const Cell& top, const geom::Transform& t,
                         const geom::RectSet& near, std::vector<Shape>& out);

}  // namespace silc::layout
