#include "extract/extract.hpp"

#include <algorithm>
#include <numeric>
#include <tuple>

#include "extract/connect.hpp"

namespace silc::extract {

using detail::Connectivity;
using detail::RawLayers;
using geom::Point;
using geom::Rect;
using tech::Layer;

int Netlist::find_node(const std::string& name) const {
  for (std::size_t i = 0; i < node_names.size(); ++i) {
    if (node_names[i] == name) return static_cast<int>(i);
  }
  for (std::size_t i = 0; i < node_aliases.size(); ++i) {
    for (const std::string& a : node_aliases[i]) {
      if (a == name) return static_cast<int>(i);
    }
  }
  return -1;
}

bool Netlist::is_vdd(int node) const {
  return std::find(vdd_nodes.begin(), vdd_nodes.end(), node) != vdd_nodes.end();
}

bool Netlist::is_gnd(int node) const {
  return std::find(gnd_nodes.begin(), gnd_nodes.end(), node) != gnd_nodes.end();
}

std::size_t Netlist::enhancement_count() const {
  return static_cast<std::size_t>(
      std::count_if(transistors.begin(), transistors.end(),
                    [](const Transistor& t) { return t.type == Device::Enhancement; }));
}

std::size_t Netlist::depletion_count() const {
  return transistors.size() - enhancement_count();
}

std::string Netlist::summary() const {
  const std::size_t enh = enhancement_count();
  std::string s = std::to_string(node_count()) + " nodes, " +
                  std::to_string(transistors.size()) + " transistors (" +
                  std::to_string(enh) + " enh + " +
                  std::to_string(transistors.size() - enh) + " dep)";
  if (!warnings.empty()) {
    s += ", " + std::to_string(warnings.size()) + " warnings";
  }
  return s;
}

void Netlist::canonicalize() {
  const std::size_t n = node_count();
  if (node_anchors.size() != n) return;  // hand-built netlist: nothing to do

  // Renumber nodes by ascending intrinsic anchor. Anchors of distinct
  // extracted nodes are distinct (two regions sharing a layer cannot share
  // a bottom-left corner without overlapping); the old id tiebreak only
  // matters for netlists built outside the extractors.
  std::vector<int> order(n);
  std::iota(order.begin(), order.end(), 0);
  std::sort(order.begin(), order.end(), [&](int a, int b) {
    const NodeAnchor& aa = node_anchors[static_cast<std::size_t>(a)];
    const NodeAnchor& ab = node_anchors[static_cast<std::size_t>(b)];
    if (aa == ab) return a < b;
    return aa < ab;
  });
  std::vector<int> newid(n);
  for (std::size_t i = 0; i < n; ++i) {
    newid[static_cast<std::size_t>(order[i])] = static_cast<int>(i);
  }

  std::vector<std::vector<std::string>> aliases(n);
  std::vector<NodeAnchor> anchors(n);
  for (std::size_t old = 0; old < n; ++old) {
    const auto at = static_cast<std::size_t>(newid[old]);
    aliases[at] = std::move(node_aliases[old]);
    anchors[at] = node_anchors[old];
  }
  node_aliases = std::move(aliases);
  node_anchors = std::move(anchors);

  // Names and supply rails re-derive from the sorted aliases: the primary
  // name is the shortest (then lexicographically least) alias, so naming
  // never depends on label discovery order.
  node_names.assign(n, "");
  vdd_nodes.clear();
  gnd_nodes.clear();
  for (std::size_t i = 0; i < n; ++i) {
    auto& as = node_aliases[i];
    std::sort(as.begin(), as.end());
    as.erase(std::unique(as.begin(), as.end()), as.end());
    std::string primary;
    bool vdd = false, gnd = false;
    for (const std::string& a : as) {
      if (primary.empty() || a.size() < primary.size() ||
          (a.size() == primary.size() && a < primary)) {
        primary = a;
      }
      vdd = vdd || detail::is_vdd_name(a);
      gnd = gnd || detail::is_gnd_name(a);
    }
    node_names[i] = primary.empty() ? "n" + std::to_string(i) : primary;
    if (vdd) vdd_nodes.push_back(static_cast<int>(i));
    if (gnd) gnd_nodes.push_back(static_cast<int>(i));
  }

  const auto remap = [&](int node) {
    return node < 0 ? node : newid[static_cast<std::size_t>(node)];
  };
  for (Transistor& t : transistors) {
    t.gate = remap(t.gate);
    t.source = remap(t.source);
    t.drain = remap(t.drain);
  }
  std::sort(transistors.begin(), transistors.end(),
            [](const Transistor& a, const Transistor& b) {
              const auto key = [](const Transistor& t) {
                return std::tuple(t.channel.y0, t.channel.x0, t.channel.y1,
                                  t.channel.x1, t.vertical,
                                  static_cast<int>(t.type), t.gate, t.source,
                                  t.drain, t.width, t.length);
              };
              return key(a) < key(b);
            });
  std::sort(warnings.begin(), warnings.end());
}

std::string to_text(const Netlist& nl) {
  std::string out = "silc-netlist v1\n";
  out += "nodes " + std::to_string(nl.node_count()) + " transistors " +
         std::to_string(nl.transistors.size()) + " warnings " +
         std::to_string(nl.warnings.size()) + "\n";
  const char* cls_name[] = {"diff", "poly", "metal"};
  for (std::size_t i = 0; i < nl.node_count(); ++i) {
    out += "node " + std::to_string(i) + " " + nl.node_names[i];
    if (i < nl.node_anchors.size()) {
      const NodeAnchor& a = nl.node_anchors[i];
      out += " anchor=" + std::string(cls_name[a.layer % 3]) + ":(" +
             std::to_string(a.x) + "," + std::to_string(a.y) + ")";
    }
    if (nl.is_vdd(static_cast<int>(i))) out += " vdd";
    if (nl.is_gnd(static_cast<int>(i))) out += " gnd";
    if (!nl.node_aliases[i].empty()) {
      out += " aliases=";
      for (std::size_t k = 0; k < nl.node_aliases[i].size(); ++k) {
        if (k > 0) out += ",";
        out += nl.node_aliases[i][k];
      }
    }
    out += "\n";
  }
  for (std::size_t i = 0; i < nl.transistors.size(); ++i) {
    const Transistor& t = nl.transistors[i];
    out += "t " + std::to_string(i) +
           (t.type == Device::Depletion ? " dep" : " enh") + " g=" +
           std::to_string(t.gate) + " s=" + std::to_string(t.source) + " d=" +
           std::to_string(t.drain) + " w=" + std::to_string(t.width) + " l=" +
           std::to_string(t.length) + " ch=" + geom::to_string(t.channel) +
           (t.vertical ? " v" : " h") + "\n";
  }
  for (const std::string& w : nl.warnings) out += "warn " + w + "\n";
  return out;
}

Netlist extract(const layout::Cell& top, const tech::Tech& technology) {
  return extract_flat(layout::flatten_with_labels(top), technology);
}

Netlist extract_flat(const layout::Flattened& flat, const tech::Tech& technology) {
  (void)technology;
  const Connectivity c = connect(RawLayers::from_shapes(flat.shapes));

  Netlist out;
  const auto n = static_cast<std::size_t>(c.node_count);
  out.node_names.assign(n, "");
  out.node_aliases.assign(n, {});
  out.node_anchors = c.anchors;
  out.transistors.reserve(c.protos.size());
  for (const detail::ProtoTransistor& p : c.protos) {
    out.transistors.push_back(detail::resolve_proto(p, c.anchors));
  }

  // Names from labels: each label attaches to the node whose conducting
  // piece on the label's layer contains the point (smallest anchor wins if
  // the point sits on a shared corner of distinct nets).
  const geom::RectGrid grids[detail::kClasses] = {
      geom::RectGrid(c.rects[detail::kDiff]),
      geom::RectGrid(c.rects[detail::kPoly]),
      geom::RectGrid(c.rects[detail::kMetal])};
  std::vector<std::string> warning_texts;
  for (const detail::Warning& w : c.warnings) warning_texts.push_back(w.render());
  for (const layout::FlatLabel& label : flat.labels) {
    const int cls = detail::class_of(label.layer);
    std::vector<int> cands;
    if (cls >= 0) {
      const Rect probe{label.at.x, label.at.y, label.at.x, label.at.y};
      grids[cls].for_touching(c.rects[cls], probe, [&](int i) {
        if (c.rects[cls][static_cast<std::size_t>(i)].contains(label.at)) {
          cands.push_back(c.node_of[cls][static_cast<std::size_t>(i)]);
        }
      });
    }
    const int node = detail::pick_candidate(cands, c.anchors);
    if (node < 0) {
      warning_texts.push_back(
          detail::Warning{detail::Warning::Kind::LabelMiss, {}, label.text,
                          label.layer}
              .render());
      continue;
    }
    out.node_aliases[static_cast<std::size_t>(node)].push_back(label.text);
  }
  out.warnings = std::move(warning_texts);
  out.canonicalize();
  return out;
}

}  // namespace silc::extract
