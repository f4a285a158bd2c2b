#include "assemble/assemble.hpp"

#include <stdexcept>

#include "cells/cells.hpp"

namespace silc::assemble {

using geom::Coord;
using geom::Orient;
using geom::Rect;
using layout::Cell;
using layout::Library;
using route::Pin;
using tech::Layer;

namespace {

constexpr Coord kPairPitch = 192;  // master+slave shift stages per state bit
constexpr Coord kStagePitch = 76;  // master to slave offset

void cut_with_pads(Cell& c, Coord x, Coord y, Layer conductor) {
  c.add_rect(Layer::Contact, {x, y, x + 4, y + 4});
  c.add_rect(Layer::Metal, {x - 2, y - 2, x + 6, y + 6});
  c.add_rect(conductor, {x - 2, y - 2, x + 6, y + 6});
}

}  // namespace

FsmChipResult assemble_fsm_chip(Library& lib, const synth::TabulatedFsm& fsm,
                                const FsmChipOptions& options) {
  const int ni = fsm.function.num_inputs;                 // PLA inputs
  const int no = static_cast<int>(fsm.function.outputs.size());
  const int sb = fsm.state_bits;
  const int nx = ni - sb;  // external inputs
  const int ny = no - sb;  // external outputs
  if (sb < 0 || nx < 0 || ny < 0) throw std::invalid_argument("bad FSM shape");

  FsmChipResult result;
  Cell& chip = lib.create(options.name);
  result.chip = &chip;
  FsmChipStats& st = result.stats;
  st.state_bits = sb;
  st.external_inputs = nx;
  st.external_outputs = ny;

  // ---- the PLA core at the origin ----
  const pla::PlaResult p =
      pla::generate(lib, fsm.function, {.name = options.name + "_pla"});
  chip.add_instance(*p.cell, {Orient::R0, {0, 0}}, "pla");
  st.pla = p.stats;
  result.personality = p.personality;

  const Coord pla_top = p.cell->find_port("in0")->rect.y1;
  const Coord rx = p.cell->find_port("out0")->rect.x1;
  const Rect vdd_port = p.cell->find_port("vdd")->rect;  // [-1,7] x [vy,vy+6]

  std::vector<Coord> in_pin_x(static_cast<std::size_t>(ni));
  for (int i = 0; i < ni; ++i) {
    in_pin_x[static_cast<std::size_t>(i)] =
        p.cell->find_port("in" + std::to_string(i))->rect.x0;
  }
  std::vector<Coord> out_row_y(static_cast<std::size_t>(no));
  for (int k = 0; k < no; ++k) {
    out_row_y[static_cast<std::size_t>(k)] =
        p.cell->find_port("out" + std::to_string(k))->rect.y0;
  }

  // ---- output riser fan: metal extensions + poly risers, nested so the
  //      lowest row gets the rightmost riser and nothing crosses ----
  const Coord ch_y0 = pla_top;  // channel sits directly on the PLA top edge
  std::vector<Coord> riser_x(static_cast<std::size_t>(no));
  for (int k = 0; k < no; ++k) {
    const Coord xr = rx + 8 + (no - 1 - k) * route::kLegPitch;
    riser_x[static_cast<std::size_t>(k)] = xr;
    const Coord oy = out_row_y[static_cast<std::size_t>(k)];
    chip.add_rect(Layer::Metal, {rx, oy, xr + 6, oy + 6});
    cut_with_pads(chip, xr, oy + 1, Layer::Poly);
    chip.add_rect(Layer::Poly, {xr, oy + 3, xr + 4, ch_y0});
  }

  // ---- net numbering ----
  // s<k> = current state (slave out -> PLA in), ns<k> = next state (PLA out
  // -> master in), x<j>, y<m>, phi1, phi2.
  const auto net_s = [](int k) { return k; };
  const auto net_ns = [sb](int k) { return sb + k; };
  const auto net_x = [sb](int j) { return 2 * sb + j; };
  const auto net_y = [sb, nx](int m) { return 2 * sb + nx + m; };
  const int net_phi1 = 2 * sb + nx + ny;
  const int net_phi2 = net_phi1 + 1;

  route::ChannelSpec spec;
  spec.y0 = ch_y0;

  // Bottom pins: PLA inputs (state, then external) and PLA output risers.
  for (int i = 0; i < ni; ++i) {
    spec.pins.push_back({i < sb ? net_s(i) : net_x(i - sb),
                         in_pin_x[static_cast<std::size_t>(i)], false,
                         Layer::Poly});
  }
  for (int k = 0; k < no; ++k) {
    spec.pins.push_back({k < sb ? net_ns(k) : net_y(k - sb),
                         riser_x[static_cast<std::size_t>(k)], false,
                         Layer::Poly});
  }

  // ---- register row positions ----
  Coord max_bottom_pin = 0;
  for (const Pin& pin : spec.pins) max_bottom_pin = std::max(max_bottom_pin, pin.x);
  const Coord reg_x0 = max_bottom_pin + 80;  // first master stage origin
  const auto master_x = [reg_x0](int k) { return reg_x0 + k * kPairPitch; };

  // Top pins from the register row (positions per plan; see below where the
  // matching geometry is drawn).
  for (int k = 0; k < sb; ++k) {
    const Coord mx = master_x(k);
    spec.pins.push_back({net_ns(k), mx - 60, true, Layer::Poly});  // master in
    spec.pins.push_back({net_phi1, mx - 34, true, Layer::Poly});   // master phi
    spec.pins.push_back({net_phi2, mx + kStagePitch - 34, true, Layer::Poly});
    spec.pins.push_back({net_s(k), mx + kStagePitch + 14, true, Layer::Poly});
  }
  const Coord reg_right =
      sb > 0 ? master_x(sb - 1) + kStagePitch + 18 : reg_x0;

  // Pad risers on the right flank: x<j>, y<m>, phi1, phi2 (in that order).
  const int n_signal_pads = nx + ny + 2;
  std::vector<Coord> pad_riser_x(static_cast<std::size_t>(n_signal_pads));
  const Coord flank_x0 = std::max(reg_right, max_bottom_pin) + 60;
  for (int i = 0; i < n_signal_pads; ++i) {
    const Coord x = flank_x0 + i * 120;
    pad_riser_x[static_cast<std::size_t>(i)] = x;
    const int net = i < nx             ? net_x(i)
                    : i < nx + ny      ? net_y(i - nx)
                    : i == nx + ny     ? net_phi1
                                       : net_phi2;
    spec.pins.push_back({net, x, true, Layer::Poly});
  }

  spec.x0 = 40 - 16;
  spec.x1 = pad_riser_x.empty() ? reg_right + 40
                                : pad_riser_x.back() + 20;
  for (const Pin& pin : spec.pins) {
    spec.x0 = std::min(spec.x0, pin.x - 10);
    spec.x1 = std::max(spec.x1, pin.x + 14);
  }

  const route::ChannelResult ch = route::route_channel(chip, spec);
  st.channel_tracks = ch.tracks;
  st.channel_wire_length = ch.wire_length;
  const Coord ch_top = ch_y0 + ch.height;

  // ---- register row: master/slave shift-stage pairs ----
  const Coord reg_y = ch_top + 4;
  Cell& stage = cells::shift_stage(lib, {.name = options.name + "_stage"});
  for (int k = 0; k < sb; ++k) {
    const Coord mx = master_x(k);
    const Coord sx = mx + kStagePitch;
    chip.add_instance(stage, {Orient::R0, {mx, reg_y}}, "m" + std::to_string(k));
    chip.add_instance(stage, {Orient::R0, {sx, reg_y}}, "s" + std::to_string(k));
    // Master input: extend the input stub left and drop poly to the channel.
    chip.add_rect(Layer::Metal, {mx - 62, reg_y + 13, mx - 38, reg_y + 21});
    cut_with_pads(chip, mx - 60, reg_y + 15, Layer::Poly);
    chip.add_rect(Layer::Poly, {mx - 60, ch_top, mx - 56, reg_y + 17});
    // phi approaches (stage phi poly ends at its bbox bottom).
    chip.add_rect(Layer::Poly, {mx - 34, ch_top, mx - 30, reg_y + 1});
    chip.add_rect(Layer::Poly, {sx - 34, ch_top, sx - 30, reg_y + 1});
    // Master out -> slave in strap.
    chip.add_rect(Layer::Metal, {mx + 14, reg_y + 15, mx + 30, reg_y + 21});
    // Slave out: contact on the output arm and poly drop to the channel
    // (x chosen to clear the stage's gate poly by 2 lambda diagonally).
    cut_with_pads(chip, sx + 14, reg_y + 17, Layer::Poly);
    chip.add_rect(Layer::Poly, {sx + 14, ch_top, sx + 18, reg_y + 19});
  }

  // ---- geometry extents and power trunks ----
  const Coord reg_top = reg_y + 69;  // shift stage height (pu16 inverter)
  const Coord pad_y = reg_top + 50;
  const Coord x_left = -60;
  const Coord x_right = spec.x1 + 80;  // clears the last signal pad

  // GND: PLA bottom rail -> left trunk -> continuous register-row rail.
  const Rect pla_gnd = p.cell->find_port("gnd")->rect;
  chip.add_rect(Layer::Metal, {x_left, pla_gnd.y0, pla_gnd.x0 + 8, pla_gnd.y1});
  chip.add_rect(Layer::Metal, {x_left, pla_gnd.y0, x_left + 8, pad_y + 4});
  if (sb > 0) {
    chip.add_rect(Layer::Metal, {x_left, reg_y, reg_right, reg_y + 6});
  }
  // VDD: PLA vdd rail -> east extension (crosses only poly) -> right trunk.
  chip.add_rect(Layer::Metal, {vdd_port.x0, vdd_port.y0, x_right + 8, vdd_port.y1});
  chip.add_rect(Layer::Metal, {x_right, vdd_port.y0, x_right + 8, pad_y + 4});
  if (sb > 0) {
    chip.add_rect(Layer::Metal,
                  {reg_x0 - 50, reg_y + 63, x_right + 8, reg_y + 69});
  }

  // ---- bond pads ----
  Cell& pad = cells::bond_pad(lib, {.size = 40, .name = options.name + "_pad"});
  const auto add_pad = [&](Coord px, const std::string& net_name) {
    chip.add_instance(pad, {Orient::R0, {px, pad_y}}, "pad_" + net_name);
    chip.add_label(net_name, Layer::Metal, {px + 40, pad_y + 40});
    chip.add_port(net_name, Layer::Metal, {px, pad_y, px + 80, pad_y + 80});
    ++st.pads;
  };
  for (int i = 0; i < n_signal_pads; ++i) {
    const Coord x = pad_riser_x[static_cast<std::size_t>(i)];
    const std::string name = i < nx        ? "x" + std::to_string(i)
                             : i < nx + ny ? "y" + std::to_string(i - nx)
                             : i == nx + ny ? "phi1"
                                            : "phi2";
    const Coord px = x - 38;
    add_pad(px, name);
    // Stub + contact + poly riser from the pad down to the channel.
    chip.add_rect(Layer::Metal, {x - 1, pad_y - 12, x + 5, pad_y + 2});
    cut_with_pads(chip, x, pad_y - 18, Layer::Poly);
    chip.add_rect(Layer::Poly, {x, ch_top, x + 4, pad_y - 16});
  }
  add_pad(x_left - 36, "GND");   // sits on the left trunk
  add_pad(x_right - 36, "Vdd");  // sits on the right trunk

  const Rect bb = chip.bbox();
  st.width = bb.width();
  st.height = bb.height();
  return result;
}

}  // namespace silc::assemble
