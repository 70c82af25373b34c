#include "hinch/component.hpp"

#include "support/strings.hpp"

namespace hinch {

void Component::assign_slice(int index, int count) {
  SUP_CHECK(count >= 1 && index >= 0 && index < count);
  slice_index_ = index;
  slice_count_ = count;
  // The paper delivers the data-parallel position through the component's
  // reconfiguration interface (§3.1); do the same so components that
  // override reconfigure() can react.
  reconfigure(support::format("slice=%d/%d", index, count));
}

void slice_rows(int rows, int index, int count, int* row0, int* row1) {
  SUP_CHECK(count >= 1 && index >= 0 && index < count);
  int base = rows / count;
  int extra = rows % count;
  *row0 = index * base + std::min(index, extra);
  *row1 = *row0 + base + (index < extra ? 1 : 0);
}

const Packet& ExecContext::read(int in_port) const {
  Stream* s = comp_->input_stream(in_port);
  SUP_CHECK_MSG(s != nullptr, "reading an unbound input port");
  return s->read(iteration_);
}

void ExecContext::write(int out_port, Packet packet) {
  Stream* s = comp_->output_stream(out_port);
  SUP_CHECK_MSG(s != nullptr, "writing an unbound output port");
  s->write(iteration_, std::move(packet));
}

Packet& ExecContext::inout(int out_port) {
  Stream* s = comp_->output_stream(out_port);
  SUP_CHECK_MSG(s != nullptr, "accessing an unbound output port");
  return s->slot(iteration_);
}

Packet& ExecContext::acquire(int out_port) {
  Stream* s = comp_->output_stream(out_port);
  SUP_CHECK_MSG(s != nullptr, "accessing an unbound output port");
  return s->acquire_slot(iteration_);
}

void ExecContext::commit(int out_port) {
  Stream* s = comp_->output_stream(out_port);
  SUP_CHECK_MSG(s != nullptr, "accessing an unbound output port");
  s->commit_slot(iteration_);
}

bool ExecContext::input_ready(int in_port) const {
  Stream* s = comp_->input_stream(in_port);
  SUP_CHECK_MSG(s != nullptr, "querying an unbound input port");
  return s->has(iteration_);
}

void ExecContext::send_event(const std::string& queue, Event ev) {
  SUP_CHECK(queues_ != nullptr);
  queues_->get_or_create(queue).push(std::move(ev));
}

void ExecContext::touch_read(int in_port, uint64_t offset, uint64_t len) {
  Stream* s = comp_->input_stream(in_port);
  SUP_CHECK(s != nullptr);
  charges_.touches.push_back({s->index(), offset, len, /*write=*/false});
}

void ExecContext::touch_write(int out_port, uint64_t offset, uint64_t len) {
  Stream* s = comp_->output_stream(out_port);
  SUP_CHECK(s != nullptr);
  charges_.touches.push_back({s->index(), offset, len, /*write=*/true});
}

}  // namespace hinch
