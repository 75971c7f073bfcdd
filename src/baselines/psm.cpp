#include "src/baselines/psm.h"

#include <algorithm>

#include "src/snap/serializer.h"
#include "src/snap/timer_codec.h"

namespace essat::baselines {

PsmNode::PsmNode(sim::Simulator& sim, energy::Radio& radio, mac::CsmaMac& mac,
                 PsmParams params)
    : sim_{sim}, radio_{radio}, mac_{mac}, params_{params}, timer_{sim} {}

void PsmNode::start(util::Time first_beacon) {
  mac_.set_tx_filter([this](const net::Packet& p) { return admit_(p); });
  // A node restarted by churn attaches after `first_beacon` has passed; its
  // beacon schedule then starts now.
  timer_.arm_at(std::max(first_beacon, sim_.now()), [this] { on_beacon_(); });
}

bool PsmNode::admit_(const net::Packet& p) const {
  switch (phase_) {
    case Phase::kSleep:
      return false;
    case Phase::kAtim:
      return p.type == net::PacketType::kAtim;
    case Phase::kData:
      // Only frames whose destination heard our ATIM (and thus stayed
      // awake) may go out; the rest wait for the next interval.
      return p.type != net::PacketType::kAtim &&
             (p.is_broadcast() || cleared_.count(p.link_dst) != 0);
  }
  return false;
}

void PsmNode::on_beacon_() {
  phase_ = Phase::kAtim;
  involved_ = false;
  cleared_.clear();
  radio_.turn_on();

  const auto dests = mac_.pending_destinations();
  if (!dests.empty()) {
    cleared_.insert(dests.begin(), dests.end());
    involved_ = true;  // we have traffic to push in the data window
    ++atims_sent_;
    mac_.send(net::make_atim_packet(mac_.self(), dests));
  }
  mac_.kick();
  timer_.arm_in(params_.atim_window, [this] { on_atim_end_(); });
}

void PsmNode::on_atim_end_() {
  if (involved_) {
    phase_ = Phase::kData;
    mac_.kick();
    timer_.arm_in(params_.data_window, [this] { on_data_end_(); });
  } else {
    phase_ = Phase::kSleep;
    radio_.turn_off();
    timer_.arm_in(params_.beacon_period - params_.atim_window,
                  [this] { on_beacon_(); });
  }
}

void PsmNode::on_data_end_() {
  phase_ = Phase::kSleep;
  radio_.turn_off();
  timer_.arm_in(params_.beacon_period - params_.atim_window - params_.data_window,
                [this] { on_beacon_(); });
}

void PsmNode::handle_packet(const net::Packet& p) {
  if (p.type != net::PacketType::kAtim) return;
  const auto& dests = p.atim().destinations;
  if (std::find(dests.begin(), dests.end(), mac_.self()) != dests.end()) {
    involved_ = true;  // a neighbor will send to us: stay awake
  }
}

void PsmNode::save_state(snap::Serializer& out) const {
  out.begin("PSMN");
  out.u8(static_cast<std::uint8_t>(phase_));
  out.boolean(involved_);
  out.u64(cleared_.size());
  for (net::NodeId n : cleared_) out.i32(n);
  out.u64(atims_sent_);
  snap::save_timer(out, timer_);
  out.end();
}

}  // namespace essat::baselines
