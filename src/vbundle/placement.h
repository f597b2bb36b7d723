// Payloads and configuration of the v-Bundle boot/placement protocol (§II.B).
//
// Booting a VM routes a query to hash(customer); the key-owning server
// either hosts the VM or walks it through the proximity neighbor set until
// some server admits the reservation.
#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "hostmodel/vm.h"
#include "pastry/message.h"
#include "pastry/node_id.h"

namespace vb::core {

/// Routed toward hash(customer): "boot this VM somewhere near the key".
struct BootQueryMsg : pastry::Payload {
  host::VmId vm = -1;
  host::VmSpec spec;
  host::CustomerId customer = -1;
  pastry::NodeHandle requester;  ///< gateway to ack/nack
  std::size_t wire_bytes() const override { return 96; }
  std::string name() const override { return "vbundle.boot_query"; }
};

/// Direct: the walking form of a boot query spilling over neighbor sets.
/// Carries the frontier and known-server set of a best-first search over
/// proximity neighbor sets, so the query expands outward from the key owner
/// in physical-distance order.
struct PlacementWalkMsg : pastry::Payload {
  /// One frontier entry.  `rank` is the candidate's proximity to the anchor
  /// (topology tier, then host-id distance), computed once when it is
  /// pushed; `seq` counts pushes and breaks rank ties in discovery order.
  struct Candidate {
    long rank = 0;
    std::uint64_t seq = 0;
    pastry::NodeHandle node;
    /// Heap order: std::push_heap/pop_heap with this comparator keep the
    /// smallest (rank, seq) on top.
    static bool later(const Candidate& a, const Candidate& b) {
      return a.rank != b.rank ? a.rank > b.rank : a.seq > b.seq;
    }
  };

  host::VmId vm = -1;
  host::VmSpec spec;
  host::CustomerId customer = -1;
  pastry::NodeHandle requester;
  /// The key-owning server the search expands from; frontier order is
  /// proximity to this anchor, keeping spillover clustered around the
  /// customer's key.
  pastry::NodeHandle anchor;
  /// Candidates not yet probed: a min-heap on (rank, seq), so the next hop
  /// is the nearest candidate to the anchor, the earliest found among
  /// equals.  No entry is ever visited or listed twice.
  std::vector<Candidate> frontier;
  /// Sorted ids of the probed servers and the frontier: the "already
  /// known" test for new candidates, by binary search.
  std::vector<U128> seen;
  std::uint64_t next_seq = 0;
  int visits = 0;  ///< servers probed so far, this one included
  int max_visits = 256;
  /// Wire size with the probed servers' ids on board (16 bytes each), as
  /// a walk that lists them would carry.
  std::size_t wire_bytes() const override {
    return 112 + 24 * frontier.size() + 16 * static_cast<std::size_t>(visits);
  }
  std::string name() const override { return "vbundle.place_walk"; }
};

/// Direct to the requester: VM placed on `server`.
struct BootAckMsg : pastry::Payload {
  host::VmId vm = -1;
  pastry::NodeHandle server;
  int visits = 0;  ///< servers probed before success (1 = key owner)
  std::size_t wire_bytes() const override { return 64; }
  std::string name() const override { return "vbundle.boot_ack"; }
};

/// Direct to the requester: no server in the search radius could admit it.
struct BootNackMsg : pastry::Payload {
  host::VmId vm = -1;
  int visits = 0;
  std::size_t wire_bytes() const override { return 48; }
  std::string name() const override { return "vbundle.boot_nack"; }
};

/// Completion callback for a boot request: (vm, host or -1, servers probed).
using BootCallback = std::function<void(host::VmId, int, int)>;

}  // namespace vb::core
