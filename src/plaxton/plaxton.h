// Plaxton/Rajaraman/Richa randomized tree embedding (Section 3.1.3).
//
// The hint hierarchy configures itself by embedding, for every object, a
// virtual tree across the cache nodes. Node ids are pseudo-random (mix64 of
// the node's index); an object's tree is climbed digit by digit: at level l a
// node forwards to its nearest neighbour whose id matches the object's id in
// the bottom l digits plus the object's (l+1)-th digit. The node whose id
// matches the object's id in the most low-order digits is the object's root.
// When no neighbour matches the wanted digit, the next digit value (cyclic)
// is taken — deterministic surrogate routing, so every start node converges
// on the same root. The properties the paper lists fall out: automatic
// configuration, load spread (each node roots ~1/n of objects), locality
// (low-level parents are near), and small disturbance on node churn.
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <unordered_map>
#include <vector>

#include "common/types.h"

namespace bh::plaxton {

// Distance oracle between nodes (network proximity; smaller is closer).
using DistanceFn = std::function<double(NodeIndex, NodeIndex)>;

struct PlaxtonConfig {
  std::uint32_t digit_bits = 1;  // log2 of tree arity (1 = binary trees)
};

class PlaxtonMesh {
 public:
  // `ids[i]` is the pseudo-random id of node i. Ids must be unique.
  PlaxtonMesh(std::vector<std::uint64_t> ids, DistanceFn distance,
              PlaxtonConfig cfg = {});

  std::uint32_t digit_bits() const { return cfg_.digit_bits; }
  std::size_t num_nodes() const { return alive_count_; }

  // Network proximity between two nodes, per the construction-time oracle.
  double distance(NodeIndex a, NodeIndex b) const {
    return a == b ? 0.0 : distance_(a, b);
  }

  // The neighbour a node at `level` with the given accumulated low-order
  // digit prefix uses for digit value v, chosen nearest to `from`.
  // Returns kInvalidNode if no live node matches prefix+digit.
  NodeIndex neighbor(NodeIndex from, std::uint32_t level, std::uint64_t prefix,
                     std::uint32_t digit) const;

  // Climbs from `start` toward the root for `object_id`; returns the node
  // sequence ending at the root (start included).
  std::vector<NodeIndex> route(NodeIndex start, std::uint64_t object_id) const;

  // The unique root node for an object.
  NodeIndex root_of(std::uint64_t object_id) const;

  // Node churn. Removing a node reassigns its roles to surviving nodes on
  // the next route; adding restores it. Both rebuild only bucket membership.
  void remove_node(NodeIndex node);
  void add_node(NodeIndex node);
  bool alive(NodeIndex node) const { return alive_[node]; }

 private:
  std::uint64_t low_digits(std::uint64_t id, std::uint32_t levels) const;
  std::uint32_t digit_at(std::uint64_t id, std::uint32_t level) const;
  void rebuild_buckets();

  PlaxtonConfig cfg_;
  std::vector<std::uint64_t> ids_;
  std::vector<bool> alive_;
  std::size_t alive_count_;
  DistanceFn distance_;
  std::uint32_t max_levels_;

  // buckets_[level] maps a low-order digit prefix (level digits wide) to the
  // live nodes whose ids carry that prefix.
  std::vector<std::unordered_map<std::uint64_t, std::vector<NodeIndex>>>
      buckets_;
};

// Node ids and a distance oracle for a three-level cache topology: distance
// is the LCA level between L1 caches, so "nearby" means same L2 subtree.
std::vector<std::uint64_t> ids_for_topology(std::uint32_t num_nodes,
                                            std::uint64_t seed);

}  // namespace bh::plaxton
