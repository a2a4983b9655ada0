// Network-name interning: the string half of the dense estimate store.
//
// WiScape keys every estimate stream by (zone, network, metric). Zones and
// metrics are already small integers; the network name is the one string in
// the key, and hashing + copying it per sample was the apply path's main
// cost. The interner maps each distinct operator name to a dense u16 id,
// assigned in first-seen order, so the hot path works on a packed integer
// key and the name is only touched at the boundaries (wire decode, persist,
// keys(), alerts).
//
// Id stability: ids are append-only and never reused. An interner seeded
// from a coordinator's `networks` vector assigns ids 0..n-1 in vector order
// (duplicates collapse to the first occurrence), so every shard of a
// sharded_coordinator -- constructed from the same vector -- agrees on that
// fixed prefix, and a record's cached `network_id` resolved at the wire
// boundary is valid on whichever shard it lands. Networks first seen in a
// report (not in the constructor vector) are interned on the cold path with
// the next free id; those dynamic ids are private to the owning interner.
//
// Thread safety: none. id_of() mutates; callers serialise access exactly as
// they do for the zone_table that owns the interner (one coordinator ==
// one thread, one shard == its mutex). try_id()/name_of() are const and
// safe to call concurrently with each other, but not with id_of().
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

namespace wiscape::core {

class network_interner {
 public:
  /// "No id": the unresolved sentinel, never a valid id.
  static constexpr std::uint16_t npos = 0xFFFF;
  /// Hard cap on distinct networks -- the packed estimate key budgets 12
  /// bits for the network id (see zone_table). id_of throws
  /// std::length_error beyond it.
  static constexpr std::size_t max_networks = 4096;

  network_interner() = default;
  /// Seeds ids in vector order: names[i] gets id i (duplicates collapse to
  /// their first occurrence's id).
  explicit network_interner(const std::vector<std::string>& names);

  /// Id of `name`, interning it on first sight (a mutating call).
  /// Lookup of an already-interned name is allocation-free (transparent
  /// string_view hashing). Throws std::length_error past max_networks.
  std::uint16_t id_of(std::string_view name);

  /// Like id_of, but returns npos instead of throwing when the table is
  /// full. Wire-facing paths use this: network names arrive as untrusted
  /// free-form strings, so exhaustion must reject the record, not unwind
  /// (and in a drain worker, terminate) the apply path.
  std::uint16_t try_intern(std::string_view name);

  /// Id of `name` if already interned, npos otherwise. Never interns.
  std::uint16_t try_id(std::string_view name) const noexcept;

  /// Name behind an id. The view is invalidated by the next interning
  /// id_of() call (storage may relocate). Throws std::out_of_range on an
  /// unknown id.
  std::string_view name_of(std::uint16_t id) const;

  /// Distinct names interned so far (ids are 0..size()-1).
  std::size_t size() const noexcept { return names_.size(); }

 private:
  struct sv_hash {
    using is_transparent = void;
    std::size_t operator()(std::string_view s) const noexcept {
      return std::hash<std::string_view>{}(s);
    }
  };
  struct sv_eq {
    using is_transparent = void;
    bool operator()(std::string_view a, std::string_view b) const noexcept {
      return a == b;
    }
  };

  std::vector<std::string> names_;
  std::unordered_map<std::string, std::uint16_t, sv_hash, sv_eq> index_;
};

}  // namespace wiscape::core
