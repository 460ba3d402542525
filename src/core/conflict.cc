#include "core/conflict.h"

#include <algorithm>

namespace orchestra::core {

std::string_view ConflictTypeName(ConflictType type) {
  switch (type) {
    case ConflictType::kInsertInsert:
      return "insert/insert";
    case ConflictType::kDeleteVsWrite:
      return "delete/write";
    case ConflictType::kReplaceReplace:
      return "replace/replace";
    case ConflictType::kKeyCollision:
      return "key-collision";
  }
  return "unknown";
}

std::string ConflictPoint::ToString() const {
  return std::string(ConflictTypeName(type)) + " on " + key.ToString();
}

namespace {

bool Same(const HashedRelKey* x, const HashedRelKey* y) {
  return x != nullptr && y != nullptr && *x == *y;
}

// The conflict rules of §4 on one pair of updates over precomputed keys:
// `r*` / `w*` are each update's read (pre-image) and write (post-image)
// keys, null when its kind has none. This is the only statement of the
// rules; UpdatesConflict and SetsConflict both call it.
std::optional<ConflictPoint> Classify(const Update& a, const HashedRelKey* ra,
                                      const HashedRelKey* wa, const Update& b,
                                      const HashedRelKey* rb,
                                      const HashedRelKey* wb) {
  if (a.is_delete() && b.is_delete()) return std::nullopt;  // they agree
  if (b.is_delete()) return Classify(b, rb, wb, a, ra, wa);
  if (a.is_delete()) {
    // delete vs insert-or-modify: conflicts if the write reads or writes
    // the deleted key.
    if (Same(ra, rb) || Same(ra, wb)) {
      return ConflictPoint{ConflictType::kDeleteVsWrite, ra->key};
    }
    return std::nullopt;
  }
  if (a.is_insert() && b.is_insert()) {
    if (!Same(wa, wb)) return std::nullopt;
    if (a.new_tuple() == b.new_tuple()) return std::nullopt;  // they agree
    return ConflictPoint{ConflictType::kInsertInsert, wa->key};
  }
  if (a.is_modify() && b.is_modify()) {
    if (Same(ra, rb)) {
      // Same source key. Identical replacements agree; anything else is
      // the paper's replace/replace conflict (including disagreement
      // about the source tuple's current value).
      if (a.old_tuple() == b.old_tuple() && a.new_tuple() == b.new_tuple()) {
        return std::nullopt;
      }
      return ConflictPoint{ConflictType::kReplaceReplace, ra->key};
    }
    // Different sources converging on one target key can never both
    // apply.
    if (Same(wa, wb)) {
      return ConflictPoint{ConflictType::kKeyCollision, wa->key};
    }
    return std::nullopt;
  }
  // An insert and a replacement targeting the same key both claim it;
  // even value-identical outcomes cannot both apply (duplicate key).
  if (Same(wa, wb)) return ConflictPoint{ConflictType::kKeyCollision, wa->key};
  return std::nullopt;
}

const HashedRelKey* SlotKey(const KeyedUpdates& set, uint32_t slot) {
  return slot == KeyedUpdates::kNoKey ? nullptr : &set.keys[slot];
}

}  // namespace

std::optional<ConflictPoint> UpdatesConflict(const db::RelationSchema& schema,
                                             const Update& a,
                                             const Update& b) {
  if (a.relation() != b.relation()) return std::nullopt;
  const auto ra = HashedRelKey::Of(a, a.ReadKey(schema));
  const auto wa = HashedRelKey::Of(a, a.WriteKey(schema));
  const auto rb = HashedRelKey::Of(b, b.ReadKey(schema));
  const auto wb = HashedRelKey::Of(b, b.WriteKey(schema));
  return Classify(a, ra ? &*ra : nullptr, wa ? &*wa : nullptr, b,
                  rb ? &*rb : nullptr, wb ? &*wb : nullptr);
}

std::vector<ConflictPoint> SetsConflict(const KeyedUpdates& a,
                                        const KeyedUpdates& b) {
  std::vector<ConflictPoint> out;
  size_t ia = 0;
  size_t ib = 0;
  while (ia < a.keys.size() && ib < b.keys.size()) {
    const uint64_t h = a.keys[ia].hash;
    if (h < b.keys[ib].hash) {
      ++ia;
      continue;
    }
    if (b.keys[ib].hash < h) {
      ++ib;
      continue;
    }
    size_t ea = ia;
    while (ea < a.keys.size() && a.keys[ea].hash == h) ++ea;
    size_t eb = ib;
    while (eb < b.keys.size() && b.keys[eb].hash == h) ++eb;
    for (size_t x = ia; x < ea; ++x) {
      for (size_t y = ib; y < eb; ++y) {
        if (!(a.keys[x].key == b.keys[y].key)) continue;  // hash collision
        const uint32_t ua = a.keys[x].update;
        const uint32_t ub = b.keys[y].update;
        const KeyedUpdates::Slots& sa = a.slots[ua];
        const KeyedUpdates::Slots& sb = b.slots[ub];
        if (auto cp = Classify(a.updates[ua], SlotKey(a, sa.read),
                               SlotKey(a, sa.write), b.updates[ub],
                               SlotKey(b, sb.read), SlotKey(b, sb.write))) {
          out.push_back(std::move(*cp));
        }
      }
    }
    ia = ea;
    ib = eb;
  }
  // An update pair sharing two keys is tested (and may report) twice.
  std::sort(out.begin(), out.end());
  out.erase(std::unique(out.begin(), out.end()), out.end());
  return out;
}

}  // namespace orchestra::core
