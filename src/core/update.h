#ifndef ORCHESTRA_CORE_UPDATE_H_
#define ORCHESTRA_CORE_UPDATE_H_

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "common/result.h"
#include "db/schema.h"
#include "db/tuple.h"
#include "core/ids.h"

namespace orchestra::core {

/// The three update operations of §3.2.
enum class UpdateKind {
  kInsert = 0,  // +R(a; i)
  kDelete = 1,  // -R(a; i)
  kModify = 2,  // R(a -> a'; i)
};

std::string_view UpdateKindName(UpdateKind kind);

/// A (relation, key) pair identifying the logical tuple an update touches.
/// Used for conflict tests and the dirty-value set.
struct RelKey {
  std::string relation;
  db::Tuple key;

  std::string ToString() const { return relation + key.ToString(); }

  friend bool operator==(const RelKey& a, const RelKey& b) {
    return a.relation == b.relation && a.key == b.key;
  }
  friend bool operator<(const RelKey& a, const RelKey& b) {
    if (a.relation != b.relation) return a.relation < b.relation;
    return a.key < b.key;
  }
};

class Update;

/// A RelKey with its RelKeyHash computed once, so that hash lookups,
/// sorted merges and equality tests on it never re-hash or re-project.
struct HashedRelKey {
  uint64_t hash = 0;
  RelKey key;

  static HashedRelKey Of(std::string relation, db::Tuple key);
  /// Keys `update`'s ReadKey or WriteKey result (nullopt stays nullopt).
  static std::optional<HashedRelKey> Of(const Update& update,
                                        std::optional<db::Tuple> key);

  friend bool operator==(const HashedRelKey& a, const HashedRelKey& b) {
    return a.hash == b.hash && a.key == b.key;
  }
};

/// Transparent: a HashedRelKey probes RelKey-keyed containers with its
/// stored hash (pair with RelKeyEq for heterogeneous lookup).
struct RelKeyHash {
  using is_transparent = void;
  size_t operator()(const RelKey& rk) const {
    return static_cast<size_t>(
        HashCombine(Fnv1a64(rk.relation), rk.key.Hash()));
  }
  size_t operator()(const HashedRelKey& hk) const {
    return static_cast<size_t>(hk.hash);
  }
};

struct RelKeyEq {
  using is_transparent = void;
  bool operator()(const RelKey& a, const RelKey& b) const { return a == b; }
  bool operator()(const RelKey& a, const HashedRelKey& b) const {
    return a == b.key;
  }
  bool operator()(const HashedRelKey& a, const RelKey& b) const {
    return a.key == b;
  }
};

/// One value-level update, annotated with the identity of its originating
/// participant (§3.1 trust policies require origin annotations).
///
/// Representation invariants:
///  - kInsert: new_tuple set, old_tuple empty
///  - kDelete: old_tuple set, new_tuple empty
///  - kModify: both set (the key may change between them)
class Update {
 public:
  static Update Insert(std::string relation, db::Tuple tuple,
                       ParticipantId origin);
  static Update Delete(std::string relation, db::Tuple tuple,
                       ParticipantId origin);
  static Update Modify(std::string relation, db::Tuple old_tuple,
                       db::Tuple new_tuple, ParticipantId origin);

  UpdateKind kind() const { return kind_; }
  const std::string& relation() const { return relation_; }
  const db::Tuple& old_tuple() const { return old_tuple_; }
  const db::Tuple& new_tuple() const { return new_tuple_; }
  ParticipantId origin() const { return origin_; }

  bool is_insert() const { return kind_ == UpdateKind::kInsert; }
  bool is_delete() const { return kind_ == UpdateKind::kDelete; }
  bool is_modify() const { return kind_ == UpdateKind::kModify; }

  /// The key this update reads (pre-image key): delete/modify read the
  /// old tuple's key; inserts read nothing (nullopt).
  std::optional<db::Tuple> ReadKey(const db::RelationSchema& schema) const;

  /// The key this update writes (post-image key): insert/modify write the
  /// new tuple's key; deletes write nothing (they clear the read key).
  std::optional<db::Tuple> WriteKey(const db::RelationSchema& schema) const;

  /// Every (relation, key) this update touches — read or written. This is
  /// the footprint checked against the dirty-value set (§5).
  std::vector<RelKey> TouchedKeys(const db::RelationSchema& schema) const;

  /// Renders as "+F(rat, prot1, 'x'; 3)" / "-F(...)" / "F(a -> b; i)".
  std::string ToString() const;

  friend bool operator==(const Update& a, const Update& b) {
    return a.kind_ == b.kind_ && a.relation_ == b.relation_ &&
           a.old_tuple_ == b.old_tuple_ && a.new_tuple_ == b.new_tuple_ &&
           a.origin_ == b.origin_;
  }
  friend bool operator!=(const Update& a, const Update& b) {
    return !(a == b);
  }

 private:
  Update(UpdateKind kind, std::string relation, db::Tuple old_tuple,
         db::Tuple new_tuple, ParticipantId origin)
      : kind_(kind),
        relation_(std::move(relation)),
        old_tuple_(std::move(old_tuple)),
        new_tuple_(std::move(new_tuple)),
        origin_(origin) {}

  UpdateKind kind_;
  std::string relation_;
  db::Tuple old_tuple_;
  db::Tuple new_tuple_;
  ParticipantId origin_;
};

/// An update set plus every (relation, key) its updates touch, each
/// projected and hashed once. `keys` is sorted by (hash, update index) so
/// two sets meet in a linear merge; `slots` maps each update back to its
/// read and write key. Built by the flattener from the keys it already
/// holds (FlattenKeyed) or anew by KeyUpdates.
struct KeyedUpdates {
  static constexpr uint8_t kRead = 1;
  static constexpr uint8_t kWrite = 2;
  struct Key : HashedRelKey {
    uint32_t update = 0;  // index into `updates`
    uint8_t role = 0;     // kRead | kWrite
  };
  static constexpr uint32_t kNoKey = UINT32_MAX;
  /// Indices into `keys`; kNoKey when the update has no such key. A
  /// modify that keeps its key has read == write.
  struct Slots {
    uint32_t read = kNoKey;
    uint32_t write = kNoKey;
  };

  std::vector<Update> updates;
  std::vector<Key> keys;
  std::vector<Slots> slots;  // parallel to `updates`

  /// Appends an update with its read and/or write key (nullopt when the
  /// update kind has none). Call Seal() after the last Append.
  void Append(Update update, std::optional<HashedRelKey> read,
              std::optional<HashedRelKey> write);
  /// Sorts `keys` by (hash, update) and points `slots` at them.
  void Seal();

  /// Calls f(const Key&) for each key update `u` touches, in
  /// Update::TouchedKeys order (read key first, each key once).
  template <typename F>
  void ForEachTouched(size_t u, F&& f) const {
    const Slots& s = slots[u];
    if (s.read != kNoKey) f(keys[s.read]);
    if (s.write != kNoKey && s.write != s.read) f(keys[s.write]);
  }
};

/// Keys an arbitrary update set (one projection and hash per key).
KeyedUpdates KeyUpdates(const db::Catalog& catalog,
                        std::vector<Update> updates);

/// Binary (de)serialization, used for durability and for the simulated
/// network's message-size accounting.
void EncodeUpdate(std::string* out, const Update& update);
Result<Update> DecodeUpdate(std::string_view data, size_t* pos);

/// Encoded size in bytes, computed arithmetically (no encoding is
/// materialized); must agree with EncodeUpdate exactly.
size_t EncodedUpdateSize(const Update& update);

}  // namespace orchestra::core

#endif  // ORCHESTRA_CORE_UPDATE_H_
