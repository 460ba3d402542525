#include "core/flatten.h"

#include <algorithm>
#include <unordered_map>

#include "common/check.h"

namespace orchestra::core {

namespace {

// One logical tuple's composed net effect so far, with the keys of its
// pre- and post-image as the indexes hold them.
struct Chain {
  UpdateKind net = UpdateKind::kInsert;
  db::Tuple original;  // pre-image (kModify, kDelete)
  db::Tuple current;   // post-image (kInsert, kModify)
  HashedRelKey original_key;  // key of `original`, when set
  HashedRelKey current_key;   // key of `current`, when set
  ParticipantId last_writer = 0;
  bool dead = false;  // chain composed away to a no-op
};

struct PrecomputedHash {
  size_t operator()(const HashedRelKey& k) const {
    return static_cast<size_t>(k.hash);
  }
};

// Flattening state: chains plus two key indexes. "Live" chains have a
// post-image occupying a key; "deleted" chains removed a pre-existing
// tuple and are indexed by that tuple's key so a later re-insert of the
// key composes into a modify.
class Flattener {
 public:
  Flattener(const db::Catalog& catalog, size_t expected_updates)
      : catalog_(catalog) {
    chains_.reserve(expected_updates);
  }

  Status Add(const Update& u) {
    auto schema_result = catalog_.GetRelation(u.relation());
    if (!schema_result.ok()) return schema_result.status();
    const db::RelationSchema& schema = **schema_result;
    switch (u.kind()) {
      case UpdateKind::kInsert:
        return AddInsert(schema, u);
      case UpdateKind::kDelete:
        return AddDelete(schema, u);
      case UpdateKind::kModify:
        return AddModify(schema, u);
    }
    return Status::Internal("unreachable update kind");
  }

  Status Add(const Update* u) { return Add(*u); }

  // The net updates, plus their keys when `keyed` (Flatten alone does
  // not pay for sorting keys it would drop).
  KeyedUpdates Finish(bool keyed) {
    // Deterministic output order: relation, then the touched key, then
    // kind (so a delete/insert pair on one key orders delete first).
    std::vector<size_t> order;
    for (size_t c = 0; c < chains_.size(); ++c) {
      const Chain& chain = chains_[c];
      if (chain.dead) continue;
      if (chain.net == UpdateKind::kModify &&
          chain.original == chain.current) {
        continue;
      }
      order.push_back(c);
    }
    std::sort(order.begin(), order.end(), [this](size_t a, size_t b) {
      const RelKey& ka = SortKey(chains_[a]);
      const RelKey& kb = SortKey(chains_[b]);
      if (ka.relation != kb.relation) return ka.relation < kb.relation;
      if (ka.key != kb.key) return ka.key < kb.key;
      return static_cast<int>(chains_[a].net) >
             static_cast<int>(chains_[b].net);
    });
    KeyedUpdates out;
    out.updates.reserve(order.size());
    auto emit = [&](Update u, std::optional<HashedRelKey> read,
                    std::optional<HashedRelKey> write) {
      if (keyed) {
        out.Append(std::move(u), std::move(read), std::move(write));
      } else {
        out.updates.push_back(std::move(u));
      }
    };
    for (size_t c : order) {
      Chain& chain = chains_[c];
      std::string relation = SortKey(chain).relation;
      switch (chain.net) {
        case UpdateKind::kInsert:
          emit(Update::Insert(std::move(relation), std::move(chain.current),
                              chain.last_writer),
               std::nullopt, std::move(chain.current_key));
          break;
        case UpdateKind::kModify:
          emit(Update::Modify(std::move(relation), std::move(chain.original),
                              std::move(chain.current), chain.last_writer),
               std::move(chain.original_key), std::move(chain.current_key));
          break;
        case UpdateKind::kDelete:
          emit(Update::Delete(std::move(relation), std::move(chain.original),
                              chain.last_writer),
               std::move(chain.original_key), std::nullopt);
          break;
      }
    }
    if (keyed) out.Seal();
    return out;
  }

 private:
  static const RelKey& SortKey(const Chain& chain) {
    return chain.net == UpdateKind::kDelete ? chain.original_key.key
                                            : chain.current_key.key;
  }

  Status AddInsert(const db::RelationSchema& schema, const Update& u) {
    HashedRelKey key =
        HashedRelKey::Of(u.relation(), schema.KeyOf(u.new_tuple()));
    if (live_.count(key) != 0) {
      return Status::Conflict("sequence inserts key " + key.key.ToString() +
                              " twice");
    }
    auto del_it = deleted_.find(key);
    if (del_it != deleted_.end()) {
      // -t ∘ +t' : remove-and-replace composes to a modify (or a no-op
      // when the re-inserted tuple equals the removed one).
      Chain& chain = chains_[del_it->second];
      deleted_.erase(del_it);
      if (chain.original == u.new_tuple()) {
        chain.dead = true;
        return Status::OK();
      }
      chain.net = UpdateKind::kModify;
      chain.current = u.new_tuple();
      chain.last_writer = u.origin();
      live_[key] = IndexOf(chain);
      chain.current_key = std::move(key);
      return Status::OK();
    }
    Chain chain;
    chain.net = UpdateKind::kInsert;
    chain.current = u.new_tuple();
    chain.last_writer = u.origin();
    live_[key] = chains_.size();
    chain.current_key = std::move(key);
    chains_.push_back(std::move(chain));
    return Status::OK();
  }

  Status AddDelete(const db::RelationSchema& schema, const Update& u) {
    HashedRelKey key =
        HashedRelKey::Of(u.relation(), schema.KeyOf(u.old_tuple()));
    auto live_it = live_.find(key);
    if (live_it == live_.end()) {
      if (deleted_.count(key) != 0) {
        return Status::Conflict("sequence deletes key " + key.key.ToString() +
                                " twice");
      }
      Chain chain;
      chain.net = UpdateKind::kDelete;
      chain.original = u.old_tuple();
      chain.last_writer = u.origin();
      deleted_[key] = chains_.size();
      chain.original_key = std::move(key);
      chains_.push_back(std::move(chain));
      return Status::OK();
    }
    Chain& chain = chains_[live_it->second];
    if (chain.current != u.old_tuple()) {
      return Status::Conflict("delete pre-image " + u.old_tuple().ToString() +
                              " does not match the chain state " +
                              chain.current.ToString());
    }
    live_.erase(live_it);
    if (chain.net == UpdateKind::kInsert) {
      // +t ∘ -t : vanishes.
      chain.dead = true;
      return Status::OK();
    }
    // t0->t ∘ -t : composes to -t0, indexed at t0's key.
    chain.net = UpdateKind::kDelete;
    chain.current = db::Tuple();
    chain.current_key = HashedRelKey();
    chain.last_writer = u.origin();
    if (deleted_.count(chain.original_key) != 0) {
      return Status::Conflict("sequence deletes key " +
                              chain.original_key.key.ToString() + " twice");
    }
    deleted_[chain.original_key] = IndexOf(chain);
    return Status::OK();
  }

  Status AddModify(const db::RelationSchema& schema, const Update& u) {
    HashedRelKey old_key =
        HashedRelKey::Of(u.relation(), schema.KeyOf(u.old_tuple()));
    HashedRelKey new_key =
        HashedRelKey::Of(u.relation(), schema.KeyOf(u.new_tuple()));
    const bool moves = !(old_key == new_key);
    if (deleted_.count(old_key) != 0 && live_.count(old_key) == 0) {
      return Status::Conflict("sequence modifies deleted key " +
                              old_key.key.ToString());
    }
    size_t chain_index;
    auto live_it = live_.find(old_key);
    if (live_it != live_.end()) {
      chain_index = live_it->second;
      if (chains_[chain_index].current != u.old_tuple()) {
        return Status::Conflict(
            "modify pre-image " + u.old_tuple().ToString() +
            " does not match the chain state " +
            chains_[chain_index].current.ToString());
      }
      live_.erase(live_it);
    } else {
      // Chain starts at a pre-existing tuple.
      Chain chain;
      chain.net = UpdateKind::kModify;
      chain.original = u.old_tuple();
      chain.original_key = std::move(old_key);
      chains_.push_back(std::move(chain));
      chain_index = chains_.size() - 1;
    }
    Chain& chain = chains_[chain_index];
    chain.current = u.new_tuple();
    chain.last_writer = u.origin();
    if (moves && live_.count(new_key) != 0) {
      return Status::Conflict("sequence moves two tuples onto key " +
                              new_key.key.ToString());
    }
    // A pre-existing occupant of new_key removed earlier in the sequence
    // stays as an independent delete; the apply step orders deletes first.
    live_[new_key] = chain_index;
    chain.current_key = std::move(new_key);
    return Status::OK();
  }

  size_t IndexOf(const Chain& chain) const {
    return static_cast<size_t>(&chain - chains_.data());
  }

  const db::Catalog& catalog_;
  std::vector<Chain> chains_;
  std::unordered_map<HashedRelKey, size_t, PrecomputedHash> live_;
  std::unordered_map<HashedRelKey, size_t, PrecomputedHash> deleted_;
};

// Sequence holds Update or const Update*.
template <typename Sequence>
Result<KeyedUpdates> FlattenSequence(const db::Catalog& catalog,
                                     const Sequence& sequence, bool keyed) {
  Flattener flattener(catalog, sequence.size());
  for (const auto& u : sequence) {
    ORCH_RETURN_IF_ERROR(flattener.Add(u));
  }
  return flattener.Finish(keyed);
}

}  // namespace

Result<KeyedUpdates> FlattenKeyed(const db::Catalog& catalog,
                                  const std::vector<const Update*>& sequence) {
  return FlattenSequence(catalog, sequence, /*keyed=*/true);
}

Result<KeyedUpdates> FlattenKeyed(const db::Catalog& catalog,
                                  const std::vector<Update>& sequence) {
  return FlattenSequence(catalog, sequence, /*keyed=*/true);
}

Result<std::vector<Update>> Flatten(const db::Catalog& catalog,
                                    const std::vector<Update>& sequence) {
  ORCH_ASSIGN_OR_RETURN(KeyedUpdates flat,
                        FlattenSequence(catalog, sequence, /*keyed=*/false));
  return std::move(flat.updates);
}

}  // namespace orchestra::core
