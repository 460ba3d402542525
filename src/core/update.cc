#include "core/update.h"

#include <algorithm>
#include <optional>

#include "common/check.h"
#include "db/serde.h"

namespace orchestra::core {

std::string_view UpdateKindName(UpdateKind kind) {
  switch (kind) {
    case UpdateKind::kInsert:
      return "insert";
    case UpdateKind::kDelete:
      return "delete";
    case UpdateKind::kModify:
      return "modify";
  }
  return "unknown";
}

Update Update::Insert(std::string relation, db::Tuple tuple,
                      ParticipantId origin) {
  return Update(UpdateKind::kInsert, std::move(relation), db::Tuple(),
                std::move(tuple), origin);
}

Update Update::Delete(std::string relation, db::Tuple tuple,
                      ParticipantId origin) {
  return Update(UpdateKind::kDelete, std::move(relation), std::move(tuple),
                db::Tuple(), origin);
}

Update Update::Modify(std::string relation, db::Tuple old_tuple,
                      db::Tuple new_tuple, ParticipantId origin) {
  return Update(UpdateKind::kModify, std::move(relation),
                std::move(old_tuple), std::move(new_tuple), origin);
}

std::optional<db::Tuple> Update::ReadKey(
    const db::RelationSchema& schema) const {
  if (is_insert()) return std::nullopt;
  return schema.KeyOf(old_tuple_);
}

std::optional<db::Tuple> Update::WriteKey(
    const db::RelationSchema& schema) const {
  if (is_delete()) return std::nullopt;
  return schema.KeyOf(new_tuple_);
}

std::vector<RelKey> Update::TouchedKeys(
    const db::RelationSchema& schema) const {
  std::vector<RelKey> out;
  if (auto read = ReadKey(schema)) {
    out.push_back(RelKey{relation_, std::move(*read)});
  }
  if (auto write = WriteKey(schema)) {
    RelKey rk{relation_, std::move(*write)};
    if (out.empty() || !(out.front() == rk)) out.push_back(std::move(rk));
  }
  return out;
}

HashedRelKey HashedRelKey::Of(std::string relation, db::Tuple key) {
  HashedRelKey hk;
  hk.key = RelKey{std::move(relation), std::move(key)};
  hk.hash = RelKeyHash()(hk.key);
  return hk;
}

std::optional<HashedRelKey> HashedRelKey::Of(const Update& update,
                                             std::optional<db::Tuple> key) {
  if (!key) return std::nullopt;
  return Of(update.relation(), std::move(*key));
}

void KeyedUpdates::Append(Update update, std::optional<HashedRelKey> read,
                          std::optional<HashedRelKey> write) {
  const auto index = static_cast<uint32_t>(updates.size());
  if (read && write && *read == *write) {
    keys.push_back(Key{std::move(*read), index, kRead | kWrite});
  } else {
    if (read) keys.push_back(Key{std::move(*read), index, kRead});
    if (write) keys.push_back(Key{std::move(*write), index, kWrite});
  }
  updates.push_back(std::move(update));
  slots.emplace_back();
}

void KeyedUpdates::Seal() {
  std::sort(keys.begin(), keys.end(), [](const Key& a, const Key& b) {
    if (a.hash != b.hash) return a.hash < b.hash;
    if (a.update != b.update) return a.update < b.update;
    return a.role < b.role;
  });
  for (uint32_t k = 0; k < keys.size(); ++k) {
    Slots& s = slots[keys[k].update];
    if (keys[k].role & kRead) s.read = k;
    if (keys[k].role & kWrite) s.write = k;
  }
}

KeyedUpdates KeyUpdates(const db::Catalog& catalog,
                        std::vector<Update> updates) {
  KeyedUpdates out;
  out.updates.reserve(updates.size());
  out.slots.reserve(updates.size());
  for (Update& u : updates) {
    const db::RelationSchema& schema =
        *catalog.GetRelation(u.relation()).value();
    std::optional<HashedRelKey> read = HashedRelKey::Of(u, u.ReadKey(schema));
    std::optional<HashedRelKey> write =
        HashedRelKey::Of(u, u.WriteKey(schema));
    out.Append(std::move(u), std::move(read), std::move(write));
  }
  out.Seal();
  return out;
}

std::string Update::ToString() const {
  switch (kind_) {
    case UpdateKind::kInsert:
      return "+" + relation_ + new_tuple_.ToString() + ";" +
             std::to_string(origin_);
    case UpdateKind::kDelete:
      return "-" + relation_ + old_tuple_.ToString() + ";" +
             std::to_string(origin_);
    case UpdateKind::kModify:
      return relation_ + "(" + old_tuple_.ToString() + " -> " +
             new_tuple_.ToString() + ");" + std::to_string(origin_);
  }
  return "?";
}

void EncodeUpdate(std::string* out, const Update& update) {
  out->push_back(static_cast<char>(update.kind()));
  db::PutLengthPrefixed(out, update.relation());
  db::PutVarint64(out, update.origin());
  db::EncodeTuple(out, update.old_tuple());
  db::EncodeTuple(out, update.new_tuple());
}

size_t EncodedUpdateSize(const Update& update) {
  const size_t relation = update.relation().size();
  return 1 + db::VarintLength(relation) + relation +
         db::VarintLength(update.origin()) +
         db::EncodedTupleSize(update.old_tuple()) +
         db::EncodedTupleSize(update.new_tuple());
}

Result<Update> DecodeUpdate(std::string_view data, size_t* pos) {
  if (*pos >= data.size()) return Status::Corruption("truncated update kind");
  const auto kind = static_cast<UpdateKind>(data[(*pos)++]);
  ORCH_ASSIGN_OR_RETURN(std::string relation, db::GetLengthPrefixed(data, pos));
  ORCH_ASSIGN_OR_RETURN(uint64_t origin, db::GetVarint64(data, pos));
  ORCH_ASSIGN_OR_RETURN(db::Tuple old_tuple, db::DecodeTuple(data, pos));
  ORCH_ASSIGN_OR_RETURN(db::Tuple new_tuple, db::DecodeTuple(data, pos));
  switch (kind) {
    case UpdateKind::kInsert:
      return Update::Insert(std::move(relation), std::move(new_tuple),
                            static_cast<ParticipantId>(origin));
    case UpdateKind::kDelete:
      return Update::Delete(std::move(relation), std::move(old_tuple),
                            static_cast<ParticipantId>(origin));
    case UpdateKind::kModify:
      return Update::Modify(std::move(relation), std::move(old_tuple),
                            std::move(new_tuple),
                            static_cast<ParticipantId>(origin));
  }
  return Status::Corruption("unknown update kind tag");
}

}  // namespace orchestra::core
