// Random valid update steps over the protein relation F, shared by the
// flattening fuzz test and the keyed-analysis differential tests: fresh
// inserts, deletes, in-place modifies and key-moving modifies.
#ifndef ORCHESTRA_TESTS_CORE_RANDOM_UPDATES_H_
#define ORCHESTRA_TESTS_CORE_RANDOM_UPDATES_H_

#include <optional>
#include <string>

#include "common/check.h"
#include "common/random.h"
#include "core/update.h"
#include "db/table.h"

namespace orchestra::testing {

// Generates one random update that is valid against `state`, mutating
// `state` to track the evolving instance. Returns nullopt when the
// chosen operation is impossible (e.g. delete on an empty instance).
inline std::optional<core::Update> RandomStep(Rng& rng,
                                              const db::RelationSchema& schema,
                                              db::Table* state,
                                              size_t key_space) {
  const int kind = static_cast<int>(rng.NextBounded(4));
  auto random_key = [&] {
    return db::Tuple{db::Value("org" + std::to_string(rng.NextBounded(3))),
                     db::Value("p" + std::to_string(rng.NextBounded(
                                   static_cast<uint64_t>(key_space))))};
  };
  auto random_value = [&] {
    return db::Value("fn" + std::to_string(rng.NextBounded(6)));
  };
  switch (kind) {
    case 0: {  // insert a fresh key
      for (int attempt = 0; attempt < 8; ++attempt) {
        const db::Tuple key = random_key();
        if (state->ContainsKey(key)) continue;
        db::Tuple tuple{key[0], key[1], random_value()};
        ORCH_CHECK(state->Insert(tuple).ok());
        return core::Update::Insert("F", tuple, 1);
      }
      return std::nullopt;
    }
    case 1: {  // delete an existing tuple
      const std::vector<db::Tuple> rows = state->Scan();
      if (rows.empty()) return std::nullopt;
      const db::Tuple victim = rows[rng.NextBounded(rows.size())];
      ORCH_CHECK(state->DeleteByKey(schema.KeyOf(victim)).ok());
      return core::Update::Delete("F", victim, 1);
    }
    case 2: {  // modify, key unchanged
      const std::vector<db::Tuple> rows = state->Scan();
      if (rows.empty()) return std::nullopt;
      const db::Tuple victim = rows[rng.NextBounded(rows.size())];
      db::Tuple replacement{victim[0], victim[1], random_value()};
      if (replacement == victim) return std::nullopt;
      ORCH_CHECK(state->Replace(victim, replacement).ok());
      return core::Update::Modify("F", victim, replacement, 1);
    }
    default: {  // modify that moves the tuple to a fresh key
      const std::vector<db::Tuple> rows = state->Scan();
      if (rows.empty()) return std::nullopt;
      const db::Tuple victim = rows[rng.NextBounded(rows.size())];
      for (int attempt = 0; attempt < 8; ++attempt) {
        const db::Tuple key = random_key();
        if (state->ContainsKey(key)) continue;
        db::Tuple replacement{key[0], key[1], victim[2]};
        ORCH_CHECK(state->Replace(victim, replacement).ok());
        return core::Update::Modify("F", victim, replacement, 1);
      }
      return std::nullopt;
    }
  }
}

}  // namespace orchestra::testing

#endif  // ORCHESTRA_TESTS_CORE_RANDOM_UPDATES_H_
