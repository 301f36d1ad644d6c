#include "core/match_store.hpp"

namespace bdsm {

std::string MatchStore::KeyOf(const MatchRecord& m) {
  MatchRecord unsigned_m = m;
  unsigned_m.positive = true;  // keys ignore polarity
  return unsigned_m.Key();
}

void MatchStore::ApplyDelta(const MatchRecord& m) {
  std::string key = KeyOf(m);
  if (m.positive) {
    auto [it, inserted] = live_.emplace(key, m);
    GAMMA_CHECK_MSG(inserted, "duplicate positive delta");
    ++applied_positive_;
    for (uint8_t i = 0; i < m.n; ++i) ++participation_[m.m[i]];
  } else {
    size_t erased = live_.erase(key);
    GAMMA_CHECK_MSG(erased == 1, "negative delta for unknown match");
    ++applied_negative_;
    for (uint8_t i = 0; i < m.n; ++i) {
      auto it = participation_.find(m.m[i]);
      GAMMA_CHECK(it != participation_.end() && it->second > 0);
      if (--it->second == 0) participation_.erase(it);
    }
  }
}

bool MatchStore::Contains(const MatchRecord& m) const {
  return live_.count(KeyOf(m)) > 0;
}

size_t MatchStore::ParticipationCount(VertexId v) const {
  auto it = participation_.find(v);
  return it == participation_.end() ? 0 : it->second;
}

std::vector<MatchRecord> MatchStore::Snapshot() const {
  std::vector<MatchRecord> out;
  out.reserve(live_.size());
  for (const auto& [key, m] : live_) out.push_back(m);
  return out;
}

}  // namespace bdsm
