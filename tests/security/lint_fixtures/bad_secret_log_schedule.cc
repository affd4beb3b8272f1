// Lint fixture: a key schedule streamed to a log sink. A crypto::PrfKey
// is key-equivalent — its chaining values yield every epoch's k_{i,t}
// and ss_{i,t} — so both sites below must trip the secret-log rule.
#include "common/bytes.h"
#include "common/logging.h"
#include "crypto/hmac.h"

namespace sies {

void DebugSchedule(const crypto::PrfKey& schedule, uint64_t epoch) {
  // BAD: a chaining value of the schedule reaches stderr.
  SIES_LOG(kDebug) << "epoch " << epoch << " chain "
                   << schedule.sha256().inner[0];
}

void DebugFreshSchedule(const Bytes& raw) {
  // BAD: a schedule built inline is just as secret.
  SIES_LOG(kDebug) << crypto::PrfKey(raw).sha1().outer[0];
}

}  // namespace sies
