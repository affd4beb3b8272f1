// Compatibility include. The SHA-256 batches (HmacSha256Batch,
// PrfSha256Batch, EpochPrfSha256Batch) live in crypto/hmac.h next to the
// HM1 batch; bench_e2e/epoch_e2e.cc is the last file that includes this
// header for them. Once it includes crypto/hmac.h, delete this file.
#ifndef SIES_CRYPTO_SHA256X8_H_
#define SIES_CRYPTO_SHA256X8_H_

#include "crypto/hmac.h"

#endif  // SIES_CRYPTO_SHA256X8_H_
