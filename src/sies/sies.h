// Umbrella header: the complete SIES public API in one include.
//
//   #include "sies/sies.h"
//
// pulls in parameters/keys, the two arithmetic fields, the three
// protocol parties, the query model (channels, salted epochs, answer
// assembly), provisioning, epoch clocks, and the result log. The
// multi-query engine (src/engine), histograms and range queries
// (src/predicate), the network simulator, baselines (CMT, SECOA,
// commit-and-attest), and cost models live in their own headers.
#ifndef SIES_SIES_SIES_H_
#define SIES_SIES_SIES_H_

#include "sies/aggregator.h"
#include "sies/epoch_clock.h"
#include "sies/field.h"
#include "sies/message_format.h"
#include "sies/params.h"
#include "sies/provisioning.h"
#include "sies/querier.h"
#include "sies/query.h"
#include "sies/result_log.h"
#include "sies/source.h"

#endif  // SIES_SIES_SIES_H_
