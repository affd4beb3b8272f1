// Lint fixture: key-material identifier flowing into a span recorded
// from a probe's reading. Span names land verbatim in the exported
// Chrome trace, so this must trip the secret-log rule.
#include <cstdint>

#include "common/bytes.h"
#include "telemetry/trace.h"

namespace sies {

void TraceReadingLeaky(const Bytes& source_key, uint64_t epoch,
                       double seconds) {
  // BAD: the span name is built from the source key.
  telemetry::Tracer::Global().RecordElapsed(ToHex(source_key).c_str(),
                                            "querier", epoch, seconds);
}

}  // namespace sies
