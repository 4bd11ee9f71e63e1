package compress

import "samplecf/internal/faults"

// encodePoint is the codec-encode injection point: consulted once per page
// on every MeasureArena, EncodeArena and MeasureResample route (parallel,
// sequential, GlobalDict sizing, and session), so a chaos schedule can
// fail or panic "the Nth page" whether the codec sizes or encodes, fans
// out or not.
// Disarmed cost: one atomic load per page.
var encodePoint = faults.Register("compress.encode")
