package port

import (
	"math"
	"time"
)

// Time is a timestamp in nanoseconds since the start of the run: virtual on
// the simulated backend (unrelated to wall-clock time), monotonic in real
// time.
type Time int64

// Infinity is a timestamp later than any reachable instant.
const Infinity Time = math.MaxInt64

// Duration converts a time span to a time.Duration. Time is kept in
// nanoseconds, so the conversion is exact.
func (t Time) Duration() time.Duration { return time.Duration(t) }

func (t Time) String() string { return time.Duration(t).String() }

// Msg is one delivered mailbox message: who sent it, and what.
type Msg struct {
	From    int // sender port ID
	Payload any // protocol payload
}
