// Package eventsim holds the time types shared by the simulators: a
// simulated clock reading and a labelled busy interval. The pipeline,
// serving and collective simulators run static schedules, so each is a
// plain recurrence over these types rather than an event queue.
package eventsim

// Time is simulated seconds since the simulation start.
type Time float64

// Interval is one busy period of a resource (a pipeline stage, a serving
// replica).
type Interval struct {
	// Start and End delimit the period.
	Start, End Time
	// Label describes the work (e.g. "F3" for microbatch 3's forward).
	Label string
}
