package sim

// Test hooks for the scheduler's auto mode.
var AutoWidth = autoWidth

const MinWorkPerWorker = minWorkPerWorker

// NewAutoScheduler builds an auto-mode scheduler capped at workers,
// independent of the host's GOMAXPROCS.
func NewAutoScheduler(workers int) *Scheduler { return newScheduler(workers, true) }
