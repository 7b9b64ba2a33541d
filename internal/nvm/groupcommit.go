package nvm

// The names below are inert: the device reads none of them. They stay
// only because benchmark/ still compiles against them.

// GroupCommitConfig is ignored by the device. It is kept only for
// benchmark/ and is deleted by the referee-touching follow-up.
type GroupCommitConfig struct {
	Enabled  bool
	WindowNS int
}

// GCStats is always zero. It is kept only for benchmark/ and is deleted
// by the referee-touching follow-up.
type GCStats struct {
	Epochs      uint64
	Solo        uint64
	Combined    uint64
	ServedFASEs uint64
	DwellRounds uint64
}

// GroupCommitStats returns the zero value. It is kept only for benchmark/
// and is deleted by the referee-touching follow-up.
func (d *Device) GroupCommitStats() GCStats { return GCStats{} }
