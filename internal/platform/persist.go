package platform

// Stored is the durable form of one spec's pipeline outcome: the
// compile report, the run report once the workload has executed, or a
// placement failure. dabenchd persists one per /v1/run outcome —
// internal/store serializes it as the JSON payload of a versioned
// blob frame.
type Stored struct {
	Compile *CompileReport `json:"compile,omitempty"`
	Run     *RunReport     `json:"run,omitempty"`
	// Failed marks a persisted placement failure (the paper's "Fail"
	// entries).
	Failed     bool   `json:"failed,omitempty"`
	FailReason string `json:"fail_reason,omitempty"`
}
