package dataflow

// WithInstrWalk forces the per-instruction block transfer, the oracle
// the DEF/UBD block transfer is checked against.
func WithInstrWalk() Option { return func(o *liveOpts) { o.instrWalk = true } }
