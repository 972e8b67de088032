package perception

// FusionHorizon exports the fusion join's bookkeeping horizon to the
// external tests.
const FusionHorizon = fusionHorizon

// FusionBacklog reports the fusion join's bookkeeping: the activation whose
// arrival prunes it next (above every arrival so far), the oldest key in any
// of its three maps (that activation when they are empty), and the sizes of
// the front, rear and fused maps.
func (s *System) FusionBacklog() (pruneAt, oldest uint64, sizes [3]int) {
	oldest = s.fusionPruneAt
	for a := range s.frontArrived {
		oldest = min(oldest, a)
	}
	for a := range s.rearArrived {
		oldest = min(oldest, a)
	}
	for a := range s.fusedDone {
		oldest = min(oldest, a)
	}
	return s.fusionPruneAt, oldest, [3]int{len(s.frontArrived), len(s.rearArrived), len(s.fusedDone)}
}
