//go:build !amd64

package dynsys

// Off amd64 there is no packed kernel: avx2 is false, so CellsLanes runs
// the scalar kernel per lane and never reaches laneSteps.
func hasAVX2() bool { return false }

func laneSteps(*laneState, int) int { panic("dynsys: the packed kernel is amd64-only") }
