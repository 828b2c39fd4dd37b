package main

import (
	"math"
	"testing"
)

func TestReferenceEchoesAndCountsPerSlice(t *testing.T) {
	r, err := newReference(2, 64)
	if err != nil {
		t.Fatal(err)
	}
	defer r.close()
	perSec, err := r.echo(2*sliceLen, r.floodDepth())
	if err != nil {
		t.Fatal(err)
	}
	if len(perSec) != 2 || perSec[0] <= 0 || perSec[1] <= 0 {
		t.Errorf("echoes per second by slice = %v, want two positive rates", perSec)
	}
}

func TestFloodDepthFitsTheSmallestSocketBuffers(t *testing.T) {
	for frame, want := range map[int]int{64: closedDepth, 16 << 10: 4, 1 << 20: 1} {
		if got := (&reference{frame: frame}).floodDepth(); got != want {
			t.Errorf("flood depth at %d B frames = %d, want %d", frame, got, want)
		}
	}
}

func TestMachineSpeedIsReadingsAgainstNominal(t *testing.T) {
	nominal := nominalEcho[smallPayload]
	// The middle half of the slices is a machine at four fifths of nominal;
	// the frozen slice and the burst either side do not count.
	m := machine{ref: &reference{frame: smallPayload}, flood: []float64{0.8 * nominal, 0.8 * nominal, 0, 5 * nominal}}
	if s := m.speed(); math.Abs(s-0.8) > 1e-9 {
		t.Errorf("speed = %v, want 0.8", s)
	}
}
