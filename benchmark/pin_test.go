package main

import "testing"

func TestCPUMaskCountsAndFindsTheLast(t *testing.T) {
	var m cpuMask
	if m.count() != 0 || m.last() != -1 {
		t.Errorf("empty mask: count %d, last %d", m.count(), m.last())
	}
	m[0] = 0b1011
	if m.count() != 3 || m.last() != 3 {
		t.Errorf("processors 0, 1, 3: count %d, last %d", m.count(), m.last())
	}
	m[2] = 1 << 5
	if m.count() != 4 || m.last() != 2*64+5 {
		t.Errorf("and 133: count %d, last %d", m.count(), m.last())
	}
}

func TestAllowedCPUsIsNotEmpty(t *testing.T) {
	m, err := allowedCPUs()
	if err != nil {
		t.Fatal(err)
	}
	if m.count() < 1 || m.last() < 0 {
		t.Errorf("this thread may run on %d processors, the last being %d", m.count(), m.last())
	}
}
