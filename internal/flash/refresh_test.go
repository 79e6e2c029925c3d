package flash

import (
	"bytes"
	"errors"
	"testing"
)

func TestReprogramRepairsLeakedCharge(t *testing.T) {
	a := newTestArray(t, SLC)
	orig := make([]byte, 256)
	for i := range orig {
		orig[i] = byte(i) &^ 0x01 // plenty of 0-bits to leak
	}
	if _, err := a.Program(nil, 0, orig, nil); err != nil {
		t.Fatal(err)
	}
	leaked, err := a.InjectLeak(0, 5)
	if err != nil {
		t.Fatal(err)
	}
	if leaked == 0 {
		t.Fatal("nothing leaked")
	}
	data, _, _, _ := readPage(a, 0)
	if bytes.Equal(data, orig) {
		t.Fatal("leak not visible")
	}
	// Correct-and-Refresh: re-program the known-good image in place.
	if _, err := a.Reprogram(nil, 0, orig, nil); err != nil {
		t.Fatal(err)
	}
	data, _, _, _ = readPage(a, 0)
	if !bytes.Equal(data, orig) {
		t.Error("refresh did not restore the page")
	}
	if a.Stats().Refreshes != 1 || a.Stats().LeakedBits == 0 {
		t.Errorf("stats = %+v", a.Stats())
	}
	// The append budget is untouched by refreshes.
	if a.Appends(0) != 0 {
		t.Errorf("Appends = %d after refresh", a.Appends(0))
	}
}

func TestReprogramRejectsChargeDecrease(t *testing.T) {
	a := newTestArray(t, SLC)
	img := make([]byte, 256) // fully charged
	if _, err := a.Program(nil, 0, img, nil); err != nil {
		t.Fatal(err)
	}
	bad := append([]byte(nil), img...)
	bad[7] = 0x10 // would need a 0→1 flip
	if _, err := a.Reprogram(nil, 0, bad, nil); !errors.Is(err, ErrBitIncrease) {
		t.Errorf("reprogram with bit increase: %v", err)
	}
	// Erased pages cannot be refreshed.
	if _, err := a.Reprogram(nil, 5, img, nil); err == nil {
		t.Error("reprogram of erased page accepted")
	}
}
