package mem

import (
	"testing"
	"testing/quick"
)

// ufoAt returns the UFO bits of the line holding addr, read from its
// record without materializing an untouched page, which reads UFONone.
func ufoAt(m *Memory, addr uint64) UFOBits {
	pg := m.pages[addr/PageBytes]
	if pg == nil {
		return UFONone
	}
	return UFOOf(m.record(pg, LineOf(addr)))
}

func TestReadWriteRoundTrip(t *testing.T) {
	m := New(1 << 16)
	m.Write64(0, 42)
	m.Write64(8, 99)
	m.Write64(1<<15, 7)
	if m.Read64(0) != 42 || m.Read64(8) != 99 || m.Read64(1<<15) != 7 {
		t.Fatal("round trip failed")
	}
}

func TestReadWriteProperty(t *testing.T) {
	m := New(1 << 20)
	if err := quick.Check(func(addr, val uint64) bool {
		a := addr % (1 << 20) / WordBytes * WordBytes
		m.Write64(a, val)
		return m.Read64(a) == val
	}, nil); err != nil {
		t.Fatal(err)
	}
}

func TestUnalignedAccessPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	New(1 << 12).Read64(3)
}

func TestOutOfRangePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	New(1<<12).Write64(1<<12, 1)
}

func TestLineMath(t *testing.T) {
	if LineOf(0) != 0 || LineOf(63) != 0 || LineOf(64) != 1 {
		t.Fatal("LineOf wrong")
	}
	if LineAddr(2) != 128 {
		t.Fatal("LineAddr wrong")
	}
}

func TestUFOBitsPerLine(t *testing.T) {
	m := New(1 << 12)
	m.SetUFO(64, UFOFaultOnWrite)
	// Every address within the line shares the bits.
	for a := uint64(64); a < 128; a += 8 {
		if ufoAt(m, a) != UFOFaultOnWrite {
			t.Fatalf("UFO(%d) = %v", a, ufoAt(m, a))
		}
		if ufoAt(m, a).Faults(false) {
			t.Fatal("read should not fault under fault-on-write")
		}
		if !ufoAt(m, a).Faults(true) {
			t.Fatal("write should fault under fault-on-write")
		}
	}
	// Neighboring lines are unaffected.
	if ufoAt(m, 0) != UFONone || ufoAt(m, 128) != UFONone {
		t.Fatal("UFO bits leaked to neighbor lines")
	}
}

func TestFaultsMatrix(t *testing.T) {
	m := New(1 << 12)
	cases := []struct {
		bits        UFOBits
		read, write bool
	}{
		{UFONone, false, false},
		{UFOFaultOnRead, true, false},
		{UFOFaultOnWrite, false, true},
		{UFOFaultAll, true, true},
	}
	for _, c := range cases {
		m.SetUFO(0, c.bits)
		if ufoAt(m, 0).Faults(false) != c.read {
			t.Errorf("bits %v: read fault = %v, want %v", c.bits, ufoAt(m, 0).Faults(false), c.read)
		}
		if ufoAt(m, 0).Faults(true) != c.write {
			t.Errorf("bits %v: write fault = %v, want %v", c.bits, ufoAt(m, 0).Faults(true), c.write)
		}
	}
}

func TestUFOBitsString(t *testing.T) {
	for b, want := range map[UFOBits]string{
		UFONone:         "none",
		UFOFaultOnRead:  "fault-on-read",
		UFOFaultOnWrite: "fault-on-write",
		UFOFaultAll:     "fault-on-read|write",
	} {
		if b.String() != want {
			t.Errorf("%d.String() = %q, want %q", b, b.String(), want)
		}
	}
}

func TestSbrkGrowsMemory(t *testing.T) {
	m := New(PageBytes)
	a := m.Sbrk(100)
	b := m.Sbrk(100)
	if a == b {
		t.Fatal("Sbrk returned the same region twice")
	}
	if b%LineBytes != 0 {
		t.Fatal("Sbrk regions must be line-aligned")
	}
	// Allocate well past the initial size; memory must grow.
	var last uint64
	for i := 0; i < 200; i++ {
		last = m.Sbrk(PageBytes)
	}
	m.Write64(last, 5)
	if m.Read64(last) != 5 {
		t.Fatal("grown memory not accessible")
	}
}

func TestSbrkLineAligned(t *testing.T) {
	m := New(PageBytes)
	if err := quick.Check(func(n uint16) bool {
		return m.Sbrk(uint64(n)+1)%LineBytes == 0
	}, nil); err != nil {
		t.Fatal(err)
	}
}

func TestGrowPreservesUFO(t *testing.T) {
	m := New(PageBytes)
	m.SetUFO(0, UFOFaultAll)
	m.Write64(0, 123)
	for i := 0; i < 50; i++ {
		m.Sbrk(PageBytes) // force several grows
	}
	if ufoAt(m, 0) != UFOFaultAll || m.Read64(0) != 123 {
		t.Fatal("grow lost data or UFO bits")
	}
}
