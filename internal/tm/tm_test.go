package tm

import (
	"testing"

	"repro/internal/machine"
)

func TestCatchNoAbort(t *testing.T) {
	reason, retry, aborted := Catch(func() {})
	if aborted || retry || reason != machine.AbortNone {
		t.Fatalf("clean run reported %v/%v/%v", reason, retry, aborted)
	}
}

func TestCatchUnwind(t *testing.T) {
	reason, retry, aborted := Catch(func() { Unwind(machine.AbortConflict) })
	if !aborted || retry || reason != machine.AbortConflict {
		t.Fatalf("got %v/%v/%v", reason, retry, aborted)
	}
}

func TestCatchRetry(t *testing.T) {
	_, retry, aborted := Catch(func() { UnwindRetry() })
	if !aborted || !retry {
		t.Fatal("retry unwind not caught")
	}
}

func TestCatchPropagatesForeignPanics(t *testing.T) {
	defer func() {
		if r := recover(); r != "boom" {
			t.Fatalf("recovered %v, want boom", r)
		}
	}()
	Catch(func() { panic("boom") })
}

func TestCatchNested(t *testing.T) {
	// An inner Catch must not swallow an outer body's unwind twice.
	reason, _, aborted := Catch(func() {
		r, _, a := Catch(func() { Unwind(machine.AbortOverflow) })
		if !a || r != machine.AbortOverflow {
			t.Fatal("inner catch failed")
		}
		Unwind(machine.AbortSyscall)
	})
	if !aborted || reason != machine.AbortSyscall {
		t.Fatalf("outer catch got %v/%v", reason, aborted)
	}
}

func TestStatsCommits(t *testing.T) {
	a := Stats{HWCommits: 2, SWCommits: 4, Failovers: 6}
	if a.Commits() != 6 {
		t.Fatalf("Commits = %d, want 6", a.Commits())
	}
	if a.String() == "" {
		t.Fatal("empty String")
	}
}
