package core

import (
	"testing"
	"testing/quick"

	"srumma/internal/grid"
	"srumma/internal/rt"
)

// makeTasks builds a synthetic task list with the given A-owner sequence
// (B side all direct), for exercising buildSchedule in isolation.
func makeTasks(owners []int, direct []bool) []Task {
	tasks := make([]Task, len(owners))
	for i := range owners {
		tasks[i] = Task{
			AOwner: owners[i], ADirect: direct[i],
			ABlockRows: 4, ABlockCols: 4,
			ASubR: 4, ASubC: 4,
		}
	}
	return tasks
}

func aSched(tasks []Task, slots int) schedule {
	return buildSchedule(tasks, slots, nil, nil, aRegion, func(t *Task) bool { return t.ADirect })
}

func TestScheduleDedupsConsecutive(t *testing.T) {
	tasks := makeTasks([]int{3, 3, 3, 5, 5, 3}, make([]bool, 6))
	s := aSched(tasks, 2)
	// Fetch items: 3, 5, 3 (the final 3 is a refetch: its buffer slot was
	// reused... with 2 slots, item[0]=3 is still live when 5 is current, so
	// the last task reuses item 0? No: after item 1 (5), items[n-2] is 3 —
	// 2-slot reuse hits.
	if len(s.items) != 2 {
		t.Fatalf("items = %d, want 2 (with 2-slot reuse): %+v", len(s.items), s.items)
	}
	want := []int{0, 0, 0, 1, 1, 0}
	for i, w := range want {
		if s.ofTask[i] != w {
			t.Fatalf("ofTask = %v, want %v", s.ofTask, want)
		}
	}
}

func TestScheduleSingleSlotNoTwoSlotReuse(t *testing.T) {
	tasks := makeTasks([]int{3, 5, 3}, make([]bool, 3))
	s := aSched(tasks, 1)
	// With one buffer, the third task must refetch owner 3.
	if len(s.items) != 3 {
		t.Fatalf("single-slot items = %d, want 3", len(s.items))
	}
}

func TestScheduleDirectTasksNeedNoFetch(t *testing.T) {
	tasks := makeTasks([]int{1, 2, 3}, []bool{true, false, true})
	s := aSched(tasks, 2)
	if len(s.items) != 1 || s.ofTask[0] != -1 || s.ofTask[1] != 0 || s.ofTask[2] != -1 {
		t.Fatalf("schedule wrong: items=%d ofTask=%v", len(s.items), s.ofTask)
	}
	if s.need[0] != -1 || s.need[1] != 0 || s.need[2] != 0 {
		t.Fatalf("need wrong: %v", s.need)
	}
}

func TestScheduleRegionsDistinguishSubBlocks(t *testing.T) {
	// Same owner, different sub-regions: must be distinct fetches.
	tasks := makeTasks([]int{7, 7}, make([]bool, 2))
	tasks[1].ASubJ = 2
	tasks[1].ASubC = 2
	s := aSched(tasks, 2)
	if len(s.items) != 2 {
		t.Fatalf("distinct regions deduped: %+v", s.items)
	}
}

// Property: the schedule invariants the pipeline depends on.
func TestScheduleInvariantsQuick(t *testing.T) {
	f := func(ownerBytes []byte, slots8 uint8) bool {
		if len(ownerBytes) == 0 {
			return true
		}
		if len(ownerBytes) > 40 {
			ownerBytes = ownerBytes[:40]
		}
		slots := 1 + int(slots8%2) // 1 or 2
		owners := make([]int, len(ownerBytes))
		direct := make([]bool, len(ownerBytes))
		for i, b := range ownerBytes {
			owners[i] = int(b % 5)
			direct[i] = b%7 == 0
		}
		tasks := makeTasks(owners, direct)
		s := aSched(tasks, slots)
		run := -1
		for ti := range tasks {
			f := s.ofTask[ti]
			if direct[ti] {
				if f != -1 {
					return false
				}
			} else {
				if f < 0 || f >= len(s.items) {
					return false
				}
				if s.items[f].owner != owners[ti] {
					return false
				}
				// A task may only reference one of the `slots` most recent
				// items at its position (buffer liveness).
				if run-f >= slots && f < run {
					return false
				}
			}
			if f > run {
				if f != run+1 && run >= 0 {
					return false // items must be introduced one at a time
				}
				run = f
			}
			if s.need[ti] != run {
				return false
			}
		}
		// need is non-decreasing and increments by at most 1.
		for ti := 1; ti < len(tasks); ti++ {
			d := s.need[ti] - s.need[ti-1]
			if d < 0 || d > 1 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// The executor's issue-cap rule: simulate the issue loop and verify no
// buffer is overwritten while a pending task still references it.
func TestPipelineNeverClobbersLiveBuffer(t *testing.T) {
	f := func(ownerBytes []byte) bool {
		if len(ownerBytes) < 2 {
			return true
		}
		if len(ownerBytes) > 30 {
			ownerBytes = ownerBytes[:30]
		}
		owners := make([]int, len(ownerBytes))
		direct := make([]bool, len(ownerBytes))
		for i, b := range ownerBytes {
			owners[i] = int(b % 4)
		}
		tasks := makeTasks(owners, direct)
		nbuf := 2
		s := aSched(tasks, nbuf)
		if len(s.items) == 0 {
			return true
		}
		// Replay the executor's issue schedule.
		bufHolds := make([]int, nbuf) // which item each buffer holds
		for i := range bufHolds {
			bufHolds[i] = -1
		}
		issued := -1
		issue := func(upTo int) {
			for issued < upTo {
				issued++
				bufHolds[issued%nbuf] = issued
			}
		}
		issue(min(1, len(s.items)-1))
		for ti := range tasks {
			target := s.need[ti]
			if ti+1 < len(tasks) {
				target = s.need[ti+1]
				if fi := s.ofTask[ti]; fi >= 0 && target > fi+1 {
					target = fi + 1
				}
				if target < s.need[ti] {
					target = s.need[ti]
				}
			}
			issue(target)
			// The current task's item must still be resident.
			if fi := s.ofTask[ti]; fi >= 0 && bufHolds[fi%nbuf] != fi {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// Plan determinism: identical inputs must give identical task lists.
func TestPlanDeterministic(t *testing.T) {
	g, _ := grid.New(3, 4)
	topo := rt.Topology{NProcs: 12, ProcsPerNode: 4}
	d := Dims{M: 50, N: 60, K: 70}
	for _, cs := range Cases {
		a := Plan(topo, 5, g, d, Options{Case: cs})
		b := Plan(topo, 5, g, d, Options{Case: cs})
		if len(a) != len(b) {
			t.Fatalf("%v: lengths differ", cs)
		}
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("%v: task %d differs", cs, i)
			}
		}
	}
}
