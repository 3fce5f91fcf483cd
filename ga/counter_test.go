package ga

import (
	"sync"
	"testing"
)

func TestCounterClaimsEachTaskOnce(t *testing.T) {
	const nprocs, tasks = 8, 200
	var mu sync.Mutex
	claimed := make(map[int]int)
	err := Run(nprocs, 2, false, func(e *Env) {
		ct := e.NewCounter()
		for {
			task := ct.Next()
			if task >= tasks {
				break
			}
			mu.Lock()
			claimed[task]++
			mu.Unlock()
		}
		e.Sync()
		ct.Destroy()
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(claimed) != tasks {
		t.Fatalf("claimed %d distinct tasks, want %d", len(claimed), tasks)
	}
	for task, n := range claimed {
		if n != 1 {
			t.Fatalf("task %d claimed %d times", task, n)
		}
	}
}

func TestCounterMonotonePerRank(t *testing.T) {
	err := Run(4, 2, false, func(e *Env) {
		ct := e.NewCounter()
		last := -1
		for i := 0; i < 20; i++ {
			v := ct.Next()
			if v <= last {
				panic("counter went backwards for one rank")
			}
			last = v
		}
		e.Sync()
	})
	if err != nil {
		t.Fatal(err)
	}
}
