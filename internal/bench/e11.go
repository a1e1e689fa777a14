package bench

import (
	"fmt"
)

// E11 — crash-consistency journal overhead (DESIGN.md §11). Every
// mutation stages its blob writes and commits them as one sealed intent
// record (bodies of 256 KiB and more by reference to a staging object),
// paying one extra record write plus one delete to the group store.
// This experiment measures what that costs on the PUT path, for creates
// and updates across content sizes, by running the identical workload
// with the journal on and off.

// E11Config parameterizes the journal-overhead experiment.
type E11Config struct {
	// Sizes holds the content sizes to sweep.
	Sizes []int
	// Runs is the number of measured repetitions per cell.
	Runs int
}

// DefaultE11 returns the scaled-down default parameters.
func DefaultE11() E11Config {
	return E11Config{Sizes: []int{1 << 10, 64 << 10, 1 << 20}, Runs: 30}
}

// E11Row is one measured cell: the same operation with and without the
// intent journal, plus the relative overhead.
type E11Row struct {
	Op       string // "put-create" or "put-update"
	Size     int
	With     Stat
	Without  Stat
	Overhead float64 // (with-without)/without
}

// RunE11 measures PUT latency with the journal enabled and disabled.
func RunE11(cfg E11Config) ([]E11Row, error) {
	if len(cfg.Sizes) == 0 || cfg.Runs <= 0 {
		return nil, fmt.Errorf("bench: e11 config incomplete: %+v", cfg)
	}
	var rows []E11Row
	for _, op := range []string{"put-create", "put-update"} {
		for _, size := range cfg.Sizes {
			with, err := e11Cell(op, size, cfg.Runs, false)
			if err != nil {
				return nil, err
			}
			without, err := e11Cell(op, size, cfg.Runs, true)
			if err != nil {
				return nil, err
			}
			overhead := 0.0
			if without.Mean > 0 {
				overhead = float64(with.Mean-without.Mean) / float64(without.Mean)
			}
			rows = append(rows, E11Row{Op: op, Size: size, With: with, Without: without, Overhead: overhead})
		}
	}
	return rows, nil
}

func e11Cell(op string, size, runs int, disableJournal bool) (Stat, error) {
	env, err := NewEnv(EnvConfig{DisableJournal: disableJournal})
	if err != nil {
		return Stat{}, err
	}
	defer env.Close()
	d := env.Direct("owner")
	if err := d.Mkdir("/bench/"); err != nil {
		return Stat{}, err
	}
	payload := make([]byte, size)
	for i := range payload {
		payload[i] = byte(i)
	}
	if op == "put-update" {
		if err := d.Upload("/bench/f", payload); err != nil {
			return Stat{}, err
		}
		return measure(runs, func() error {
			return d.Upload("/bench/f", payload)
		})
	}
	n := 0
	return measure(runs, func() error {
		n++
		return d.Upload(fmt.Sprintf("/bench/f%d", n), payload)
	})
}
