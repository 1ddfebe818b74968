package main

import (
	_ "embed"
	"encoding/json"
	"fmt"
)

// pins.json holds the exact colors/palette/rounds/messages of each
// workload at chosen (n, seed) points, including the ROADMAP's n=10^6
// forest-union invariant. Every run whose point is pinned checks it.
// An entry is a run's record line cut down to workload, n, seed and
// counts (README.md shows how).
//
//go:embed pins.json
var pinsJSON []byte

type pin struct {
	Workload string `json:"workload"`
	N        int    `json:"n"`
	Seed     int64  `json:"seed"`
	counts
}

type pinKey struct {
	workload string
	n        int
	seed     int64
}

func loadPins() (map[pinKey]counts, error) {
	var list []pin
	if err := json.Unmarshal(pinsJSON, &list); err != nil {
		return nil, fmt.Errorf("pins.json: %w", err)
	}
	pins := make(map[pinKey]counts, len(list))
	for _, p := range list {
		k := pinKey{p.Workload, p.N, p.Seed}
		if _, dup := pins[k]; dup {
			return nil, fmt.Errorf("pins.json: duplicate pin %s n=%d seed=%d", p.Workload, p.N, p.Seed)
		}
		pins[k] = p.counts
	}
	return pins, nil
}
