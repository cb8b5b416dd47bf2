package main

import (
	_ "embed"
	"encoding/json"
	"fmt"
)

// digestsJSON holds the recorded simulated-result digest of every workload
// at each scale for the reference seed and the held-out seed, keyed by
// digestKey. Regenerate it with -record only for a change that is meant to
// alter simulated results.
//
//go:embed digests.json
var digestsJSON []byte

// Recorded seeds: refSeed is the per-run canary's seed; heldOutSeed was
// never used while the benchmark was tuned.
const (
	refSeed     = 1
	heldOutSeed = 2
)

// scaleName names a run scale divisor in digest keys.
func scaleName(div int) string {
	if div == 1 {
		return "full"
	}
	return "small"
}

func digestKey(workload string, div int, seed int64) string {
	return fmt.Sprintf("%s/%s/seed%d", workload, scaleName(div), seed)
}

// recorded returns the committed digests.
func recorded() (map[string]string, error) {
	m := map[string]string{}
	if err := json.Unmarshal(digestsJSON, &m); err != nil {
		return nil, fmt.Errorf("digests.json: %w", err)
	}
	return m, nil
}
