package main

import (
	"bytes"
	"crypto/sha256"
	_ "embed"
	"encoding/hex"
	"encoding/json"
	"fmt"

	"hetcore/internal/harness"
)

// expectedJSON holds, per workload, the SHA-256 of each experiment's
// table JSON at seed 1. Any other seed prints its digests without a
// reference, so a parent and a change can be compared on a seed neither
// was written against.
//
//go:embed expected.json
var expectedJSON []byte

// expectedSeed is the seed the kept digests were taken at.
const expectedSeed = 1

func expectedDigests(workload string) (map[string]string, error) {
	var all map[string]map[string]string
	if err := json.Unmarshal(expectedJSON, &all); err != nil {
		return nil, fmt.Errorf("expected.json: %w", err)
	}
	return all[workload], nil
}

// digestTable is the SHA-256 of a table's JSON rendering, which carries
// every value at full precision.
func digestTable(t harness.Table) string {
	var b bytes.Buffer
	if err := t.JSON(&b); err != nil {
		return "unencodable: " + err.Error()
	}
	sum := sha256.Sum256(b.Bytes())
	return hex.EncodeToString(sum[:])
}

func digestBytes(b []byte) string {
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

// printDigests writes the run's output digests as one line.
func printDigests(e *env, digests map[string]string) {
	b, err := json.Marshal(digests)
	if err != nil {
		return
	}
	fmt.Fprintf(e.stdout, "digests %s\n", b)
}

// printSamples writes how many units and latency samples the medians
// and quantiles rest on.
func printSamples(e *env, counts map[string]int) {
	b, err := json.Marshal(counts)
	if err != nil {
		return
	}
	fmt.Fprintf(e.stdout, "samples %s\n", b)
}

// checkSame counts one comparison of two digest sets.
func checkSame(e *env, what string, got, want map[string]string) {
	e.tally.check(sameDigests(got, want), "%s: digests %v differ from %v", what, got, want)
}

// checkExpected compares the run's digests with the kept ones when the
// run uses the seed they were taken at.
func checkExpected(e *env, got map[string]string) {
	if e.seed != expectedSeed {
		return
	}
	want, err := expectedDigests(e.name)
	if err != nil || len(want) == 0 {
		e.tally.check(false, "no expected digests for %s: %v", e.name, err)
		return
	}
	checkSame(e, "seed-1 output vs expected.json", got, want)
}

func sameDigests(a, b map[string]string) bool {
	if len(a) != len(b) {
		return false
	}
	for k, v := range a {
		if b[k] != v {
			return false
		}
	}
	return true
}
