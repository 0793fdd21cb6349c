package main

import (
	_ "embed"
	"encoding/json"
	"fmt"
	"runtime"
	"strconv"
)

// goldenJSON maps workload → seed → digest of the generated requests and
// their reference answers. It pins both the generators and the library's
// answers: a change to either shows as a mismatch. Regenerate it with
// `go test -update` in this directory.
//
//go:embed testdata/golden.json
var goldenJSON []byte

// goldenSeeds are the seeds whose digests are committed.
var goldenSeeds = []int64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}

func (p *pool) digest() string {
	all := make([]request, 0, len(p.reqs)+len(p.warm))
	return digest(append(append(all, p.reqs...), p.warm...))
}

// checkGolden compares a pool with the committed digest for its workload
// and seed, when there is one. The digests are amd64 answers; other
// architectures may fuse floating-point operations differently, so they are
// not checked there.
func checkGolden(workload string, seed int64, p *pool) error {
	if runtime.GOARCH != "amd64" {
		return nil
	}
	var golden map[string]map[string]string
	if err := json.Unmarshal(goldenJSON, &golden); err != nil {
		return fmt.Errorf("golden digests: %w", err)
	}
	want, ok := golden[workload][strconv.FormatInt(seed, 10)]
	if !ok {
		return nil
	}
	if got := p.digest(); got != want {
		return fmt.Errorf("seed %d: inputs or reference answers differ from the golden digest (got %s, want %s)",
			seed, got, want)
	}
	return nil
}
