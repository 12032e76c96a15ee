package fleet

import (
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"testing"
)

// TestManifestSaveRacesRestore: rewriting the manifest (any Create)
// while another fleet adopts a snapshot's configuration on its event
// loop (Restore) must not race. The manifest reads the configuration
// the fleet last published, never the loop-owned copy. Run under
// -race; without the detector the test only checks that both sides
// succeed.
func TestManifestSaveRacesRestore(t *testing.T) {
	root := t.TempDir()
	mgr, err := NewManager(Options{Dir: root})
	if err != nil {
		t.Fatal(err)
	}
	defer mgr.Close()
	a, err := mgr.Create("a", Config{Policy: "SB", Seed: 1, WALSync: SyncOS, SnapshotDir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	submitN(t, a, 4, 0)
	if _, err := a.Snapshot("a.json"); err != nil {
		t.Fatal(err)
	}

	const rounds = 8
	var wg sync.WaitGroup
	var rerr error
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < rounds && rerr == nil; i++ {
			_, rerr = a.Restore("a.json")
		}
	}()
	for i := 0; i < rounds; i++ {
		if _, err := mgr.Create(fmt.Sprintf("b%d", i), Config{Policy: "BF", WALSync: SyncOS}); err != nil {
			t.Fatal(err)
		}
	}
	wg.Wait()
	if rerr != nil {
		t.Fatalf("restore: %v", rerr)
	}
	if n := mgr.Len(); n != rounds+1 {
		t.Fatalf("registry holds %d fleets, want %d", n, rounds+1)
	}
}

// TestManifestIgnoresRetiredShardCount: a manifest written when fleets
// still carried an admission intake shard count (testdata) recovers its
// fleet. The retired key is ignored; the admission queue bound next to
// it still applies.
func TestManifestIgnoresRetiredShardCount(t *testing.T) {
	root := t.TempDir()
	manifest, err := os.ReadFile(filepath.Join("testdata", "fleets-with-intake-shards.json"))
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(root, manifestName), manifest, 0o644); err != nil {
		t.Fatal(err)
	}
	mgr, err := NewManager(Options{Dir: root})
	if err != nil {
		t.Fatal(err)
	}
	defer mgr.Close()
	f, err := mgr.Get("old")
	if err != nil {
		t.Fatal(err)
	}
	info, err := f.Info()
	if err != nil {
		t.Fatal(err)
	}
	if info.Policy != "BF" || info.Seed != 3 {
		t.Fatalf("recovered fleet runs %s seed %d, want BF seed 3", info.Policy, info.Seed)
	}
	if c := cap(f.admitq.ch); c != 32 {
		t.Fatalf("recovered admission queue holds %d, want 32", c)
	}
	submitN(t, f, 2, 0)
}
