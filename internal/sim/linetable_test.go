package sim

import (
	"math/rand"
	"testing"
)

// TestLineTableMatchesMap drives a LineTable and a Go map with the same
// seeded random Put/Get/Take stream. Keys come from a small range so
// collisions, long clusters and growth are frequent.
func TestLineTableMatchesMap(t *testing.T) {
	for seed := int64(1); seed <= 5; seed++ {
		rng := rand.New(rand.NewSource(seed))
		var tab LineTable
		ref := map[uint64]int32{}
		keyRange := 8 << seed
		for step := 0; step < 50000; step++ {
			key := uint64(rng.Intn(keyRange))
			if rng.Intn(2) == 0 {
				key <<= 40 // sparse high keys, as overlay line numbers are
			}
			switch rng.Intn(3) {
			case 0:
				v := rng.Int31()
				tab.Put(key, v)
				ref[key] = v
			case 1:
				got, ok := tab.Take(key)
				want, wok := ref[key]
				delete(ref, key)
				if got != want || ok != wok {
					t.Fatalf("seed %d step %d: Take(%#x) = %d,%v, map %d,%v", seed, step, key, got, ok, want, wok)
				}
			default:
				got, ok := tab.Get(key)
				want, wok := ref[key]
				if got != want || ok != wok {
					t.Fatalf("seed %d step %d: Get(%#x) = %d,%v, map %d,%v", seed, step, key, got, ok, want, wok)
				}
			}
			if tab.Len() != len(ref) {
				t.Fatalf("seed %d step %d: Len = %d, map %d", seed, step, tab.Len(), len(ref))
			}
		}
		for k, want := range ref {
			if got, ok := tab.Get(k); !ok || got != want {
				t.Fatalf("seed %d: final Get(%#x) = %d,%v, map %d", seed, k, got, ok, want)
			}
		}
	}
}

// TestLineTableDeleteAcrossWrap builds a cluster that starts in the
// last slots and wraps to the front, then deletes from it in 720
// shuffled orders: backward-shift must keep each survivor reachable.
func TestLineTableDeleteAcrossWrap(t *testing.T) {
	var probe LineTable
	probe.Put(0, 0) // size the table to learn the hash geometry
	size := uint64(len(probe.keys))
	// Keys homed in the last two slots and in slot 0.
	var keys []uint64
	for k := uint64(0); len(keys) < 6; k++ {
		if h := probe.home(k); h >= size-2 && len(keys) < 4 || h == 0 && len(keys) >= 4 {
			keys = append(keys, k)
		}
	}
	for perm := 0; perm < 720; perm++ {
		order := append([]uint64(nil), keys...)
		rand.New(rand.NewSource(int64(perm))).Shuffle(len(order), func(i, j int) { order[i], order[j] = order[j], order[i] })
		var tab LineTable
		for i, k := range keys {
			tab.Put(k, int32(i))
		}
		if len(tab.keys) != int(size) {
			t.Fatalf("table grew to %d slots; the test needs %d", len(tab.keys), size)
		}
		if tab.keys[0] == lineTableEmpty || tab.keys[size-1] == lineTableEmpty {
			t.Fatal("cluster does not wrap around the end of the table")
		}
		live := map[uint64]int32{}
		for i, k := range keys {
			live[k] = int32(i)
		}
		for _, k := range order {
			if v, ok := tab.Take(k); !ok || v != live[k] {
				t.Fatalf("perm %d: Take(%d) = %d,%v, want %d", perm, k, v, ok, live[k])
			}
			delete(live, k)
			for lk, lv := range live {
				if v, ok := tab.Get(lk); !ok || v != lv {
					t.Fatalf("perm %d: after Take(%d), Get(%d) = %d,%v, want %d", perm, k, lk, v, ok, lv)
				}
			}
		}
		if tab.Len() != 0 {
			t.Fatalf("perm %d: Len = %d after deleting every key", perm, tab.Len())
		}
	}
}
